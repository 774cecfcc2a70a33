"""Class layouts: one per (grid, chunk, policy), owned by the sweep's plan.

The partition a policy induces on a chunk belongs to the policy and the
points alone (M is sound for I iff M factors through I), so a plan
builds each layout once and decides every flowchart that sweeps that
grid from it.  A grid that only one flowchart sweeps keeps none, and a
pickled plan carries none: a process worker builds its own.
"""

import pickle
import sys

import pytest

from repro.flowchart import library
from repro.verify import parallel, parallel_soundness_sweep
from repro.verify.enumerate import all_allow_policies, default_grid

SUITE = library.extended_suite()


def rows(results):
    return [(r.program_name, r.policy_name, r.mechanism_name, r.sound,
             r.accepts, r.domain_size, r.backends) for r in results]


@pytest.fixture
def counted(monkeypatch):
    """Counts the layouts a sweep builds and the summaries it makes."""
    calls = {"layouts": 0, "summaries": 0}
    build, summarize = parallel._class_layout, parallel._summarize_outputs

    def counting_build(*args):
        calls["layouts"] += 1
        return build(*args)

    def counting_summarize(*args, **kwargs):
        calls["summaries"] += 1
        return summarize(*args, **kwargs)

    monkeypatch.setattr(parallel, "_class_layout", counting_build)
    monkeypatch.setattr(parallel, "_summarize_outputs", counting_summarize)
    return calls


@pytest.fixture
def plans(monkeypatch):
    """Every plan the sweeps of a test make."""
    made = []
    make = parallel._Plan

    def recording(*args, **kwargs):
        plan = make(*args, **kwargs)
        made.append(plan)
        return plan

    monkeypatch.setattr(parallel, "_Plan", recording)
    return made


def make_plan(flowcharts):
    return parallel._Plan(flowcharts, "program", default_grid,
                          all_allow_policies, 100, None, "batch")


def chunks(arity, size):
    return -(-len(default_grid(arity)) // size)


def test_one_chunk_sweep_builds_one_layout_per_grid_and_policy(counted):
    # 10 arity-2, 5 arity-1 and 1 arity-3 programs: 4 + 2 + 8 layouts
    # decide 40 + 10 + 8 summaries.
    results = parallel_soundness_sweep(SUITE, "program", executor="serial",
                                       backend="batch")
    assert len(results) == 58
    assert counted == {"layouts": 14, "summaries": 58}


def test_chunked_sweep_builds_one_layout_per_grid_chunk_and_policy(
        counted, tmp_path):
    size = 4
    results = parallel_soundness_sweep(
        SUITE, "program", executor="serial", chunk_size=size,
        backend="batch", audit=str(tmp_path / "ledger.jsonl"))
    arities = {flowchart.arity for flowchart in SUITE}
    assert counted["layouts"] == sum(chunks(arity, size) * 2 ** arity
                                     for arity in arities)
    assert counted["summaries"] == sum(
        chunks(flowchart.arity, size) * 2 ** flowchart.arity
        for flowchart in SUITE)
    whole = parallel_soundness_sweep(SUITE, "program", executor="serial",
                                     backend="batch")
    assert [row[:6] for row in rows(results)] == [row[:6]
                                                  for row in rows(whole)]


def test_thread_workers_sharing_layouts_match_the_serial_sweep(tmp_path):
    # More workers than cores, switching often: two workers may race to
    # build one layout, and the rows and the ledger must not show it.
    sweeps = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for executor in ("serial", "thread"):
            ledger = tmp_path / f"{executor}.jsonl"
            results = parallel_soundness_sweep(
                SUITE, "program", executor=executor, max_workers=8,
                chunk_size=2, backend="batch", audit=str(ledger),
                chunk_timeout=60)
            sweeps[executor] = rows(results), ledger.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert sweeps["thread"] == sweeps["serial"]


def test_single_user_grids_keep_no_layout(plans):
    flowcharts = [library.parity_program(), library.mixer_program(),
                  library.nested_branch_program()]
    assert sorted(flowchart.arity for flowchart in flowcharts) == [1, 2, 3]
    parallel_soundness_sweep(flowcharts, "program", executor="serial",
                             backend="batch")
    parallel_soundness_sweep(flowcharts, "program", executor="thread",
                             max_workers=2, chunk_size=4, backend="batch")
    # Two flowcharts on one grid keep that grid's layouts.
    parallel_soundness_sweep([library.mixer_program(), library.max_program()],
                             "program", executor="serial", backend="batch")
    assert [len(plan._layouts) for plan in plans] == [0, 0, 4]


def test_pickled_plan_carries_no_layouts():
    plan = make_plan([library.mixer_program(), library.max_program()])
    points = list(default_grid(2))
    layout = plan.layout(1, 0, points)
    assert len(plan._layouts) == 1
    clone = pickle.loads(pickle.dumps(plan))
    assert clone._layouts == {}
    assert len(plan._layouts) == 1
    assert clone.layout(1, 0, points) == layout


def test_equal_allow_policies_share_one_layout():
    # all_allow_policies builds fresh policies per call: the key is the
    # policy's indices, not the object.
    plan = make_plan([library.mixer_program(), library.max_program()])
    points = list(default_grid(2))
    for mixer_pair, max_pair in zip(plan.groups[0], plan.groups[1]):
        assert plan.pairs[mixer_pair][1] is not plan.pairs[max_pair][1]
        assert (plan.layout(mixer_pair, 0, points)
                is plan.layout(max_pair, 0, points))
    assert len(plan._layouts) == 4
    # Another chunk of the grid is another layout.
    assert plan.layout(0, 1, points[4:8]) is not plan.layout(0, 0, points)
