"""Property: merging any chunking of a domain equals the serial verdict.

``merge_chunks`` over an arbitrary partition of the grid (in domain
order, any cut points, including empty chunks) must produce exactly the
``(sound, accepts)`` pair of a single whole-domain ``evaluate_chunk`` —
including sweeps where every output is a violation notice and sweeps
where every run exhausts its fuel.  The chunk summariser every sweep
path calls, ``_summarize_outputs``, must equal the per-point loop it
replaced, class order included, also when one held class layout
summarises the outputs of several flowcharts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanism import ViolationNotice, is_violation
from repro.core.policy import SecurityPolicy, allow
from repro.flowchart import library
from repro.verify import FACTORIES
from repro.verify.enumerate import default_grid, fuel_notice
from repro.verify.parallel import (_class_layout, _summarize_outputs,
                                   evaluate_chunk, merge_chunks)


def chunked(points, cuts):
    bounds = [0] + sorted(cuts) + [len(points)]
    return [points[start:stop] for start, stop in zip(bounds, bounds[1:])]


def build_case(flowchart, allowed, fuel):
    domain = default_grid(flowchart.arity)
    policy = allow(*allowed, arity=flowchart.arity)
    mechanism = FACTORIES["surveillance"](flowchart, policy, domain, fuel)
    return mechanism, policy, list(domain)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_any_chunking_matches_whole_domain(data):
    flowchart = library.forgetting_program()
    allowed = data.draw(st.sampled_from([(), (1,), (2,), (1, 2)]))
    mechanism, policy, points = build_case(flowchart, allowed, 100_000)
    cuts = data.draw(st.lists(st.integers(0, len(points)), max_size=6))
    split = [evaluate_chunk(mechanism, policy, chunk)
             for chunk in chunked(points, cuts)]
    whole = evaluate_chunk(mechanism, policy, points)
    assert merge_chunks(split) == merge_chunks([whole])


@settings(deadline=None, max_examples=25)
@given(cuts=st.lists(st.integers(0, 9), max_size=5))
def test_all_violation_runs_merge_identically(cuts):
    # allow() on the forgetting program: every single output is Λ —
    # the degenerate sweep the merge must still summarise exactly.
    mechanism, policy, points = build_case(
        library.forgetting_program(), (), 100_000)
    assert all(is_violation(mechanism(*point)) for point in points)
    split = [evaluate_chunk(mechanism, policy, chunk)
             for chunk in chunked(points, cuts)]
    whole = evaluate_chunk(mechanism, policy, points)
    merged = merge_chunks(split)
    assert merged == merge_chunks([whole])
    assert merged[1] == 0  # nothing accepted


@settings(deadline=None, max_examples=25)
@given(cuts=st.lists(st.integers(0, 9), max_size=5))
def test_all_fuel_exhausted_runs_merge_identically(cuts):
    # fuel=2 truncates every gcd run: every chunk output is the
    # distinguished fuel notice, never an unwinding exception.
    mechanism, policy, points = build_case(
        library.gcd_program(), (1, 2), 2)
    split = [evaluate_chunk(mechanism, policy, chunk)
             for chunk in chunked(points, cuts)]
    whole = evaluate_chunk(mechanism, policy, points)
    assert merge_chunks(split) == merge_chunks([whole])
    assert all(output == fuel_notice(2)
               for output in whole.classes.values())


def per_point_summary(policy, points, outputs):
    """The per-point summary loop, kept as the oracle: accepts, the
    classes in first-seen order, and the conflict flag."""
    classes = {}
    accepts = 0
    conflict = False
    for point, output in zip(points, outputs):
        if not is_violation(output):
            accepts += 1
        policy_value = policy(*point)
        if policy_value not in classes:
            classes[policy_value] = output
        elif not conflict and classes[policy_value] != output:
            conflict = True
    return accepts, list(classes.items()), conflict


#: Grid values, past int64 included; drawn from a small pool so points
#: repeat within a chunk.
VALUES = st.sampled_from([0, 1, -1, 7, 1 << 63, -(1 << 64), 1 << 200])

#: Mechanism outputs: values (past int64 too), time-observable
#: ``(value, steps)`` pairs, and notices.  Notices are built per draw,
#: so equal ones are rarely the same object.
OUTPUTS = st.one_of(
    st.sampled_from([0, 1, 5, (1 << 64) + 1]),
    st.tuples(st.sampled_from([0, 1, 1 << 70]), st.integers(1, 3)),
    st.builds(ViolationNotice, st.sampled_from(
        ["Λ", "Λ@e0", "Λ@e1", "Λ!fuel[30]", "Λ!cap[4]"])))


def summary_policy(kind, arity, data):
    if kind == "none":
        return allow(arity=arity)
    if kind == "one":
        return allow(data.draw(st.integers(1, arity)), arity=arity)
    if kind == "all":
        return allow(*range(1, arity + 1), arity=arity)
    return SecurityPolicy(lambda *point: sum(point) % 3, arity)


def draw_outputs(data, points):
    if data.draw(st.booleans(), label="per point"):
        # One output per distinct point, as a mechanism gives.
        table = {point: data.draw(OUTPUTS) for point in dict.fromkeys(points)}
        return [table[point] for point in points]
    return [data.draw(OUTPUTS) for _ in points]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_summary_matches_per_point_loop(data):
    arity = data.draw(st.integers(1, 3), label="arity")
    kind = data.draw(st.sampled_from(["none", "one", "all", "callable"]),
                     label="policy")
    policy = summary_policy(kind, arity, data)
    points = data.draw(st.lists(st.tuples(*[VALUES] * arity), max_size=40),
                       label="points")
    outputs = draw_outputs(data, points)
    summary = _summarize_outputs(_class_layout(policy, points), outputs)
    assert (summary.accepts, list(summary.classes.items()),
            summary.conflict) == per_point_summary(policy, points, outputs)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_one_held_layout_summarises_many_output_vectors(data):
    # A plan decides every flowchart that sweeps a chunk from one
    # layout: each summary over it must still be the per-point loop's,
    # whatever the other summaries saw.
    arity = data.draw(st.integers(1, 3), label="arity")
    kind = data.draw(st.sampled_from(["none", "one", "all", "callable"]),
                     label="policy")
    policy = summary_policy(kind, arity, data)
    points = data.draw(st.lists(st.tuples(*[VALUES] * arity), max_size=40),
                       label="points")
    layout = _class_layout(policy, points)
    for _ in range(2):
        outputs = draw_outputs(data, points)
        summary = _summarize_outputs(layout, outputs)
        assert (summary.accepts, list(summary.classes.items()),
                summary.conflict) == per_point_summary(policy, points,
                                                       outputs)
