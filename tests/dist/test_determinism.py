"""The headline invariant: serial == distributed, row for row.

Final store, notices (including ``Λ@e{n}`` epoch tags), and step
counts must be identical whether the flowchart runs in one process or
partitioned across N, under any recoverable fault schedule.  Corrupted
envelopes totalize as ``Λ!msg[...]`` — never a silent wrong answer.
"""

import pytest

from repro.dist import run_distributed, serial_reference
from repro.flowchart import library
from repro.flowchart.parser import parse_program
from repro.verify.chaos import FaultPlan

RELAY3 = """
program relay3(x1, x2) {
    s := x1 + x2;
    send a(s);
    recv a(u);
    t := u * 2;
    send b(t);
    recv b(v);
    y := v + x1
}
"""

PINGPONG = """
program pingpong(x1, x2) {
    n := x1;
    acc := 0;
    while n != 0 {
        send ping(n);
        recv ping(m);
        acc := acc + m * x2;
        n := n - 1
    };
    y := acc
}
"""

EPOCHY = """
program epochy(x1, x2) {
    send ch(x1);
    policy allow(1);
    recv ch(u);
    y := u + x2
}
"""


def compile_source(source):
    return parse_program(source).compile()


def both(source, inputs, allowed, **kwargs):
    flowchart = compile_source(source)
    reference = serial_reference(flowchart, inputs, allowed, **kwargs)
    result = run_distributed(flowchart, inputs, allowed,
                             nodes=kwargs.pop("nodes", 3), **kwargs)
    return reference, result


class TestCleanRuns:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_relay_row_identical(self, nodes):
        flowchart = compile_source(RELAY3)
        reference = serial_reference(flowchart, (3, 4), (1, 2))
        result = run_distributed(flowchart, (3, 4), (1, 2), nodes=nodes)
        assert result.row() == reference
        assert result.outcome == 17  # (3+4)*2 + 3
        assert result.crashes == 0

    def test_looping_program_row_identical(self):
        reference, result = both(PINGPONG, (4, 5), (1, 2))
        assert result.row() == reference
        assert result.outcome == 50  # (4+3+2+1)*5

    def test_highwater_recv_keeps_the_overwritten_label(self):
        # The recv overwrites u: surveillance forgets x2's label there,
        # the high-water rule keeps it, so only the high-water row is Λ.
        source = ("program p(x1, x2) { u := x2; send ch(x1); recv ch(u); "
                  "y := u }")
        for forgetting, outcome in ((True, "3"), (False, "Λ")):
            reference, result = both(source, (3, 4), (1,),
                                     forgetting=forgetting)
            assert result.row() == reference
            assert reference["outcome"] == outcome

    def test_violation_rows_match(self):
        # epochy ends under allow(1) with u ⊒ {1} and x2 ⊒ {2}: the
        # halt check fails in epoch 1, on both sides, with the tag.
        reference, result = both(EPOCHY, (3, 4), (1, 2))
        assert result.row() == reference
        assert str(result.outcome) == "Λ@e1"


class TestChaosedRuns:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_drop_dup_delay_kill_schedule_recovers(self, seed):
        plan = FaultPlan(seed=seed, msg_drop=0.3, msg_dup=0.2,
                         msg_delay=0.3, msg_delay_seconds=0.02, kill=0.08)
        flowchart = compile_source(RELAY3)
        reference = serial_reference(flowchart, (3, 4), (1, 2))
        result = run_distributed(flowchart, (3, 4), (1, 2), nodes=3,
                                 plan=plan)
        assert result.row() == reference
        assert result.recoveries == result.crashes

    def test_every_node_crashing_once_still_matches(self):
        # kill=1.0 fires on the first accepted envelope of every
        # incarnation-0 node: each crashes exactly once, replays its
        # journal, and the run completes with the serial row.
        plan = FaultPlan(seed=0, kill=1.0)
        flowchart = compile_source(RELAY3)
        reference = serial_reference(flowchart, (3, 4), (1, 2))
        result = run_distributed(flowchart, (3, 4), (1, 2), nodes=2,
                                 plan=plan)
        assert result.row() == reference
        assert result.crashes >= 1
        assert result.recoveries == result.crashes

    def test_corruption_totalizes_never_lies(self):
        plan = FaultPlan(seed=1, msg_corrupt=1.0)
        flowchart = compile_source(RELAY3)
        result = run_distributed(flowchart, (3, 4), (1, 2), nodes=2,
                                 plan=plan)
        assert str(result.outcome).startswith("Λ!msg[corrupt:")
        row = result.row()
        assert row["steps"] is None and row["env"] is None


class TestFaultParity:
    def test_empty_recv_matches_serial(self):
        source = "program p(x1) { recv lonely(u); y := u }"
        reference, result = both(source, (1,), (1,))
        assert result.row() == reference
        assert str(result.outcome) == "Λ!msg[empty:lonely]"

    def test_fuel_exhaustion_matches_serial(self):
        reference, result = both(PINGPONG, (50, 1), (1, 2), fuel=40)
        assert result.row() == reference
        assert str(result.outcome) == "Λ!fuel[40]"

    def test_value_cap_matches_serial(self):
        source = ("program p(x1) { send ch(x1); recv ch(u); "
                  "y := u * u * u }")
        reference, result = both(source, (300,), (1,), value_cap=16)
        assert result.row() == reference
        assert str(result.outcome) == "Λ!cap[16]"

    def test_timed_early_notice_matches_serial(self):
        source = ("program p(x1, x2) { send ch(x2); recv ch(u); "
                  "if u == 0 { y := 1 } else { y := 2 } }")
        reference, result = both(source, (1, 0), (1,), timed=True)
        assert result.row() == reference
        assert str(result.outcome) == "Λ"


class TestDynamicPolicyRuns:
    """The policy-change and downgrade arms (van Delft/Hunt/Sands) under
    every label rule, with the token crossing nodes between epochs."""

    @pytest.mark.parametrize("mode", [
        {}, {"timed": True}, {"forgetting": False}],
        ids=["untimed", "timed", "highwater"])
    @pytest.mark.parametrize("flowchart", library.dynamic_policy_suite(),
                             ids=lambda flowchart: flowchart.name)
    def test_rows_match_serial(self, flowchart, mode):
        # allow(1) leaves x2 out, so the notices and their epoch tags
        # depend on where each policy change and downgrade ran.
        reference = serial_reference(flowchart, (2, 2), (1,), **mode)
        result = run_distributed(flowchart, (2, 2), (1,), nodes=2, **mode)
        assert result.row() == reference
