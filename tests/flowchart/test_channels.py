"""send/recv boxes: syntax, validation, semantics, tier identity.

Typed channels are unbounded FIFO queues distinct from the variable
namespace; under surveillance each message carries its label (v̄ ∪ C̄
at the send site) inside the envelope.  The single-node interpreter is
the reference semantics the distributed runtime reproduces, so every
engine tier must agree with it bit-for-bit here.
"""

import pytest

from repro.core.errors import FlowchartError, MessageError
from repro.core.policy import allow
from repro.flowchart.batchpath import execute_batch
from repro.flowchart.boxes import RecvBox, SendBox
from repro.flowchart.builder import FlowchartBuilder
from repro.flowchart.dot import to_dot
from repro.flowchart.expr import var
from repro.flowchart.fastpath import execute_compiled
from repro.flowchart.interpreter import execute
from repro.flowchart.parser import parse_program, unparse_program
from repro.flowchart.structured import Recv, Send
from repro.surveillance.dynamic import surveil
from repro.surveillance.instrument import instrument

RELAY = """
program relay(x1, x2) {
    s := x1 + x2;
    send ch(s);
    recv ch(u);
    y := u * 2
}
"""


def compile_source(source):
    return parse_program(source).compile()


class TestSyntax:
    def test_parse_and_execute(self):
        assert execute(compile_source(RELAY), (3, 4)).value == 14

    def test_unparse_round_trips(self):
        text = unparse_program(parse_program(RELAY))
        assert "send ch(s);" in text
        assert "recv ch(u);" in text
        assert unparse_program(parse_program(text)) == text

    def test_structured_statements(self):
        program = parse_program(RELAY)
        send = next(s for s in program.body if isinstance(s, Send))
        recv = next(s for s in program.body if isinstance(s, Recv))
        assert (send.channel, send.variable) == ("ch", "s")
        assert (recv.channel, recv.variable) == ("ch", "u")
        assert repr(send) == "Send(ch(s))"
        assert repr(recv) == "Recv(ch(u))"


class TestValidation:
    def test_recv_into_input_rejected(self):
        with pytest.raises(FlowchartError, match="receives into input"):
            compile_source("program p(x1) { send ch(x1); recv ch(x1) }")

    def test_bad_channel_names_rejected(self):
        with pytest.raises(FlowchartError):
            SendBox("", "v", "next")
        with pytest.raises(FlowchartError):
            RecvBox("9ch", "v", "next")
        with pytest.raises(FlowchartError):
            SendBox("ch", "", "next")

    def test_structural_queries(self):
        flowchart = compile_source(RELAY)
        assert flowchart.has_channels()
        assert flowchart.channels() == ("ch",)
        assert len(flowchart.send_ids()) == 1
        assert len(flowchart.recv_ids()) == 1
        plain = compile_source("program p(x1) { y := x1 }")
        assert not plain.has_channels()
        assert plain.channels() == ()

    def test_dot_renders_channel_boxes(self):
        dot = to_dot(compile_source(RELAY))
        assert 'shape=cds, label="send ch(s)"' in dot
        assert 'shape=cds, label="recv ch(u)"' in dot


class TestBuilder:
    def test_builder_send_recv(self):
        builder = FlowchartBuilder(["x1"], name="loopback")
        builder.start()
        builder.assign("s", var("x1") * 2)
        builder.send("ch", "s")
        builder.recv("ch", "u")
        builder.assign("y", var("u") + 1)
        builder.halt()
        flowchart = builder.build()
        assert execute(flowchart, (5,)).value == 11
        assert flowchart.channels() == ("ch",)


class TestSemantics:
    def test_fifo_order(self):
        source = ("program p(x1) { send q(x1); t := x1 + 1; send q(t); "
                  "recv q(a); recv q(b); y := a * 100 + b }")
        assert execute(compile_source(source), (7,)).value == 708

    def test_empty_recv_is_declared_fault(self):
        with pytest.raises(MessageError) as excinfo:
            execute(compile_source("program p(x1) { recv q(u); y := u }"),
                    (1,))
        assert excinfo.value.detail == "empty:q"

    def test_channel_namespace_is_not_variable_namespace(self):
        # A channel named like a variable never aliases it.
        source = ("program p(x1) { s := x1; send s(s); s := 99; "
                  "recv s(u); y := u }")
        assert execute(compile_source(source), (7,)).value == 7

    def test_tiers_defer_to_interpreter(self):
        flowchart = compile_source(RELAY)
        reference = execute(flowchart, (3, 4))
        result = execute_compiled(flowchart, (3, 4))
        assert (result.value, result.steps) == (reference.value,
                                                reference.steps)
        lanes = execute_batch(flowchart, [(3, 4), (3, 4)])
        for lane in range(2):
            assert (lanes.value(lane), lanes.steps(lane)) == (
                reference.value, reference.steps)
        # Declared faults match across tiers too.
        empty = compile_source("program p(x1) { recv q(u); y := u }")
        for engine in (execute, execute_compiled,
                       lambda flowchart, point: execute_batch(
                           flowchart, [point])):
            with pytest.raises(MessageError) as excinfo:
                engine(empty, (1,))
            assert excinfo.value.detail == "empty:q"


class TestSurveillance:
    def test_envelope_label_is_value_join_pc(self):
        # The send runs under x2-control, so the envelope carries
        # {1} ∪ {2} and the receive learns both.
        source = ("program p(x1, x2) { if x2 == 0 { send ch(x1) } "
                  "else { send ch(x1) }; recv ch(u); y := u }")
        run = surveil(compile_source(source), (1, 0),
                      allowed=frozenset({1, 2}))
        assert run.labels["u"] == frozenset({1, 2})
        assert run.outcome == 1

    def test_recv_forgetting_replaces_label(self):
        source = ("program p(x1, x2) { u := x2; send ch(x1); "
                  "recv ch(u); y := u }")
        flowchart = compile_source(source)
        forgetting = surveil(flowchart, (5, 6), allowed=frozenset({1, 2}))
        assert forgetting.labels["u"] == frozenset({1})
        high_water = surveil(flowchart, (5, 6), allowed=frozenset({1, 2}),
                             forgetting=False)
        assert high_water.labels["u"] == frozenset({1, 2})

    def test_empty_recv_surveilled_is_same_fault(self):
        with pytest.raises(MessageError) as excinfo:
            surveil(compile_source("program p(x1) { recv q(u); y := u }"),
                    (1,), allowed=frozenset({1}))
        assert excinfo.value.detail == "empty:q"

    def test_instrument_rejects_channel_programs(self):
        with pytest.raises(FlowchartError, match="channel"):
            instrument(compile_source(RELAY), allow(1, 2, arity=2))
