"""Unit tests for the literal Section 3 instrumentation (rules 1-4)."""

import pytest

from repro.core import ProductDomain, allow, allow_none, is_violation
from repro.core.errors import ArityMismatchError
from repro.core.observability import VALUE_AND_TIME, VALUE_ONLY
from repro.flowchart import library
from repro.flowchart.boxes import AssignBox, DecisionBox, HaltBox
from repro.flowchart.interpreter import as_program, execute
from repro.robustness.faults import VALUE_CAP_ENV, reset_value_cap_cache
from repro.surveillance.dynamic import surveillance_mechanism
from repro.surveillance.instrument import (PC_LABEL, VIOLATION_FLAG,
                                           instrument,
                                           instrumented_mechanism,
                                           surveillance_variable)
from repro.verify import all_allow_policies

GRID2 = ProductDomain.integer_grid(0, 3, 2)


class TestInstrumentedStructure:
    def test_result_is_wellformed_flowchart(self):
        instrumented = instrument(library.forgetting_program(),
                                  allow(2, arity=2))
        # Validation ran in the constructor; basic shape checks:
        assert instrumented.arity == 2
        assert instrumented.halt_ids()

    def test_surveillance_variables_materialised(self):
        instrumented = instrument(library.forgetting_program(),
                                  allow(2, arity=2))
        names = instrumented.program_variables()
        assert surveillance_variable("x1") in names
        assert surveillance_variable("y") in names
        assert PC_LABEL in names
        assert VIOLATION_FLAG in names

    def test_rule2_pairs_label_update_with_assignment(self):
        """Each original assignment becomes (label update, assignment)."""
        original = library.mixer_program()
        instrumented = instrument(original, allow(1, 2, arity=2))
        originals = len(original.assignment_ids())
        halts = len(original.halt_ids())
        # Rule 1 init assignments, 2 per original assignment (rule 2),
        # and one `_viol := 1` per halt (rule 4).
        init_count = len(original.all_variables()) + 2  # + C̄ and _viol
        assert (len(instrumented.assignment_ids())
                == init_count + 2 * originals + halts)

    def test_rule4_halts_split(self):
        """Each original halt becomes a checked pair of halts."""
        original = library.mixer_program()
        instrumented = instrument(original, allow_none(2))
        assert len(instrumented.halt_ids()) == 2 * len(original.halt_ids())

    def test_violation_flag_in_final_environment(self):
        instrumented = instrument(library.forgetting_program(),
                                  allow(2, arity=2))
        accepted = execute(instrumented, (1, 0), capture_env=True)
        rejected = execute(instrumented, (1, 2), capture_env=True)
        assert accepted.env[VIOLATION_FLAG] == 0
        assert rejected.env[VIOLATION_FLAG] == 1

    def test_instrumented_preserves_value_on_accepting_runs(self):
        original = library.forgetting_program()
        instrumented = instrument(original, allow(2, arity=2))
        for point in GRID2:
            if execute(instrumented, point, capture_env=True).env[VIOLATION_FLAG] == 0:
                assert (execute(instrumented, point).value
                        == execute(original, point).value)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityMismatchError):
            instrument(library.forgetting_program(), allow(1, arity=3))


class TestEquivalenceWithDynamic:
    """The ablation: instrumentation and interpreter-level tracking are
    extensionally the same mechanism."""

    @pytest.mark.parametrize("timed, output_model, value_cap", [
        pytest.param(False, VALUE_ONLY, None, id="False"),
        pytest.param(True, VALUE_ONLY, None, id="True"),
        # A time-observable mechanism stamps notices Λ@t from a replay
        # of Q, which must run under the mechanism's own cap, not the
        # lower REPRO_VALUE_CAP default: 0..12 outgrows 3 bits.
        pytest.param(False, VALUE_AND_TIME, 64,
                     id="time-observable-explicit-cap"),
    ])
    def test_agreement_across_suite(self, timed, output_model, value_cap,
                                    monkeypatch):
        high = 2
        if value_cap is not None:
            monkeypatch.setenv(VALUE_CAP_ENV, "3")
            reset_value_cap_cache()
            high = 12
        try:
            for flowchart in library.paper_figures():
                domain = ProductDomain.integer_grid(0, high, flowchart.arity)
                program = as_program(flowchart, domain, output_model,
                                     value_cap=value_cap)
                for policy in all_allow_policies(flowchart.arity):
                    dynamic = surveillance_mechanism(
                        flowchart, policy, domain, output_model,
                        timed=timed, program=program, value_cap=value_cap)
                    literal = instrumented_mechanism(
                        flowchart, policy, domain, output_model,
                        timed=timed, program=program, value_cap=value_cap)
                    for point in domain:
                        dynamic_output = dynamic(*point)
                        literal_output = literal(*point)
                        assert (is_violation(dynamic_output)
                                == is_violation(literal_output)), (
                            flowchart.name, policy.name, point)
                        if (output_model.time_observable
                                or not is_violation(dynamic_output)):
                            assert dynamic_output == literal_output
        finally:
            monkeypatch.delenv(VALUE_CAP_ENV, raising=False)
            reset_value_cap_cache()

    def test_contract_holds(self):
        mechanism = instrumented_mechanism(library.forgetting_program(),
                                           allow(2, arity=2), GRID2)
        mechanism.check_contract()


class TestTimedInstrumentation:
    def test_timed_variant_halts_at_guard(self):
        instrumented = instrument(library.timing_loop(), allow_none(1),
                                  timed=True)
        result = execute(instrumented, (3,), capture_env=True)
        assert result.env[VIOLATION_FLAG] == 1
        # Early halt: far fewer boxes than the full loop would take.
        full = execute(instrument(library.timing_loop(), allow_none(1)),
                       (3,))
        assert result.steps < full.steps

    def test_timed_instrumented_is_itself_surveillable(self):
        """The instrumented flowchart is an ordinary flowchart — it can
        be instrumented again without error."""
        once = instrument(library.mixer_program(), allow(1, 2, arity=2))
        twice = instrument(once, allow(1, 2, arity=2))
        assert execute(twice, (1, 2)).value == execute(once, (1, 2)).value
