"""Request validation: every malformed payload is a structured 4xx.

The parsers are the server's blast door — anything that gets past them
runs on worker threads, so a payload that raises anything *other* than
:class:`RequestError` here would become a served 500.  The corpus test
sweeps a pile of malformed payloads through every parser and asserts
the only way out is a RequestError with a stable code.
"""

import pytest

from repro.serve.schema import (MAX_GRID_SPAN, RequestError, parse_execute,
                                parse_explain, parse_lint, parse_sweep)

PARSERS = (parse_execute, parse_sweep, parse_lint, parse_explain)

#: Payloads that must be rejected by *every* parser.
UNIVERSALLY_BAD = (
    None,
    42,
    "a string",
    ["a", "list"],
    {},
    {"library": "max", "source": "program p(x1) { y := x1 }"},
    {"library": 7},
    {"library": "no-such-program"},
    {"source": "progam typo(x1) {"},
    {"source": ["not", "text"]},
)


class TestUniversalCorpus:
    @pytest.mark.parametrize("parser", PARSERS,
                             ids=lambda p: p.__name__)
    @pytest.mark.parametrize("payload", UNIVERSALLY_BAD,
                             ids=lambda p: repr(p)[:40])
    def test_malformed_payload_is_a_request_error(self, parser, payload):
        with pytest.raises(RequestError) as excinfo:
            parser(payload)
        error = excinfo.value
        assert error.status == 400
        assert error.code
        body = error.to_dict()
        assert body["error"]["code"] == error.code
        assert body["error"]["message"]


class TestExecute:
    def test_happy_path(self):
        request = parse_execute({"library": "max", "inputs": [1, 2],
                                 "fuel": 50, "value_cap": 8,
                                 "backend": "interp"})
        assert request.inputs == (1, 2)
        assert request.fuel == 50
        assert request.value_cap == 8
        assert request.backend == "interpreted"  # alias resolved
        assert request.tenant == "default"

    @pytest.mark.parametrize("payload,code", [
        ({"library": "max"}, "bad_inputs"),
        ({"library": "max", "inputs": "1,2"}, "bad_inputs"),
        ({"library": "max", "inputs": [1, True]}, "bad_inputs"),
        ({"library": "max", "inputs": [1]}, "bad_inputs"),  # arity 2
        ({"library": "max", "inputs": [1, 2], "fuel": 0}, "bad_fuel"),
        ({"library": "max", "inputs": [1, 2], "fuel": "9"}, "bad_fuel"),
        ({"library": "max", "inputs": [1, 2], "value_cap": -3},
         "bad_value_cap"),
        ({"library": "max", "inputs": [1, 2], "backend": "gpu"},
         "bad_backend"),
        ({"library": "max", "inputs": [1, 2], "tenant": ""}, "bad_tenant"),
    ])
    def test_rejections_carry_stable_codes(self, payload, code):
        with pytest.raises(RequestError) as excinfo:
            parse_execute(payload)
        assert excinfo.value.code == code

    def test_inline_source(self):
        request = parse_execute(
            {"source": "program p(x1) { y := x1 * 2 }", "inputs": [21]})
        assert request.flowchart.arity == 1


class TestSweep:
    def test_happy_path(self):
        request = parse_sweep({"programs": ["max", "parity"],
                               "mechanism": "program", "low": -1,
                               "high": 1})
        assert request.programs == ["max", "parity"]
        assert request.mechanism == "program"

    @pytest.mark.parametrize("payload,code", [
        ({"programs": []}, "bad_programs"),
        ({"programs": "max"}, "bad_programs"),
        ({"programs": ["max", 3]}, "bad_programs"),
        ({"programs": ["max", "nope"]}, "unknown_program"),
        ({"programs": ["max"], "mechanism": "oracle"}, "bad_mechanism"),
        ({"programs": ["max"], "low": 3, "high": 1}, "bad_grid"),
        ({"programs": ["max"], "low": 0, "high": MAX_GRID_SPAN + 1},
         "bad_grid"),
        ({"programs": ["max"], "executor": "fork"}, "bad_executor"),
        ({"programs": ["max"], "jobs": 0}, "bad_jobs"),
    ])
    def test_rejections_carry_stable_codes(self, payload, code):
        with pytest.raises(RequestError) as excinfo:
            parse_sweep(payload)
        assert excinfo.value.code == code

    def test_cache_key_excludes_schedule(self):
        """Rows are schedule-independent, so executor/jobs must not
        fragment the shared response cache."""
        serial = parse_sweep({"programs": ["max"], "executor": "serial",
                              "jobs": 1})
        threaded = parse_sweep({"programs": ["max"], "executor": "thread",
                                "jobs": 8})
        assert (serial.cache_key(100, None, "batch")
                == threaded.cache_key(100, None, "batch"))


class TestLintAndExplain:
    def test_lint_validates_policy_eagerly(self):
        with pytest.raises(RequestError) as excinfo:
            parse_lint({"library": "max", "policy": "allow(9)"})
        assert excinfo.value.code == "bad_policy"

    def test_lint_policy_is_optional(self):
        request = parse_lint({"library": "max"})
        assert request.policy_text is None

    @pytest.mark.parametrize("payload,code", [
        ({"library": "max"}, "bad_policy"),  # explain requires a policy
        ({"library": "max", "policy": "allow(1)"}, "bad_inputs"),
        ({"library": "max", "policy": "allow(1)", "inputs": [1, 2],
          "static": True}, "bad_inputs"),
        ({"library": "max", "policy": "allow(1)", "inputs": [1],
          "static": "yes"}, "bad_static"),
        ({"library": "max", "policy": "allow(1)", "inputs": [1, 2],
          "timed": 1}, "bad_timed"),
    ])
    def test_explain_rejections(self, payload, code):
        with pytest.raises(RequestError) as excinfo:
            parse_explain(payload)
        assert excinfo.value.code == code

    def test_explain_static_needs_no_inputs(self):
        request = parse_explain({"library": "max", "policy": "allow(1)",
                                 "static": True})
        assert request.inputs is None


class TestLibraryLookup:
    def test_every_endpoint_gets_one_flowchart_per_name(self):
        """A library program is built once per process; after its first
        interning it reaches the cache already fingerprinted."""
        from repro.serve.cache import ServeCache, flowchart_fingerprint

        first = parse_execute({"library": "gcd", "inputs": [4, 6]}).flowchart
        ServeCache().intern_flowchart(first)
        assert parse_lint({"library": "gcd"}).flowchart is first
        again = parse_explain({"library": "gcd", "policy": "allow(1)",
                               "inputs": [4, 6]}).flowchart
        assert again is first
        assert again._serve_fingerprint == flowchart_fingerprint(again)

    def test_unknown_names_are_never_cached(self):
        from repro.serve import schema

        with pytest.raises(RequestError) as excinfo:
            parse_execute({"library": "no-such-program", "inputs": []})
        assert excinfo.value.code == "unknown_program"
        assert "no-such-program" not in schema._LIBRARY_FLOWCHARTS
