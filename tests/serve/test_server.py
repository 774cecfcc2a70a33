"""The served endpoints: CLI bit-identity, tenancy, and the soak test.

The contract under test is the ISSUE 8 acceptance list:

- /execute, /sweep, /lint, /explain answer **bit-identically** to
  their CLI twins — same values, same step counts, same ``Λ!…``
  notice strings, same JSON rows;
- two tenants with different fuel/value-cap budgets in one process
  each observe *their own* budget (the env-leak regression);
- N concurrent clients → zero dropped requests and a single-rooted
  span tree.
"""

import http.client
import json
import socket
import threading

import pytest

from repro import obs
from repro.serve import ServerConfig, TenantRegistry, serve_in_thread


def request(port, method, path, payload=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"}
                     if body else {})
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith(
                "application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    finally:
        conn.close()


@pytest.fixture
def server():
    handles = []

    def start(**config):
        handle = serve_in_thread(ServerConfig(port=0, **config))
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


def cli_stdout(capsys, argv):
    from repro.cli import main

    code = main(argv)
    return code, capsys.readouterr().out


class TestCliBitIdentity:
    def test_execute_matches_repro_run(self, server, capsys):
        handle = server()
        for library, inputs in [("mixer", [2, 3]), ("max", [7, 4]),
                                ("gcd", [12, 18]), ("parity", [9])]:
            status, body = request(handle.port, "POST", "/execute",
                                   {"library": library, "inputs": inputs})
            assert status == 200
            _, out = cli_stdout(capsys, ["run", "--library", library]
                                + [str(v) for v in inputs])
            assert out == (f"value: {body['value']}\n"
                           f"steps: {body['steps']}\n")

    def test_execute_notices_match_cli_error_text(self, server, capsys):
        """Λ!fuel[N] / Λ!cap[C] strings are the CLI's, verbatim."""
        handle = server()
        status, body = request(handle.port, "POST", "/execute",
                               {"library": "gcd", "inputs": [12, 18],
                                "fuel": 2})
        assert status == 200
        assert body["value"] is None
        assert body["notice"] == "Λ!fuel[2]"
        status, body = request(handle.port, "POST", "/execute",
                               {"library": "max", "inputs": [5000, 1],
                                "value_cap": 6})
        assert status == 200
        assert body["notice"] == "Λ!cap[6]"

    def test_execute_backends_agree(self, server):
        """The batch default and every scalar tier serve one answer."""
        handle = server()
        outcomes = set()
        for backend in (None, "compiled", "interpreted", "batch"):
            payload = {"library": "gcd", "inputs": [12, 18]}
            if backend:
                payload["backend"] = backend
            status, body = request(handle.port, "POST", "/execute",
                                   payload)
            assert status == 200
            outcomes.add((body["value"], body["steps"], body["notice"]))
        assert len(outcomes) == 1

    def test_sweep_rows_match_results_json(self, server, capsys,
                                           tmp_path):
        handle = server()
        status, body = request(
            handle.port, "POST", "/sweep",
            {"programs": ["max", "parity"], "mechanism": "surveillance",
             "low": 0, "high": 1, "backend": "compiled",
             "chunk_size": 64, "executor": "serial"})
        assert status == 200
        results = tmp_path / "rows.json"
        code, _ = cli_stdout(capsys, [
            "sweep", "--programs", "max,parity",
            "--mechanism", "surveillance", "--low", "0", "--high", "1",
            "--backend", "compiled", "--chunk-size", "64",
            "--executor", "serial", "--results-json", str(results)])
        assert code == 0
        assert body["rows"] == json.loads(results.read_text())
        assert body["unsound"] == 0

    def test_lint_matches_cli_json(self, server, capsys):
        handle = server()
        status, body = request(handle.port, "POST", "/lint",
                               {"library": "example7",
                                "policy": "allow(2)"})
        assert status == 200
        code, out = cli_stdout(capsys, ["lint", "--library", "example7",
                                        "--policy", "allow(2)", "--json"])
        expected = json.loads(out)
        assert code == expected["exit_code"] == body["exit_code"]
        assert self._strip_timing(body) == self._strip_timing(expected)

    @staticmethod
    def _strip_timing(payload):
        """Drop the per-pass wall-clock fields — the only part of a
        lint report that legitimately differs between two runs."""
        payload = json.loads(json.dumps(payload))
        for report in payload["reports"]:
            report.pop("pass_seconds", None)
            for stats in report.get("pass_stats", {}).values():
                stats.pop("seconds", None)
        return payload

    def test_explain_matches_cli_json(self, server, capsys):
        handle = server()
        for payload, argv in [
            ({"library": "mixer", "policy": "allow(1)",
              "inputs": [2, 3]},
             ["explain", "--library", "mixer", "--policy", "allow(1)",
              "--json", "2", "3"]),
            ({"library": "example7", "policy": "allow(2)",
              "static": True},
             ["explain", "--library", "example7", "--policy", "allow(2)",
              "--static", "--json"]),
        ]:
            status, body = request(handle.port, "POST", "/explain",
                                   payload)
            assert status == 200
            code, out = cli_stdout(capsys, argv)
            assert body["explanation"] == json.loads(out)
            assert body["violated"] == (code == 1)


class TestHttpSurface:
    def test_healthz_and_unknowns(self, server):
        handle = server()
        status, body = request(handle.port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = request(handle.port, "GET", "/nope")
        assert status == 404
        status, body = request(handle.port, "GET", "/execute")
        assert status == 405
        status, body = request(handle.port, "POST", "/healthz", {})
        assert status == 405

    def test_bad_json_and_bad_requests_never_500(self, server):
        handle = server()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=30)
        try:
            conn.request("POST", "/execute", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad_json"
        finally:
            conn.close()
        for payload in ({}, {"library": "nope", "inputs": []},
                        {"library": "max", "inputs": ["x"]},
                        {"library": "max", "inputs": [1, 2],
                         "backend": "gpu"}):
            status, body = request(handle.port, "POST", "/execute",
                                   payload)
            assert 400 <= status < 500, (payload, status, body)
            assert "error" in body

    def test_malformed_content_length_is_400(self, server):
        """A bogus Content-Length must answer the structured 400, not
        kill the connection with an uncaught ValueError."""
        handle = server()
        for bad in (b"abc", b"-5"):
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=30) as sock:
                sock.sendall(b"POST /execute HTTP/1.1\r\n"
                             b"Host: localhost\r\n"
                             b"Content-Length: " + bad + b"\r\n\r\n")
                sock.settimeout(30)
                data = b""
                while b"\r\n\r\n" not in data or not data.split(
                        b"\r\n\r\n", 1)[1]:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert data.startswith(b"HTTP/1.1 400"), (bad, data[:80])
            assert b"bad_request" in data

    def test_oversized_body_is_413(self, server):
        handle = server(max_body=128)
        status, body = request(
            handle.port, "POST", "/execute",
            {"library": "max", "inputs": [1, 2],
             "padding": "x" * 4096})
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_metrics_exposition(self, server):
        handle = server()
        request(handle.port, "POST", "/execute",
                {"library": "max", "inputs": [1, 2]})
        status, text = request(handle.port, "GET", "/metrics")
        assert status == 200
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_lanes_executed" in text
        assert "repro_serve_cache_responses_size" in text

    def test_response_cache_shares_across_requests(self, server):
        handle = server()
        first = request(handle.port, "POST", "/execute",
                        {"library": "max", "inputs": [3, 4]})
        second = request(handle.port, "POST", "/execute",
                         {"library": "max", "inputs": [3, 4]})
        assert first == second
        _, text = request(handle.port, "GET", "/metrics")
        hits = [line for line in text.splitlines()
                if line.startswith("repro_serve_execute_cache_hits")]
        assert hits and float(hits[0].split()[-1]) >= 1

    def test_coalesced_faults_count_like_scalar_runs(self, server):
        """A request that runs dry or breaks the cap moves its fault
        counter once, coalesced into a batch or run on its own."""
        from concurrent.futures import ThreadPoolExecutor

        handle = server()
        payloads = ([{"library": "gcd", "inputs": [12, 18 + i], "fuel": 2}
                     for i in range(3)]
                    + [{"library": "max", "inputs": [5000 + i, 1],
                        "value_cap": 6} for i in range(2)]
                    + [{"library": "max", "inputs": [1, 2]}])

        def counted(backend):
            with obs.observed(metrics=True, reset=True) as registry:
                with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                    bodies = list(pool.map(
                        lambda payload: request(
                            handle.port, "POST", "/execute",
                            dict(payload, backend=backend))[1],
                        payloads))
                counters = registry.snapshot()["counters"]
            assert [body["notice"] for body in bodies] == (
                ["Λ!fuel[2]"] * 3 + ["Λ!cap[6]"] * 2 + [None])
            return (counters.get("run.fuel_exhausted", 0),
                    counters.get("run.value_cap_exceeded", 0))

        assert counted("batch") == counted("compiled") == (3, 2)


class TestLibraryPrograms:
    def test_sweeps_reuse_compiled_library_programs(self, server, capsys,
                                                    tmp_path, monkeypatch):
        """/sweep takes its flowcharts from the one library lookup, so
        two sweeps over different grids compile each program once, and
        their rows are still the CLI's."""
        from collections import Counter

        from repro.flowchart import fastpath

        compiled = Counter()
        generate = fastpath.generate_source

        def counting(flowchart):
            compiled[flowchart.name] += 1
            return generate(flowchart)

        monkeypatch.setattr(fastpath, "generate_source", counting)
        fastpath.clear_caches()
        handle = server()
        bodies = {}
        for high in (1, 2):
            status, bodies[high] = request(
                handle.port, "POST", "/sweep",
                {"programs": ["max", "parity"], "low": 0, "high": high,
                 "executor": "serial"})
            assert status == 200
        assert len(compiled) == 2 and set(compiled.values()) == {1}, compiled
        for high, body in bodies.items():
            results = tmp_path / f"rows-{high}.json"
            code, _ = cli_stdout(capsys, [
                "sweep", "--programs", "max,parity", "--low", "0",
                "--high", str(high), "--backend", "batch",
                "--executor", "serial", "--results-json", str(results)])
            assert code == 0
            assert body["rows"] == json.loads(results.read_text())


class TestBatchSpans:
    def test_batch_span_names_its_flush_and_wait(self, server):
        """A lone /execute flushes on the next loop turn, whatever the
        window, and its trace says so."""
        sink = obs.RingBufferSink()
        obs.enable(metrics=False, sinks=[sink])
        try:
            handle = server(batch_window_ms=1000)
            status, body = request(handle.port, "POST", "/execute",
                                   {"library": "max", "inputs": [6, 9]})
            assert status == 200 and body["value"] == 9
            handle.stop()
        finally:
            obs.disable()
        spans = [event for event in sink.events("span_start")
                 if event["op"] == "batch"]
        assert [span["flushed_by"] for span in spans] == ["idle"]
        assert 0 <= spans[0]["waited_ms"] < 500


class TestTenancy:
    TENANTS = {"tenants": {
        "alice": {"value_cap": 6},
        "bob": {"value_cap": 12},
        "frugal": {"fuel": 2},
        "chatty": {"qps": 1, "burst": 1},
        "carol": {},
        "dave": {},
    }}

    def start(self, server):
        return server(tenants=TenantRegistry.from_dict(self.TENANTS))

    def test_two_tenants_see_their_own_cap_notices(self, server):
        """The PR8 env-leak regression: one process, two tenants,
        different Λ!cap[C] — impossible when the cap rides a process
        global."""
        handle = self.start(server)
        payload = {"library": "max", "inputs": [5000, 1]}
        _, alice = request(handle.port, "POST", "/execute",
                           dict(payload, tenant="alice"))
        _, bob = request(handle.port, "POST", "/execute",
                         dict(payload, tenant="bob"))
        assert alice["notice"] == "Λ!cap[6]"
        assert bob["notice"] == "Λ!cap[12]"

    def test_cache_hit_stamps_the_requesters_tenant(self, server):
        """Regression: the shared /execute cache stored the first
        requester's tenant name in the payload, so an identical-budget
        tenant got a hit labeled — and leaking — the other's name."""
        handle = self.start(server)
        payload = {"library": "max", "inputs": [8, 9]}
        _, first = request(handle.port, "POST", "/execute",
                           dict(payload, tenant="carol"))
        _, second = request(handle.port, "POST", "/execute",
                            dict(payload, tenant="dave"))
        assert first["tenant"] == "carol"
        assert second["tenant"] == "dave"
        # Same budgets, same program: everything but the stamp shared.
        assert ({k: v for k, v in first.items() if k != "tenant"}
                == {k: v for k, v in second.items() if k != "tenant"})

    def test_fuel_ceiling_and_notice(self, server):
        handle = self.start(server)
        status, body = request(handle.port, "POST", "/execute",
                               {"library": "gcd", "inputs": [12, 18],
                                "tenant": "frugal"})
        assert status == 200
        assert body["notice"] == "Λ!fuel[2]"
        status, body = request(handle.port, "POST", "/execute",
                               {"library": "gcd", "inputs": [12, 18],
                                "tenant": "frugal", "fuel": 50})
        assert status == 403
        assert body["error"]["code"] == "budget_exceeded"

    def test_unknown_tenant_rejected_in_closed_world(self, server):
        handle = self.start(server)
        status, body = request(handle.port, "POST", "/execute",
                               {"library": "max", "inputs": [1, 2],
                                "tenant": "mallory"})
        assert status == 403
        assert body["error"]["code"] == "unknown_tenant"

    def test_qps_limit_is_429(self, server):
        handle = self.start(server)
        payload = {"library": "max", "inputs": [1, 2], "tenant": "chatty"}
        statuses = [request(handle.port, "POST", "/execute", payload)[0]
                    for _ in range(3)]
        assert statuses[0] == 200
        assert 429 in statuses[1:]


class TestSoak:
    CLIENTS = 8
    REQUESTS = 20

    def test_concurrent_clients_zero_drops_single_rooted_spans(
            self, server, tmp_path):
        trace = tmp_path / "serve-trace.jsonl"
        sink = obs.JsonlSink(str(trace))
        obs.enable(metrics=True, sinks=[sink], reset=True)
        try:
            handle = server()
            failures = []

            def client(seed: int) -> None:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=60)
                try:
                    for i in range(self.REQUESTS):
                        a, b = (seed * 31 + i) % 50, (i * 7 + 3) % 50
                        conn.request(
                            "POST", "/execute",
                            body=json.dumps({"library": "max",
                                             "inputs": [a, b]}),
                            headers={"Content-Type":
                                     "application/json"})
                        response = conn.getresponse()
                        body = json.loads(response.read())
                        if response.status != 200:
                            failures.append((seed, i, response.status))
                        elif body["value"] != max(a, b):
                            failures.append((seed, i, body))
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append((seed, "exception", repr(error)))
                finally:
                    conn.close()

            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not failures, failures[:5]
            # A sweep under the same roof, so the span tree includes a
            # request > sweep > chunk chain, not just execute batches.
            status, body = request(
                handle.port, "POST", "/sweep",
                {"programs": ["parity"], "low": 0, "high": 1,
                 "executor": "serial"})
            assert status == 200
            handle.stop()
        finally:
            obs.disable()
            sink.close()

        events = obs.load_trace(str(trace))
        forest = obs.build_span_tree(events)
        assert forest.single_rooted, (
            f"{len(forest.roots)} roots: {forest.roots[:5]}")
        assert not forest.problems, forest.problems[:5]
        ops = {events_by_id["op"] for events_by_id in events
               if events_by_id.get("kind") == "span_start"}
        assert {"serve", "request", "batch"} <= ops
