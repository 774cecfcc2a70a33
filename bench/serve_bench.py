"""The serve workload: ``repro serve`` under open-loop /execute traffic.

The server runs as its own process on its defaults (batch tier,
4096-entry response cache, 2 ms coalescing window) with an audit
ledger.  The load generator (:mod:`loadgen`) runs in this process on
one event loop with ``CONNECTIONS`` keep-alive connections.

Traffic: nine library programs.  Half the requests repeat one of 64
hot keys (response-cache hits); the rest are cold draws -- straight-line
programs take inputs in [0, 9999], loop programs in [0, 99], because a
single batch lane of countdown-pair(9999) takes 166 ms and
parity(9999) 48 ms, which would turn every cold loop draw into a stall.
5 % of requests carry ``"fuel": 40`` and so take the ``Λ!fuel`` path.

Phases: a warm-up (not recorded), then ``measured`` at a fixed Poisson
rate for the whole measured time.  Cache hits (about 1 ms) and misses
(about 5 ms) each make up about half the traffic, so the median of all
requests falls between the two modes and jumps from one to the other
from run to run.  ``p50_ms`` is therefore the median of the misses --
requests whose key the server has not been sent before -- and the hits'
median and share are printed beside it.  ``throughput_per_s`` counts
every measured request per second of server CPU.  Both are normalised to
reference host speed by a :mod:`calibrate` probe.  Every response is
checked against the interpreted tier after the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import calibrate
from loadgen import OpenLoopClient, Outcome, percentile, poisson_schedule
from loadgen import run
from tracing import OTHER, with_child

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROGRAMS = ("max", "min", "gcd", "forgetting", "mixer", "parity",
            "nested-branch", "accumulate", "countdown-pair")
LOOP_PROGRAMS = frozenset({"gcd", "parity", "accumulate", "countdown-pair"})
STRAIGHT_MAX = 9999
LOOP_MAX = 99
HOT_KEYS = 64
HOT_SHARE = 0.5
LOW_FUEL = 40
LOW_FUEL_SHARE = 0.05

CONNECTIONS = min(2, os.cpu_count() or 1)
#: Offered load.  At 300 rps the server used about 40 % of a CPU, and
#: when other tenants of the host took the VM's CPUs for minutes (steal
#: time) it saturated: p50 reached seconds.  At 150 rps latency is the
#: same as at 300 in quiet periods, and the server keeps twice the
#: headroom in busy ones.
RATE_RPS = 150.0
WARMUP_S = 2.0
#: The server's coalescing window (its default, passed explicitly).
WINDOW_MS = 2.0

Key = Tuple[str, Tuple[int, ...], Optional[int]]


class RequestMix:
    """Seeded /execute requests: (program, inputs, fuel or None)."""

    def __init__(self, seed: int, arities: Dict[str, int]) -> None:
        self.arities = arities
        rng = random.Random(f"serve-hot:{seed}")
        self.hot = [self._cold(rng) for _ in range(HOT_KEYS)]

    def _cold(self, rng: random.Random) -> Tuple[str, Tuple[int, ...]]:
        name = rng.choice(PROGRAMS)
        top = LOOP_MAX if name in LOOP_PROGRAMS else STRAIGHT_MAX
        return name, tuple(rng.randint(0, top)
                           for _ in range(self.arities[name]))

    def draw(self, rng: random.Random) -> Key:
        name, inputs = (rng.choice(self.hot) if rng.random() < HOT_SHARE
                        else self._cold(rng))
        fuel = LOW_FUEL if rng.random() < LOW_FUEL_SHARE else None
        return name, inputs, fuel


def encode(key: Key) -> bytes:
    name, inputs, fuel = key
    payload = {"library": name, "inputs": list(inputs)}
    if fuel is not None:
        payload["fuel"] = fuel
    return json.dumps(payload).encode()


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+) \[backend=\S+ "
                        r"fuel=(\d+) value_cap=(\S+)\]")


class Server:
    """One ``repro serve`` child process (optionally traced)."""

    def __init__(self, work: str, name: str, traced: bool = False) -> None:
        self.ledger = os.path.join(work, f"{name}.ledger")
        self.spans = os.path.join(work, f"{name}.spans.json") if traced \
            else None
        self.log_path = os.path.join(work, f"{name}.log")
        self.process: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait until it listens; returns the spawn time."""
        if self.spans is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable,
                       os.path.join(ROOT, "bench", "serve_traced.py"),
                       "--spans", self.spans, "--"]
        command += ["--port", "0", "--audit", self.ledger,
                    "--batch-window-ms", str(WINDOW_MS)]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        with open(self.log_path, "wb") as log:
            spawned = time.monotonic()
            self.process = subprocess.Popen(command, cwd=ROOT, env=env,
                                            stdout=subprocess.PIPE,
                                            stderr=log)
        match = _LISTENING.search(self._first_line(timeout))
        if match is None:
            raise RuntimeError(f"unexpected server banner; see "
                               f"{self.log_path}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.fuel = int(match.group(3))
        cap = match.group(4)
        self.value_cap = None if cap == "None" else int(cap)
        return spawned

    def _first_line(self, timeout: float) -> str:
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + timeout
        data = b""
        while b"\n" not in data:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError(f"server did not listen within "
                                   f"{timeout}s; see {self.log_path}")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited before listening; see "
                                   f"{self.log_path}")
            data += chunk
        return data.split(b"\n", 1)[0].decode()

    def cpu_seconds(self) -> float:
        """User plus system CPU the server has used so far."""
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Traffic:
    """Phases of seeded traffic on one client and server; logs every
    request."""

    def __init__(self, client: OpenLoopClient, mix: RequestMix,
                 seed: int) -> None:
        self.client = client
        self.mix = mix
        self.seed = seed
        self.log: List[Tuple[Key, Outcome]] = []
        self.sent: Set[Key] = set()

    async def probe(self) -> Outcome:
        key = self.mix.hot[0] + (None,)
        (outcome,) = await self.client.run([0.0], [encode(key)], lead=0.0)
        self.log.append((key, outcome))
        self.sent.add(key)
        return outcome

    async def phase(self, name: str, rate: float,
                    duration: float) -> Tuple[List[Outcome], List[Outcome]]:
        """Run one phase; returns all its outcomes and the misses among
        them: the first request of each key the server has not been sent
        before, which its response cache cannot answer."""
        rng = random.Random(f"serve:{self.seed}:{name}")
        offsets = poisson_schedule(rate, duration, rng)
        keys = [self.mix.draw(rng) for _ in offsets]
        outcomes = await self.client.run(offsets, [encode(k) for k in keys])
        self.log.extend(zip(keys, outcomes))
        misses = []
        for key, outcome in zip(keys, outcomes):
            if key not in self.sent:
                self.sent.add(key)
                misses.append(outcome)
        return outcomes, misses


def latencies_ms(outcomes: Sequence[Outcome]) -> List[float]:
    return [1000.0 * o.latency for o in outcomes]


def check(log: Sequence[Tuple[Key, Outcome]], server: Server) -> List[str]:
    """Compare every response with the interpreted tier; returns one
    problem string per failed request."""
    from repro.cli import LIBRARY
    from repro.serve.batcher import execute_point_outcome

    flowcharts, expected, problems = {}, {}, []
    for key, outcome in log:
        name, inputs, fuel = key
        fuel = fuel or server.fuel
        if outcome.status != 200:
            problems.append(f"{key}: HTTP status {outcome.status}")
            continue
        if key not in expected:
            if name not in flowcharts:
                flowcharts[name] = LIBRARY[name]()
            expected[key] = execute_point_outcome(
                flowcharts[name], inputs, fuel, server.value_cap,
                "interpreted")
        try:
            response = json.loads(outcome.body)
        except ValueError:
            problems.append(f"{key}: response is not JSON")
            continue
        want = dict(expected[key], inputs=list(inputs), fuel=fuel)
        got = {field: response.get(field) for field in want}
        if got != want:
            problems.append(f"{key}: got {got}, want {want}")
    return problems


def _arities() -> Dict[str, int]:
    from repro.cli import LIBRARY
    return {name: LIBRARY[name]().arity for name in PROGRAMS}


def _cold_start(work: str, index: int, mix: RequestMix, seed: int):
    """Reference seconds from spawn to the first correct response."""
    before = calibrate.speed()
    with Server(work, f"cold{index}") as server:
        spawned = server.start()

        async def session():
            client = OpenLoopClient(server.host, server.port, 1)
            traffic = Traffic(client, mix, seed)
            try:
                outcome = await traffic.probe()
            finally:
                await client.close()
            return outcome, traffic.log

        outcome, log = run(session())
        setup = calibrate.normalize([outcome.done - spawned],
                                    [before, calibrate.speed()])[0]
        return setup, check(log, server)


def measure(seed: int, seconds: float, trace: bool, cold_starts: int,
            work: str) -> Dict:
    """One run of serve_execute; see ``run.py`` for the contract."""
    mix = RequestMix(seed, _arities())
    warmup = min(WARMUP_S, 0.1 * seconds)
    if trace:
        return _measure_traced(mix, seed, seconds, warmup, work)
    setups, problems = [], []
    for index in range(cold_starts):
        setup, found = _cold_start(work, index, mix, seed)
        setups.append(setup)
        problems += found
    probe_path = os.path.join(work, "probe.json")

    with Server(work, "main") as server:
        server.start()

        async def session():
            client = OpenLoopClient(server.host, server.port, CONNECTIONS)
            traffic = Traffic(client, mix, seed)
            probe = subprocess.Popen(
                [sys.executable, calibrate.__file__, "--probe", probe_path])
            try:
                await traffic.probe()
                await traffic.phase("warmup", RATE_RPS, warmup)
                cpu = server.cpu_seconds()
                measured, misses = await traffic.phase("measured", RATE_RPS,
                                                         seconds)
                cpu = server.cpu_seconds() - cpu
            finally:
                probe.terminate()
                probe.wait()
                await client.close()
            return measured, misses, cpu, traffic.log

        measured, misses, cpu, log = run(session())
        peak = server.peak_rss_mb()
    problems += check(log, server)
    kernel_wall, kernel_cpu = calibrate.probe_mean(
        probe_path, measured[0].due, max(o.done for o in measured))
    all_ms, miss_ms = latencies_ms(measured), latencies_ms(misses)
    missed = set(map(id, misses))
    hit_ms = latencies_ms([o for o in measured if id(o) not in missed])
    return {
        "attempted": len(log) + cold_starts,
        "failed": len(problems),
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
            "p50_ms": reference_latency(statistics.median(miss_ms),
                                        kernel_wall),
            "throughput_per_s": (len(measured) * kernel_cpu
                                 / (cpu * calibrate.NOMINAL_S)),
        },
        "reference": {
            "requests": len(all_ms),
            "miss_share": len(miss_ms) / len(all_ms),
            "miss_p50_ms": statistics.median(miss_ms),
            "hit_p50_ms": statistics.median(hit_ms),
            "p90_ms": percentile(all_ms, 90),
            "p99_ms": percentile(all_ms, 99),
            "server_cpu_ms_per_request": 1000.0 * cpu / len(measured),
            "kernel_wall_ms": kernel_wall * 1000,
            "kernel_cpu_ms": kernel_cpu * 1000,
            "gen_lag_p99_ms": 1000.0 * percentile(
                [o.lag for _, o in log], 99),
        },
    }


def reference_latency(measured_ms: float, kernel: float) -> float:
    """A latency in reference milliseconds.

    The coalescing window is a timer and takes the same wall time on a
    slow host; the rest of a request's latency (parsing, execution,
    thread hand-offs, the client) stretches with the host's speed.  Only
    that rest is scaled by the probe's kernel wall time, which, unlike
    its CPU time, also stretches when other tenants take the CPUs.
    """
    window = min(measured_ms, WINDOW_MS)
    return window + (measured_ms - window) * calibrate.NOMINAL_S / kernel


def _measured_run(server: Server, mix: RequestMix, seed: int,
                  warmup: float, duration: float):
    server.start()

    async def session():
        client = OpenLoopClient(server.host, server.port, CONNECTIONS)
        traffic = Traffic(client, mix, seed)
        try:
            await traffic.probe()
            await traffic.phase("warmup", RATE_RPS, warmup)
            # Let the warm-up's batches and audit drain settle, so no
            # server span straddles the start of the measured window.
            await asyncio.sleep(0.3)
            measured, misses = await traffic.phase("measured", RATE_RPS,
                                                   duration)
        finally:
            await client.close()
        return measured, misses, traffic.log

    return run(session())


def _measure_traced(mix: RequestMix, seed: int, seconds: float,
                    warmup: float, work: str) -> Dict:
    duration = 0.5 * seconds
    with Server(work, "plain") as server:
        plain, plain_misses, log = _measured_run(server, mix, seed,
                                                 warmup, duration)
        problems = check(log, server)
    with Server(work, "traced", traced=True) as server:
        traced, traced_misses, traced_log = _measured_run(
            server, mix, seed, warmup, duration)
        problems += check(traced_log, server)
    with open(server.spans, encoding="utf-8") as handle:
        spans = [tuple(span) for span in json.load(handle)]
    metrics = breakdown(spans, traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(latencies_ms(traced_misses))
        / statistics.median(latencies_ms(plain_misses)) - 1)
    metrics["serve.gen_lag_ms"] = 1000.0 * percentile(
        [o.lag for o in plain + traced], 99)
    return {"attempted": len(log) + len(traced_log),
            "failed": len(problems), "problems": problems,
            "metrics": metrics,
            "reference": {"requests": len(traced)}}


def breakdown(spans, outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Split the summed client latency of ``outcomes`` among layers.

    Server spans inside the phase's window are summed per layer; a
    request awaits its whole batch, so an execute_batch call of L lanes
    counts L times.  The residual is ``other``.  Compilations happen on
    the first request for each program, before the window; the compile
    metrics count them over the server's whole life.
    """
    start = min(o.due for o in outcomes)
    end = max(o.done for o in outcomes)
    inside = [s for s in spans if s[1] >= start and s[2] <= end]
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    work: Dict[str, int] = defaultdict(int)
    for layer, begun, ended, _, count, _ in inside:
        seconds[layer] += ended - begun
        calls[layer] += 1
        work[layer] += count
    awaited = sum(s[4] * (s[2] - s[1]) for s in inside
                  if s[0] == "flowchart.execute")
    executed = with_child(inside, "flowchart.execute", "flowchart.compile")
    compiled = [s for s in spans if s[0] == "flowchart.compile" and s[4]]
    total = sum(o.latency for o in outcomes)
    parts = {
        "serve.queue": sum(o.queue for o in outcomes),
        "serve.schema": seconds["serve.schema"],
        "serve.tenants": seconds["serve.tenants"],
        "serve.cache": seconds["serve.cache"] + seconds["serve.cache.get"],
        "serve.batcher": seconds["serve.batcher"] - awaited,
        "flowchart.execute": awaited,
        "serve.audit_stage": seconds["serve.audit_stage"],
        "serve.encode": seconds["serve.encode"],
    }
    parts[OTHER] = total - sum(parts.values())
    requests = len(outcomes)
    metrics = {f"{name}.self_pct": 100.0 * value / total
               for name, value in parts.items()}
    metrics.update({
        "trace.wall_ms": 1000.0 * total / requests,
        "serve.audit_drain.busy_pct": (100.0 * seconds["obs.audit_append"]
                                       / (end - start)),
        "serve.cache.hit_ratio": (work["serve.cache.get"]
                                  / max(1, calls["serve.cache.get"])),
        "flowchart.batch_lanes": (sum(span[4] for span, _ in executed)
                                  / max(1, len(executed))),
        "flowchart.compile_ms": 1000.0 * sum(s[2] - s[1] for s in compiled),
        "flowchart.compilations": len(compiled),
        "obs.audit_records": work["obs.audit_append"] / requests,
    })
    return metrics
