"""Deterministic chaos: seeded fault plans for sweep hardening tests.

A *fault plan* is the one source of injected faults for the
retry/degradation machinery in :mod:`repro.verify.parallel`: a seeded,
deterministic schedule that the sweep consults at submit time (worker
crash, delay, lost chunk, through :meth:`FaultPlan.decide`) and per grid
point (poison → ``MemoryError``, through :meth:`FaultPlan.poisons`), so
robustness tests and the CI chaos job can describe a whole failure
scenario as one picklable value.  The sweep reads the installed plan
once, when it is planned.

Determinism is the point.  Every decision is a pure function of
``(seed, pair, chunk, attempt)`` — hashed, not drawn from a shared RNG —
so the same plan produces the same faults whether chunks are submitted
from one thread or sixteen, and a process-pool worker (which receives
the plan inside the sweep's plan, once) reaches the same verdicts as
the parent.  A poisoned *point* crashes every time it is evaluated, in any
executor, which is exactly the behaviour the quarantine bisection needs
to isolate it.

Fault kinds
-----------
``crash``
    The chunk attempt raises before evaluating (a simulated worker
    crash); the sweep's retry ladder handles it.
``delay``
    The chunk attempt sleeps ``delay_seconds`` first (for exercising
    ``chunk_timeout`` and checkpoint-mid-flight scenarios).
``lost``
    The chunk attempt sleeps ``lost_seconds`` — long enough that only a
    ``chunk_timeout`` recovers it (a simulated lost/hung worker).
``poison``
    Named grid points raise :class:`MemoryError` when evaluated —
    deterministic OOM-style crashes the quarantine bisection must
    totalize into ``Λ!crash[MemoryError]`` notices.

Message faults (the distributed runtime)
----------------------------------------
:mod:`repro.dist` consults the same plan per message *attempt* via
:meth:`FaultPlan.decide_message` — pure in ``(seed, channel, seq,
attempt)``, so a retransmitted envelope redraws its fate but a replayed
run redraws identically.  Priority: corrupt beats drop beats dup beats
delay (one fault per attempt).

``corrupt``
    The envelope's payload checksum is damaged in flight; the receiver
    must totalize it as a ``Λ!msg[corrupt:CH#SEQ]`` notice, never a
    silent wrong answer.
``drop``
    The envelope vanishes; at-least-once retransmission recovers it.
``dup``
    The envelope is delivered twice; ``(node, seq)`` dedup absorbs it.
``delay`` (``mdelay``)
    Delivery is postponed ``msg_delay_seconds`` — enough to reorder it
    behind later traffic, which seq-ordered consumption absorbs.
``kill``
    :meth:`FaultPlan.decide_kill` schedules a node crash after it
    accepts its *seq*-th envelope — fired only on incarnation 0 so
    checkpoint recovery always progresses.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..core.errors import ReproError

__all__ = ["FaultDecision", "FaultPlan", "MessageFault", "clear",
           "current_plan", "install", "jitter"]


def _roll(seed: int, *key) -> float:
    """A deterministic uniform draw in [0, 1) keyed by (seed, *key)."""
    digest = hashlib.sha256(
        ":".join([str(seed)] + [str(part) for part in key]).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def jitter(seed: int, *key) -> float:
    """Public deterministic uniform draw in [0, 1), keyed by (seed, *key).

    Backoff schedules (sweep retries, transport retransmits) use this to
    jitter their waits without losing replayability: same seed and key,
    same jitter, in any process.
    """
    return _roll(seed, *key)


class FaultDecision:
    """What a fault plan injects into one chunk attempt."""

    __slots__ = ("crash", "delay")

    def __init__(self, crash: bool = False, delay: float = 0.0) -> None:
        self.crash = crash
        self.delay = delay

    def __repr__(self) -> str:
        return f"FaultDecision(crash={self.crash}, delay={self.delay})"


class MessageFault:
    """What a fault plan injects into one message delivery attempt."""

    __slots__ = ("corrupt", "drop", "duplicate", "delay")

    def __init__(self, corrupt: bool = False, drop: bool = False,
                 duplicate: bool = False, delay: float = 0.0) -> None:
        self.corrupt = corrupt
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay

    def __bool__(self) -> bool:
        return (self.corrupt or self.drop or self.duplicate
                or self.delay > 0.0)

    def __repr__(self) -> str:
        return (f"MessageFault(corrupt={self.corrupt}, drop={self.drop}, "
                f"duplicate={self.duplicate}, delay={self.delay})")


class FaultPlan:
    """A seeded, deterministic schedule of injected sweep faults.

    ``crash``/``delay``/``lost`` are per-attempt probabilities in
    [0, 1]; ``poison_points`` is a collection of grid points (tuples)
    that raise :class:`MemoryError` whenever evaluated.  Instances are
    immutable plain data — picklable by construction, so they reach
    process-pool workers unchanged.
    """

    __slots__ = ("seed", "crash", "delay", "lost", "delay_seconds",
                 "lost_seconds", "poison_points", "msg_drop", "msg_dup",
                 "msg_corrupt", "msg_delay", "msg_delay_seconds", "kill")

    def __init__(self, seed: int = 0, crash: float = 0.0, delay: float = 0.0,
                 lost: float = 0.0, delay_seconds: float = 0.05,
                 lost_seconds: float = 5.0,
                 poison_points: Sequence[Tuple] = (),
                 msg_drop: float = 0.0, msg_dup: float = 0.0,
                 msg_corrupt: float = 0.0, msg_delay: float = 0.0,
                 msg_delay_seconds: float = 0.05,
                 kill: float = 0.0) -> None:
        for name, rate in (("crash", crash), ("delay", delay),
                           ("lost", lost), ("msg_drop", msg_drop),
                           ("msg_dup", msg_dup), ("msg_corrupt", msg_corrupt),
                           ("msg_delay", msg_delay), ("kill", kill)):
            if not 0.0 <= rate <= 1.0:
                raise ReproError(
                    f"chaos {name} rate must be in [0, 1]; got {rate}")
        if delay_seconds < 0 or lost_seconds < 0 or msg_delay_seconds < 0:
            raise ReproError("chaos delay/lost durations must be >= 0")
        self.seed = int(seed)
        self.crash = float(crash)
        self.delay = float(delay)
        self.lost = float(lost)
        self.delay_seconds = float(delay_seconds)
        self.lost_seconds = float(lost_seconds)
        self.msg_drop = float(msg_drop)
        self.msg_dup = float(msg_dup)
        self.msg_corrupt = float(msg_corrupt)
        self.msg_delay = float(msg_delay)
        self.msg_delay_seconds = float(msg_delay_seconds)
        self.kill = float(kill)
        self.poison_points: FrozenSet[Tuple] = frozenset(
            tuple(int(part) for part in point) for point in poison_points)

    def decide(self, pair: int, chunk: int, attempt: int) -> FaultDecision:
        """The injected fault (if any) for one chunk attempt.

        Pure in ``(seed, pair, chunk, attempt)``: resubmitting the same
        attempt from any thread or process yields the same decision.
        Priority: crash beats lost beats delay (one fault per attempt).
        """
        if self.crash and _roll(self.seed, "crash", pair, chunk,
                                attempt) < self.crash:
            return FaultDecision(crash=True)
        if self.lost and _roll(self.seed, "lost", pair, chunk,
                               attempt) < self.lost:
            return FaultDecision(delay=self.lost_seconds)
        if self.delay and _roll(self.seed, "delay", pair, chunk,
                                attempt) < self.delay:
            return FaultDecision(delay=self.delay_seconds)
        return FaultDecision()

    def poisons(self, point: Sequence[int]) -> bool:
        """Whether a grid point is scheduled to crash when evaluated."""
        return bool(self.poison_points) and tuple(point) in self.poison_points

    def decide_message(self, channel: str, seq: int,
                       attempt: int) -> MessageFault:
        """The injected fault (if any) for one message delivery attempt.

        Pure in ``(seed, channel, seq, attempt)``: the same envelope
        retransmitted from any incarnation of any node suffers the same
        fate.  Priority: corrupt beats drop beats dup beats delay (one
        fault per attempt).
        """
        if self.msg_corrupt and _roll(self.seed, "msg-corrupt", channel, seq,
                                      attempt) < self.msg_corrupt:
            return MessageFault(corrupt=True)
        if self.msg_drop and _roll(self.seed, "msg-drop", channel, seq,
                                   attempt) < self.msg_drop:
            return MessageFault(drop=True)
        if self.msg_dup and _roll(self.seed, "msg-dup", channel, seq,
                                  attempt) < self.msg_dup:
            return MessageFault(duplicate=True)
        if self.msg_delay and _roll(self.seed, "msg-delay", channel, seq,
                                    attempt) < self.msg_delay:
            return MessageFault(delay=self.msg_delay_seconds)
        return MessageFault()

    def decide_kill(self, node: int, seq: int) -> bool:
        """Whether node ``node`` crashes after accepting envelope ``seq``.

        Pure in ``(seed, node, seq)``.  The runtime consults this only on
        a node's first incarnation, so every scheduled crash is followed
        by a recovery that runs the schedule *off* — progress guaranteed.
        """
        return bool(self.kill) and _roll(self.seed, "kill", node,
                                         seq) < self.kill

    def __reduce__(self):
        return (_rebuild_plan, (self.seed, self.crash, self.delay, self.lost,
                                self.delay_seconds, self.lost_seconds,
                                tuple(sorted(self.poison_points)),
                                self.msg_drop, self.msg_dup,
                                self.msg_corrupt, self.msg_delay,
                                self.msg_delay_seconds, self.kill))

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, crash={self.crash}, "
                f"delay={self.delay}, lost={self.lost}, "
                f"drop={self.msg_drop}, dup={self.msg_dup}, "
                f"corrupt={self.msg_corrupt}, mdelay={self.msg_delay}, "
                f"kill={self.kill}, poison={sorted(self.poison_points)})")

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec string.

        Comma-separated ``key=value`` fields: ``seed``, ``crash``,
        ``delay``, ``lost`` (sweep-side rates), ``delay_s``/``lost_s``
        (seconds), message-side rates ``drop``/``dup``/``corrupt``/
        ``mdelay`` plus ``mdelay_s`` (seconds) and ``kill`` (node crash
        rate), and ``poison`` — grid points joined by ``+`` with
        coordinates joined by ``:``, e.g. ``poison=1:2+0:0``.

        >>> FaultPlan.parse("seed=3,crash=0.2,poison=1:2").crash
        0.2
        >>> FaultPlan.parse("seed=7,drop=0.3,dup=0.1").msg_drop
        0.3
        """
        fields: Dict[str, str] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ReproError(
                    f"chaos spec field {part!r} is not key=value")
            key, _, value = part.partition("=")
            fields[key.strip()] = value.strip()
        known = {"seed", "crash", "delay", "lost", "delay_s", "lost_s",
                 "poison", "drop", "dup", "corrupt", "mdelay", "mdelay_s",
                 "kill"}
        unknown = set(fields) - known
        if unknown:
            raise ReproError(
                f"unknown chaos spec fields {sorted(unknown)}; "
                f"known: {sorted(known)}")
        try:
            poison = tuple(
                tuple(int(coord) for coord in point.split(":"))
                for point in fields.get("poison", "").split("+") if point)
            return cls(
                seed=int(fields.get("seed", "0")),
                crash=float(fields.get("crash", "0")),
                delay=float(fields.get("delay", "0")),
                lost=float(fields.get("lost", "0")),
                delay_seconds=float(fields.get("delay_s", "0.05")),
                lost_seconds=float(fields.get("lost_s", "5.0")),
                poison_points=poison,
                msg_drop=float(fields.get("drop", "0")),
                msg_dup=float(fields.get("dup", "0")),
                msg_corrupt=float(fields.get("corrupt", "0")),
                msg_delay=float(fields.get("mdelay", "0")),
                msg_delay_seconds=float(fields.get("mdelay_s", "0.05")),
                kill=float(fields.get("kill", "0")),
            )
        except ValueError as error:
            raise ReproError(f"bad chaos spec {spec!r}: {error}") from None


def _rebuild_plan(seed, crash, delay, lost, delay_seconds, lost_seconds,
                  poison_points, msg_drop=0.0, msg_dup=0.0, msg_corrupt=0.0,
                  msg_delay=0.0, msg_delay_seconds=0.05, kill=0.0):
    return FaultPlan(seed=seed, crash=crash, delay=delay, lost=lost,
                     delay_seconds=delay_seconds, lost_seconds=lost_seconds,
                     poison_points=poison_points, msg_drop=msg_drop,
                     msg_dup=msg_dup, msg_corrupt=msg_corrupt,
                     msg_delay=msg_delay,
                     msg_delay_seconds=msg_delay_seconds, kill=kill)


#: The process-wide installed plan (None = no chaos).
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install (or, with None, clear) the process-wide fault plan."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Remove any installed fault plan."""
    install(None)


def current_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or None when chaos is off."""
    return _PLAN
