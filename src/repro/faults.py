"""Deterministic, seedable fault injection for the whole runtime.

The paper's method makes failure modes *enumerable*: each exploit is a
finite sequence of elementary violations that can be walked
deliberately.  This module gives the runtime the same treatment — a
process-wide :class:`FaultPlan` of injection points that the hot seams
consult (cluster socket send/recv, worker chunk execution, serve
admission/batch dispatch, result-store appends), so a
fault *sequence* can be generated from a seed and replayed exactly.

Ambient like :func:`repro.cluster.coordinating`: install a plan with
:func:`install` / :func:`injecting` (or let the CLI do it from
``repro … --faults SPEC`` / ``REPRO_FAULTS=SPEC``) and every tap in the
process starts drawing decisions from it.  With no plan installed, a
tap is one function call that loads a module global and returns —
nothing allocates, nothing locks.

**Spec grammar** (one line, ``;``-separated clauses)::

    seed=42;cluster.send.drop:0.01;worker.chunk.hang:1@after=3@max=1@ms=500

* ``seed=N`` — the plan seed (default 0).  Everything downstream is a
  pure function of (seed, site, call ordinal).
* ``<site-glob>:<rate>`` — an injection rule.  ``site-glob`` is an
  :mod:`fnmatch` pattern over injection-site names (see the table in
  ``docs/API.md``); ``rate`` is the per-call fire probability in
  ``[0, 1]``.
* ``@after=N`` — skip the site's first N calls before arming.
* ``@max=N`` — fire at most N times, then disarm.
* ``@ms=F`` — effect magnitude in milliseconds for delay-shaped faults
  (``*.delay``, ``*.slow``, ``*.hang``).

**Determinism contract.**  Each site owns an RNG seeded from
``(seed, site)`` and a call ordinal counter.  The decision for a site's
k-th call is a pure function of the plan — two runs with the same spec
make identical decisions for every shared call prefix, regardless of
thread or process interleaving elsewhere.  (Sites whose call *count*
varies run-to-run — e.g. idle claim polls — still see the same decision
sequence; only the unreached tail differs.)

Injections are counted unconditionally on the plan
(:meth:`FaultPlan.snapshot` — the CLI ``--json`` ``faults`` block and
the chaos CI job read it) and mirrored to the obs registry as
``faults.injected.<site>`` counters plus ``fault.injected`` span events
when telemetry is enabled, so traces show exactly what was injected
where.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from fnmatch import fnmatchcase
from random import Random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .obs import DEFAULT as _OBS

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "parse_spec",
    "install",
    "get_plan",
    "injecting",
    "init_from_env",
    "fire",
    "sleep_ms",
    "snapshot",
    "ENV_VAR",
]

ENV_VAR = "REPRO_FAULTS"


class FaultSpecError(ValueError):
    """A ``--faults`` / ``REPRO_FAULTS`` spec that does not parse."""


class InjectedFault(RuntimeError):
    """Raised by taps whose fault shape is "crash here".

    Deliberately a :class:`RuntimeError`: recovery paths must treat an
    injected crash exactly like a real one.
    """


class FaultRule:
    """One armed injection rule: which sites, how often, how hard."""

    __slots__ = ("pattern", "rate", "after_n", "max_n", "ms")

    def __init__(self, pattern: str, rate: float, *, after_n: int = 0,
                 max_n: Optional[int] = None, ms: float = 100.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise FaultSpecError(
                f"rate must be in [0, 1], got {rate!r} for {pattern!r}")
        if after_n < 0:
            raise FaultSpecError(f"@after must be >= 0, got {after_n}")
        if max_n is not None and max_n < 0:
            raise FaultSpecError(f"@max must be >= 0, got {max_n}")
        if ms < 0:
            raise FaultSpecError(f"@ms must be >= 0, got {ms}")
        self.pattern = pattern
        self.rate = rate
        self.after_n = after_n
        self.max_n = max_n
        self.ms = ms

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.pattern)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extras = []
        if self.after_n:
            extras.append(f"@after={self.after_n}")
        if self.max_n is not None:
            extras.append(f"@max={self.max_n}")
        extras.append(f"@ms={self.ms:g}")
        return f"FaultRule({self.pattern}:{self.rate:g}{''.join(extras)})"


def parse_spec(text: str) -> "FaultPlan":
    """Parse the one-line spec grammar into a :class:`FaultPlan`."""
    seed = 0
    rules: List[FaultRule] = []
    for raw_clause in text.split(";"):
        clause = raw_clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise FaultSpecError(f"seed must be an integer: {clause!r}")
            continue
        pattern, sep, rest = clause.partition(":")
        if not sep or not pattern:
            raise FaultSpecError(
                f"clause {clause!r} is not 'seed=N' or "
                f"'<site-glob>:<rate>[@after=N][@max=N][@ms=F]'")
        parts = rest.split("@")
        try:
            rate = float(parts[0])
        except ValueError:
            raise FaultSpecError(
                f"rate in {clause!r} must be a float in [0, 1]")
        after_n, max_n, ms = 0, None, 100.0
        for option in parts[1:]:
            key, osep, value = option.partition("=")
            if not osep:
                raise FaultSpecError(
                    f"option {option!r} in {clause!r} must be key=value")
            try:
                if key == "after":
                    after_n = int(value)
                elif key == "max":
                    max_n = int(value)
                elif key == "ms":
                    ms = float(value)
                else:
                    raise FaultSpecError(
                        f"unknown option @{key} in {clause!r} "
                        f"(known: @after, @max, @ms)")
            except ValueError:
                raise FaultSpecError(
                    f"@{key} in {clause!r} needs a numeric value, "
                    f"got {value!r}")
        rules.append(FaultRule(pattern.strip(), rate, after_n=after_n,
                               max_n=max_n, ms=ms))
    return FaultPlan(rules, seed=seed)


class FaultPlan:
    """A seeded set of injection rules plus per-site decision state.

    Thread-safe: taps fire from coordinator connection threads, worker
    slot threads, and the serve executor concurrently.  All state that
    decisions depend on (ordinals, RNG streams, fire counts) lives
    behind one lock, so the k-th call at a site sees the k-th decision
    no matter which thread makes it.
    """

    def __init__(self, rules: List[FaultRule], *, seed: int = 0) -> None:
        self.seed = seed
        self.rules = list(rules)
        self._lock = threading.Lock()
        self._ordinals: Dict[str, int] = {}
        self._rngs: Dict[str, Random] = {}
        self._matched: Dict[str, List[Tuple[int, FaultRule]]] = {}
        self._fired: Dict[int, int] = {}
        #: site → times a fault actually fired (kept unconditionally).
        self.injected: Dict[str, int] = {}

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        return parse_spec(text)

    def _site_rules(self, site: str) -> List[Tuple[int, FaultRule]]:
        matched = self._matched.get(site)
        if matched is None:
            matched = [(index, rule)
                       for index, rule in enumerate(self.rules)
                       if rule.matches(site)]
            self._matched[site] = matched
        return matched

    def check(self, site: str) -> Optional[FaultRule]:
        """One call at ``site``: the rule that fires, or ``None``.

        Rules are consulted in spec order; each matching rule consumes
        one draw from the site's RNG stream per call (fired or not), so
        the decision sequence is reproducible independent of which
        rules hit their ``@max`` budget first.
        """
        with self._lock:
            matched = self._site_rules(site)
            if not matched:
                return None
            ordinal = self._ordinals.get(site, 0)
            self._ordinals[site] = ordinal + 1
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = Random(f"{self.seed}:{site}")
            winner: Optional[Tuple[int, FaultRule]] = None
            for index, rule in matched:
                draw = rng.random()
                if winner is not None:
                    continue  # keep draining draws for determinism
                if ordinal < rule.after_n:
                    continue
                if rule.max_n is not None \
                        and self._fired.get(index, 0) >= rule.max_n:
                    continue
                if draw < rule.rate:
                    winner = (index, rule)
            if winner is None:
                return None
            index, rule = winner
            self._fired[index] = self._fired.get(index, 0) + 1
            self.injected[site] = self.injected.get(site, 0) + 1
        if _OBS.enabled:
            _OBS.incr(f"faults.injected.{site}")
            _OBS.event("fault.injected", site=site, rate=rule.rate,
                       ms=rule.ms)
        return rule

    def snapshot(self) -> Dict[str, Any]:
        """Seed + per-site injected counts (the ``faults`` JSON block)."""
        with self._lock:
            return {"seed": self.seed,
                    "rules": len(self.rules),
                    "injected": dict(self.injected),
                    "total_injected": sum(self.injected.values())}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(seed={self.seed}, rules={self.rules!r})"


# ---------------------------------------------------------------------------
# The ambient plan (mirrors repro.cluster's ambient coordinator handle).
# ---------------------------------------------------------------------------

_PLAN_LOCK = threading.Lock()
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or clear, with ``None``) the process-ambient fault
    plan.  Returns the previous plan."""
    global _PLAN
    with _PLAN_LOCK:
        previous = _PLAN
        _PLAN = plan
        return previous


def get_plan() -> Optional[FaultPlan]:
    """The ambient plan, or ``None`` when injection is off."""
    return _PLAN


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope the ambient plan (tests and the chaos suite)."""
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)


def init_from_env(environ: Optional[Dict[str, str]] = None
                  ) -> Optional[FaultPlan]:
    """Install a plan from ``REPRO_FAULTS`` if the variable is set.

    The hook worker agents and spawned subprocesses use — the CLI
    exports the flag value into the environment so ``repro worker``
    children inherit the same spec.
    """
    env = os.environ if environ is None else environ
    spec = env.get(ENV_VAR)
    if not spec:
        return None
    plan = parse_spec(spec)
    install(plan)
    return plan


def fire(site: str) -> Optional[FaultRule]:
    """The tap: the rule firing at ``site`` for this call, or ``None``.

    The zero-cost-disabled path: one global load and one ``is None``
    test when no plan is installed.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.check(site)


def sleep_ms(rule: FaultRule) -> None:
    """Apply a delay-shaped rule's magnitude (used by ``*.delay`` /
    ``*.slow`` / ``*.hang`` effect sites)."""
    if rule.ms > 0:
        time.sleep(rule.ms / 1000.0)


def snapshot() -> Optional[Dict[str, Any]]:
    """The ambient plan's :meth:`FaultPlan.snapshot`, or ``None``."""
    plan = _PLAN
    return None if plan is None else plan.snapshot()
