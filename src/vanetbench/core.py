"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams."""

import hashlib
from heapq import heappop, heappush

import numpy as np


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past."""


class SimulationFault(RuntimeError):
    """A handler raised during dispatch; carries time and target context."""

    def __init__(self, time: float, target: str, cause: BaseException):
        super().__init__(f"handler fault at t={time!r} in {target!r}: {cause!r}")
        self.time = time
        self.target = target
        self.cause = cause


class Event:
    """One scheduled callback. Equal fire times dispatch in ascending sequence order.
    `Simulator.schedule` sets every field, so that no `__init__` frame runs."""

    __slots__ = ("fire_time", "sequence", "target", "payload", "fired", "cancelled")


class Simulator:
    """Single-threaded event loop with a monotone virtual clock (seconds)."""

    def __init__(self):
        self.now = 0.0
        # heap keyed by (fire_time, sequence) tuples for C-level comparisons
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0

    def schedule(self, at: float, action, target: str = "") -> Event:
        """Schedule `action()` at absolute time `at`; returns a cancellable handle."""
        if at < self.now:
            raise SchedulingError(f"cannot schedule at t={at!r}, clock is {self.now!r}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event()
        ev.fire_time, ev.sequence, ev.payload = at, seq, action
        ev.target = target or getattr(action, "__qualname__", "?")
        ev.fired = ev.cancelled = False
        heappush(self._queue, (at, seq, ev))
        return ev

    def after(self, delay: float, action, target: str = "") -> Event:
        return self.schedule(self.now + delay, action, target)

    def cancel(self, handle: Event) -> bool:
        """True if the event was pending and is now removed; False otherwise."""
        if handle.fired or handle.cancelled:
            return False
        handle.cancelled = True
        return True

    def run_until(self, t_end: float) -> int:
        """Dispatch all events with fire_time <= t_end in order; clock ends at t_end."""
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end!r}) is before clock {self.now!r}")
        count = 0
        q = self._queue
        while q and q[0][0] <= t_end:
            at, _, ev = heappop(q)
            if ev.cancelled:
                continue
            self.now = at
            ev.fired = True
            try:
                ev.payload()
            except Exception as exc:
                raise SimulationFault(at, ev.target, exc) from exc
            count += 1
        self.now = t_end
        return count


class RngStreams:
    """Named independent random streams derived from one 64-bit master seed.

    Same (seed, label) always yields the identical sample sequence; distinct
    labels yield statistically independent streams, so adding draws on one
    stream never perturbs another.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        gen = self._streams.get(label)
        if gen is None:
            digest = hashlib.sha256(label.encode("utf-8")).digest()
            child = np.random.SeedSequence([self.seed, int.from_bytes(digest[:8], "big")])
            gen = np.random.default_rng(child)
            self._streams[label] = gen
        return gen
