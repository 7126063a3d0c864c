"""Host-speed probe: scales host times to a fixed reference speed.

The reference box is a 2-vCPU VM shared with other tenants. Its speed flips
between two levels about a third apart every few hundred milliseconds, and the
share of time it spends at each level drifts over minutes. Raw host seconds of
the same work therefore differ by up to 75 % between sets of runs a quarter of
an hour apart. A fixed pure-Python loop slows down and speeds up with the
simulator.

`SpeedProbe` times that loop at most every `PROBE_GAP_S` of host time during a
run. The loop is the benchmark's own code, so a change to the simulator does
not change it. Each stretch of host time between two probes is scaled by
`REFERENCE_S` ÷ (the probe's time at its end). The sum is in reference
seconds: the time the work would have taken had the host run at the
reference speed throughout. The time spent in the probes themselves is
counted apart, so that it can be taken out of the run's time.
"""

import time

REFERENCE_S = 0.0010     # a round figure near the probe's median time on the reference box
PROBE_GAP_S = 0.05       # least host time between two probes of a run
_ROUNDS = 4000


class _Cell:
    __slots__ = ("x", "d")

    def __init__(self, x: float):
        self.x = x
        self.d = {"k": 0}


_CELLS = [_Cell(float(i)) for i in range(4096)]


def probe_s() -> float:
    """Host seconds of one fixed round of attribute, dict and float work."""
    clock = time.perf_counter
    cells = _CELLS
    t0 = clock()
    acc = 0.0
    j = 0
    for i in range(_ROUNDS):
        j = (j + 2731) & 4095
        c = cells[j]
        acc += c.x * 0.5 + c.d["k"]
        c.d["k"] = i & 7
    return clock() - t0


def speed_of(probe: float) -> float:
    """Reference seconds per host second at the time of one probe."""
    return REFERENCE_S / probe


class SpeedProbe:
    """Samples the host's speed during a run; see the module docstring."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.last = None
        self.span_s = 0.0      # host seconds covered by samples
        self.ref_s = 0.0       # the same, in reference seconds
        self.probe_s = 0.0     # host seconds spent in the probes
        self.samples = 0

    def start(self):
        self.last = time.perf_counter()

    def tick(self, force: bool = False):
        """Close the current stretch with a probe, if it has lasted long enough."""
        now = time.perf_counter()
        if self.last is None or (not force and now - self.last < PROBE_GAP_S):
            return
        p = probe_s()
        self.span_s += now - self.last
        self.ref_s += (now - self.last) * speed_of(p)
        self.probe_s += p
        self.samples += 1
        self.last = time.perf_counter()

    def state(self) -> dict:
        return {"span_s": self.span_s, "ref_s": self.ref_s,
                "probe_s": self.probe_s, "samples": self.samples}


def merge(states) -> dict:
    out = {"span_s": 0.0, "ref_s": 0.0, "probe_s": 0.0, "samples": 0}
    for state in states:
        for key in out:
            out[key] += state[key]
    return out


def factor(state: dict) -> float:
    """Mean reference seconds per host second over the sampled stretches."""
    return state["ref_s"] / state["span_s"]
