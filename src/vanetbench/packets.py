"""Network-layer packet representation shared by routing, agents and metrics."""

from dataclasses import dataclass

# packet kinds as they appear in the trace
KIND_CBR = "cbr"
KIND_PBC = "pbc"
KIND_CONTROL = "routing-control"
KIND_ACK = "ack"

BROADCAST = -1  # MAC destination for single-transmission broadcast frames


@dataclass(slots=True)
class Packet:
    """One network-layer packet; `payload` holds protocol messages or beacons."""

    kind: str
    src: int
    dst: int                 # final destination node, or BROADCAST
    size: int                # payload bytes as counted by the metrics
    packet_id: int
    flow_id: int | None = None
    ttl: int = 64
    payload: object = None


@dataclass(slots=True)
class SafetyBeacon:
    """Single-hop safety message: position snapshot of the sender at emission."""

    sender: int
    x: float
    y: float
    speed: float
    heading: float
    timestamp: float
    event_flag: str = "none"   # none | emergency
