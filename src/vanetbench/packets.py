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
    """One network-layer packet; `payload` holds a routing protocol's message."""

    kind: str
    dst: int                 # final destination node, or BROADCAST
    size: int                # payload bytes as counted by the metrics
    packet_id: int
    flow_id: int | None = None
    ttl: int = 64
    payload: object = None

