"""Routing protocols behind one node-level interface."""

from .aodv import Aodv
from .aomdv import Aomdv
from .base import RoutingProtocol  # noqa: F401 - the interface, re-exported
from .dsdv import Dsdv
from .olsr import Olsr

PROTOCOLS = {
    "aodv": Aodv,
    "aomdv": Aomdv,
    "dsdv": Dsdv,
    "olsr": Olsr,
}

