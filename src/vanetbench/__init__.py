"""vanetbench: deterministic discrete-event VANET simulator and trace metrics."""

__version__ = "0.1.0"

from .core import RngStreams, SchedulingError, Simulator
from .scenario import ScenarioConfig, load_scenario
from .simulation import Simulation
