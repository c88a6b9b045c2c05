"""Deterministic discrete-event simulator of a three-tier wireless sensor
network for regional drought-severity prediction: hexagonal coverage
planning, tree/directed-diffusion/flooding data collection with energy
accounting, a central observational database, four-class severity
classification and wind-advection forecasting."""

from .analytics import (
    DroughtIndicators,
    EvolutionPattern,
    SeverityClass,
    Thresholds,
    advect_forecast,
    classify,
)
from .backbone import (
    CentralDatabase,
    LocalBaseStation,
    RemoteBaseStation,
)
from .config import ScenarioConfig, load_config, validate
from .energy import EnergyLedger, EnergyParams
from .environment import (
    Climatology,
    DroughtScenario,
    EnvironmentModel,
    SensorReading,
    default_drought_scenario,
)
from .geometry import (
    CellShape,
    GeoPoint,
    PlacementPlan,
    connectivity_check,
    estimate_node_count,
    footprint_area,
    tile_region,
)
from .kernel import EntityId, EntityKind, Kernel, RngStream
from .stack import (
    Channel,
    DataMessage,
    GradientEntry,
    Interest,
    RoutingMode,
    SensorNode,
    TransportLink,
)
from .runner import build_scenario, run_scenario

__version__ = "0.1.0"
