"""Fleet modeling: machines, populations, scheduling, simulation.

This package is the substitute for the production fleet the paper
observed (see DESIGN.md): seeded population synthesis over a CPU-SKU
portfolio, a core-slot scheduler that feels quarantine's capacity cost,
machine lifecycle (burn-in / RMA), and the discrete-event simulator
whose output reproduces Fig. 1.
"""

from repro.fleet.columns import (
    DEFECT_MODE_CODES,
    FleetColumns,
    SNAPSHOT_FIELDS,
    defect_mode_code,
)
from repro.fleet.lifecycle import BurnInReport, RmaTracker, burn_in
from repro.fleet.machine import Machine, build_small_fleet
from repro.fleet.population import FleetBuilder, FleetGroundTruth
from repro.fleet.product import (
    CpuProduct,
    DEFAULT_PRODUCTS,
    blended_machine_prevalence,
)
from repro.fleet.scheduler import (
    FleetScheduler,
    Placement,
    ScheduleStats,
    Task,
)
from repro.fleet.telemetry import (
    CrashDump,
    CrashDumpAnalyzer,
    HealthSummary,
    MceLogAnalyzer,
    MceRecord,
    fleet_health_dashboard,
)
from repro.fleet.simulator import (
    FleetSimulator,
    SimulationResult,
    SimulatorConfig,
)

__all__ = [
    "DEFECT_MODE_CODES",
    "FleetColumns",
    "SNAPSHOT_FIELDS",
    "defect_mode_code",
    "BurnInReport",
    "RmaTracker",
    "burn_in",
    "Machine",
    "build_small_fleet",
    "FleetBuilder",
    "FleetGroundTruth",
    "CpuProduct",
    "DEFAULT_PRODUCTS",
    "blended_machine_prevalence",
    "FleetScheduler",
    "Placement",
    "ScheduleStats",
    "Task",
    "CrashDump",
    "CrashDumpAnalyzer",
    "HealthSummary",
    "MceLogAnalyzer",
    "MceRecord",
    "fleet_health_dashboard",
    "FleetSimulator",
    "SimulationResult",
    "SimulatorConfig",
]
