"""Fair airtime allocation and slotted scheduling for sharing groups."""

from .bargaining import (
    Allocation,
    BargainingProblem,
    DomainError,
    InfeasibleProblemError,
    KktReport,
    Player,
    ProblemOverflowError,
    Utility,
    dissemination_rate,
    eql_allocate,
    gnbs_allocate,
    kkt_residuals,
    nash_product,
    oracle_allocate,
    wpf_aggregate,
    wtd_allocate,
)
from .grouping import (
    ConnectivityGraph,
    ContactTable,
    Schedule,
    build_schedule,
    select_roles,
    slot_sizes,
)
from .scenario_io import PRESETS, SchemaError, load_scenario, preset_scenario
from .simulate import (
    LossModel,
    PcdErrorModel,
    Scenario,
    ScenarioNode,
    SimulationReport,
    compare_policies,
    repeated_contacts,
    run_scenario,
    slot_size_sweep,
)

__version__ = "0.1.0"
