"""consensuslab: build, simulate, and verify cascaded consensus protocols.

High-order coordination laws are assembled as series compositions of
first-order consensus operators; the toolkit integrates the resulting
cascade (or the explicit second-order controllers on a double-integrator
plant), handles bounded time-varying delays method-of-steps style, and
checks consensus residuals numerically.
"""

from .dynamics import (
    Cascade,
    PlantLaw,
    cascade_rhs,
    compositional_controller,
    plant_rhs,
    reconstruct_plant,
)
from .exceptions import (
    ConfigError,
    ConsensusLabError,
    DivergenceError,
    GraphError,
    InsufficientHistoryError,
    NumericError,
    OperatorError,
    ShapeError,
)
from .graphs import (
    ReachabilityReport,
    WeightedDigraph,
    build_laplacian,
    graph_from_edges,
    path_graph,
    spanning_tree_check,
)
from .metrics import (
    ConsensusReport,
    build_report,
    laplacian_seminorm,
)
from .operators import (
    ConsensusOperator,
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from .sim import (
    ConstantDelay,
    IntegratorConfig,
    PoissonSampledDelay,
    RampDelay,
    Trajectory,
    integrate,
    poisson_delay_bank,
    sample_poisson_delays,
)
from .config import emit_scenario, parse_scenario
from .presets import PRESETS, preset
from .scenario import Scenario, StageSpec, simulate_scenario

__version__ = "0.1.0"
