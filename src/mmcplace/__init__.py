"""Dynamic service placement across capacity-limited micro-clouds.

Solvers (offline DP, greedy online placement), bounded-error cost
prediction, look-ahead window sizing, and a hex-grid scenario simulator
with a small set of baseline policies.
"""

from .config import ConfigError, ScenarioConfig, parse_config, serialize_config
from .core import (ConfigurationMatrix, ServiceInstance, Violation, Window,
                   feasible_sequences, validate_configuration)
from .costs import (CostModel, DistanceContext, LinearCostModel,
                    MmcBackendCostModel, PerturbedCostModel,
                    PolynomialCostModel, SlotLoads, WindowCostEvaluator,
                    charge_placements, placement_loads, window_cost)
from .offline import (OfflineSolution, StateBudgetExceeded, run_offline,
                      solve_window_offline)
from .online import (PlacementOutcome, Run, handle_departure,
                     place_on_arrival, run_online)
from .oracle import (BruteForceSolution, EnumerationBudgetExceeded,
                     brute_force_offline, fractional_lower_bound_single_slot,
                     gap_constants)
from .predictor import (ZERO_BOUND, CostOracle, ErrorBound, PowerLawErrorBound,
                        TabulatedErrorBound)
from .scenario import (HexTopology, generate_service_demand,
                       generate_synthetic, ingest_trace, synthetic_mobility)
from .simulator import (BuiltScenario, PolicyResult, build_scenario,
                        run_policy, sweep_window, synthetic_ratio_experiment)
from .window import (WindowObjective, closed_form_T0,
                     optimal_window_binary_search, phi_discrete, theta)

__version__ = "0.1.0"
