"""Simulation library and experiment CLI for timer-based restarting
regularizations of the accelerated-gradient ODE."""

from .core import (
    CostFunction,
    HybridTime,
    SolverConfig,
    Trace,
    aniso_cost,
    corpus,
    coupled_cost,
    example1_cost,
    make_quadratic,
    sphere_cost,
)
from .dynamics import (
    DisturbanceSpec,
    OdeParams,
    limiting_integral,
)
from .engine import (
    ButcherTableau,
    HybridSystem,
    PerturbationSet,
    simulate,
    tableau,
)
from .hands import (
    HandParams,
    hand1,
    hand2,
    target_distance,
    target_distance_fn,
    validate_dwell,
)
from .analysis import (
    RateReport,
    beta_constant,
    check_monotonicity,
    check_inverse_square_rate,
    check_period_contraction,
    check_exponential_rate,
    convergence_time_estimate,
    jump_decrease_hand1,
    jump_decrease_hand2,
    k1_constant,
    lyapunov,
    optimal_restart,
    settling_bound,
    time_to_epsilon,
)
from .io import read_summary_json, read_trace_csv, write_summary_json, write_trace_csv
from .scenarios import (
    SCENARIOS,
    ConfigError,
    default_config,
    parse_config,
    run_scenario,
)

__version__ = "0.1.0"
