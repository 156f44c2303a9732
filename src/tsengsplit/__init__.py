"""Solver library and benchmark tools for monotone inclusions ``0 in (A+B)x``.

The iteration engine combines double inertial extrapolation, relaxation,
and a self-adaptive step size that needs no Lipschitz constant.  Schedule
validators, empirical convergence-rate certificates, and generators for
the benchmark problem families round out the package; the ``tsengsplit``
CLI drives them from JSON configs.  The report and error types
(``RateReport``, ``StrongReport``, ``ValidationReport``, ``SolverError``)
stay public because the validators and certificates return them and every
failed solve raises one, so callers annotate and catch them by name.
"""

from .linalg import (
    DimensionMismatchError,
    Matrix,
    NonFiniteError,
    RngStream,
    Vector,
    inner,
    norm,
    uniform_matrix,
)
from .operators import (
    ForwardOperator,
    Resolvent,
    affine_forward,
    hyperplane_resolvent,
    least_squares_gradient,
    orthant_resolvent,
    pointwise_max_zero,
    soft_threshold_resolvent,
)
from .problems import (
    LassoInstance,
    gen_affine_vi,
    gen_l2_vi,
    gen_lasso,
    gen_oracle_strong,
    oracle_orthant_vi,
)
from .schedules import (
    PRESET_NAMES,
    ScheduleSet,
    SequenceSpec,
    StrongReport,
    ValidationReport,
    beta_bound,
    constant,
    contraction_factor,
    find_feasible_strong,
    inverse_square,
    one_minus_pow10,
    preset,
    rational,
    validate_c3,
    validate_strong,
)
from .solver import (
    TRACE_COLUMNS,
    DescentViolationError,
    DivergenceError,
    Problem,
    RateReport,
    SolverConfig,
    SolverError,
    SolverTrace,
    certify_linear_rate,
    certify_sqrt_rate,
    read_trace_csv,
    solve,
    trace_to_csv,
    write_trace_csv,
    write_trace_jsonl,
)

__version__ = "0.1.0"
