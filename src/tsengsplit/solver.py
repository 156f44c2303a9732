"""Double-inertial relaxed forward-backward-forward iteration engine.

One iteration, from the pair ``(x_prev, x_curr)`` and the current step
``lam``:

* extrapolate twice: ``w = x + alpha_n*(x - x_prev)`` and
  ``z = x + beta_n*(x - x_prev)``;
* backward step at the first point: ``y = J(w - lam*A(w), lam)``;
* if ``w`` and ``y`` coincide (to a relative threshold), ``y`` solves the
  inclusion and the run stops;
* otherwise blend the corrected point with the second extrapolation:
  ``x_next = (1 - theta_n)*z + theta_n*(y - lam*(A(y) - A(w)))``;
* update the step from the observed ratio ``||w - y|| / ||A(w) - A(y)||``
  so no Lipschitz constant is ever required:
  ``lam_next = min((mu + mu_n)*ratio, lam + p_n)``.

Each non-terminal iteration costs exactly two forward evaluations, one
resolvent evaluation and six vector norms: ``||w - y||`` (the residual,
also the step-ratio numerator), ``||w||``, ``||A(w) - A(y)||``,
``||A(w)||``, the stop metric and the distance to a known solution (five
without ``record_distance``, one fewer under the ``residual`` stop rule,
which reuses the residual; the descent test adds two).  The rest is
bookkeeping: the difference ``x_{n+1} - x_n``, the two extrapolations,
the blend, the step rule and one schedule term per sequence, read from
:meth:`SequenceSpec.terms` (a constant costs no call).  The difference
is formed once, at the end of an iteration: the ``step_diff`` stop
metric is its norm, and the next iteration extrapolates along it.

The six vector products, ``alpha_n*step``, ``beta_n*step``, ``lam*A(w)``,
``lam*(A(y) - A(w))``, ``(1 - theta_n)*z`` and ``theta_n*corrected``, take
their coefficients from five 0-d float64 arrays that each call allocates
and rewrites in place every iteration.  NumPy 2 converts a Python float
operand on every ufunc call and takes a 0-d array as it is, so each product
runs the same float64 multiply on the same values with less dispatch.
That rests on the kernel's vectors being float64, as the initial points
(:func:`as_vector`) and the built-in maps are: under NumPy 2's promotion
rules a 0-d float64 operand widens a float32 vector that a Python float
leaves float32, so a custom map returning float32 has its products taken
in float64.  Every other scalar stays a Python float: the schedule terms,
the step rule, the tie and exact-stop tests and the ``lam`` passed to the
resolvent.

Non-finite values are found by as few numpy calls as the order of the
checks allows.  ``A(w)`` is checked, by one dot product with a zero
vector, before ``A(y)`` is evaluated.  ``y`` and ``x_{n+1}`` are not
checked on their own: a non-finite ``y`` fails the residual norm and a
non-finite ``x_{n+1}`` the stop metric's norm.  Only the descent test,
which comes before that norm, and the ``residual`` rule, which takes
none, check ``x_{n+1}`` explicitly.  When a norm fails, ``y`` and then
``x_{n+1}`` are re-checked, so the error, the partial trace and the
counters are those of a check made right after each value.

:func:`solve` is the one iteration loop.  A run is strictly sequential;
concurrent runs may share problems and schedules because those are
immutable, and each run's coefficient arrays are its own.  Parallelism
lives above it: the CLI's ``sweep`` solves grid points in separate
processes, each calling :func:`solve` on its own copy of the instance.

Each iteration records one tuple row under :data:`TRACE_COLUMNS`, the one
place the trace schema is written down, in a list unless the caller gives
another container; the CSV/JSONL writers, the reader, the summary and the
empirical convergence-rate certificates read rows through it.  The CSV
and JSONL writers share one text per float: each row's ``lambda``,
``residual``, ``E_n`` and ``dist`` are formatted once per trace, and both
files are rendered from those strings.  The
certificates are a ``1/sqrt(n)`` envelope on the best fixed-point
residual and a geometric-decay check on the distance to a known solution.
"""

from __future__ import annotations

import json
import math
import operator
import time
from collections.abc import MutableSequence
from dataclasses import dataclass, field

import numpy as np

from .linalg import NonFiniteError, Vector, as_vector, norm
from .operators import ForwardOperator, Resolvent
from .schedules import ScheduleSet

STOP_RULES = ("step_diff", "iterate_norm", "residual")
STATUS_EXACT = "exact_solution"
STATUS_TOL = "tolerance_met"
STATUS_BUDGET = "max_iters"
STATUS_DIVERGED = "diverged"

# one trace row per iteration, a tuple in this order (dist None when unrecorded)
TRACE_COLUMNS = ("n", "lambda", "residual", "E_n", "dist", "elapsed_ms")

# ||w - y|| below this relative threshold counts as an exact fixed point
EXACT_STOP_REL = 1e-13
# ||A(w) - A(y)|| below this relative threshold takes the degenerate
# step-update branch instead of dividing
TIE_REL = 1e-14


class SolverError(RuntimeError):
    pass


class DivergenceError(SolverError):
    """An iterate or the step size left the finite floats; carries the partial,
    ``diverged`` trace.  The one way a solve on a constructed schedule fails
    numerically."""

    def __init__(self, message: str, trace: "SolverTrace"):
        super().__init__(message)
        self.trace = trace


class DescentViolationError(SolverError):
    """The per-iteration descent inequality failed while being asserted."""


@dataclass(frozen=True, eq=False)
class Problem:
    """A monotone inclusion instance the solver can run on.

    ``known_solution`` marks oracle instances; it is verified at
    registration by checking that the solution is a fixed point of the
    forward-backward map.  ``weights`` switches every norm and inner
    product of the run to the quadrature-weighted ones.  ``x0``/``x1``
    are default initial points (zeros when omitted).
    """

    forward: ForwardOperator
    backward: Resolvent
    dimension: int
    known_solution: Vector | None = None
    weights: Vector | None = None
    x0: Vector | None = None
    x1: Vector | None = None
    label: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("known_solution", "weights", "x0", "x1"):
            v = getattr(self, name)
            if v is not None:
                v = as_vector(v, name=name)
                if v.shape != (self.dimension,):
                    raise ValueError(f"{name} has shape {v.shape}, expected ({self.dimension},)")
                object.__setattr__(self, name, v)  # frozen: the one write, at construction
        if self.weights is not None and not (self.weights > 0).all():
            raise ValueError("weights must be strictly positive")
        if self.known_solution is not None:
            lam = 0.1
            xs = self.known_solution
            fx = self.backward(xs - lam * self.forward(xs), lam)
            gap = norm(fx - xs, self.weights)
            if gap > 1e-8:
                raise ValueError(
                    f"known_solution fails the fixed-point check: residual {gap:.3e} at lam = {lam}"
                )

    def initial_points(self) -> tuple[Vector, Vector]:
        x0 = self.x0 if self.x0 is not None else np.zeros(self.dimension)
        x1 = self.x1 if self.x1 is not None else x0.copy()
        return x0, x1


@dataclass
class SolverConfig:
    schedules: ScheduleSet
    max_iters: int = 10_000
    tol: float = 1e-5
    stop_rule: str = "step_diff"
    assert_descent: bool = False
    record_distance: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"stop_rule must be one of {STOP_RULES}, got {self.stop_rule!r}")


@dataclass
class SolverTrace:
    """Tuple rows under :data:`TRACE_COLUMNS` plus terminal status and counters.

    ``tie_breaks`` counts iterations where the step update took the
    degenerate branch because the two forward values were numerically
    equal; a large fraction signals a threshold-sensitive run.
    """

    rows: MutableSequence[tuple] = field(default_factory=list)
    status: str = STATUS_BUDGET
    forward_evals: int = 0
    resolvent_evals: int = 0
    tie_breaks: int = 0
    label: str = ""
    # the rows that _float_texts last formatted, and their texts
    _texts: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        """The rows appended: a list's length, or the last row's ``n`` in the
        container :func:`solve` was given, which may have dropped the rows
        before it (solve numbers rows ``1..n``)."""
        rows = self.rows
        return len(rows) if isinstance(rows, list) or not rows else rows[-1][0]

    def row(self, i: int) -> dict:
        """Row ``i`` under its :data:`TRACE_COLUMNS` names."""
        return dict(zip(TRACE_COLUMNS, self.rows[i]))

    def column(self, name: str) -> np.ndarray:
        """One column as a float array; an unrecorded ``dist`` reads NaN."""
        i = TRACE_COLUMNS.index(name)
        return np.array([r[i] for r in self.rows], dtype=float)

    def summary(self) -> dict:
        last = self.row(-1) if self.rows else {}
        return {
            "status": self.status,
            "iterations": len(self),
            "final_metric": last.get("E_n"),
            "final_residual": last.get("residual"),
            "forward_evals": self.forward_evals,
            "resolvent_evals": self.resolvent_evals,
            "tie_breaks": self.tie_breaks,
            "tie_break_fraction": self.tie_breaks / len(self) if self.rows else 0.0,
            "label": self.label,
        }


# the two values of an iteration checked by name, in the order it makes them
NONFINITE_OPERATOR = "non-finite operator value at iteration {n}"
NONFINITE_ITERATE = "non-finite iterate or step size (next lambda {lam_next!r}) at iteration {n}"


def solve(
    problem: Problem, config: SolverConfig, rows: MutableSequence[tuple] | None = None
) -> tuple[Vector, SolverTrace]:
    """Iterate from ``problem``'s initial points until the stop metric
    reaches ``tol``, an exact solution is found, or the iteration budget
    runs out.

    Returns the final iterate and the trace, whose rows go into ``rows``,
    an empty container: a new list, keeping every row, when not given.  A
    bounded one, such as ``collections.deque(maxlen=1)``, keeps a trace's
    memory flat in its iterations.  Deterministic: the same
    problem and config give bit-identical traces.
    Non-finite values raise :class:`DivergenceError` carrying the partial
    trace; numpy's overflow warnings are silenced because every value
    that could carry one is checked, explicitly or by a norm taken of it.
    """
    x_prev, x_curr = problem.initial_points()
    sched = config.schedules
    terms = zip(
        range(1, config.max_iters + 1),
        sched.alpha.terms(), sched.beta.terms(), sched.theta.terms(), sched.mu_seq.terms(), sched.p_seq.terms(),
    )
    mu, lam = sched.mu, sched.lambda1
    wts = problem.weights
    forward, backward = problem.forward, problem.backward
    p_star = problem.known_solution
    dist_from = p_star if config.record_distance else None
    check_descent = config.assert_descent and p_star is not None
    stop_rule, tol = config.stop_rule, config.tol
    # a non-finite x_next fails the E_n norm, but the descent test comes
    # before that norm and the residual rule takes none: those check it
    check_next = check_descent or stop_rule == "residual"
    # a vector v is finite exactly when v . 0 is not NaN: v_i*0 is a signed zero
    # for finite v_i and NaN otherwise, and no sum of zeros overflows
    zeros = np.zeros(x_curr.shape)
    isnan, inf = math.isnan, math.inf
    # the six vector products' coefficients, rewritten in place (module docstring)
    c_alpha, c_beta, c_lam, c_keep, c_theta = (np.zeros(()) for _ in range(5))
    rows = [] if rows is None else rows
    trace = SolverTrace(rows, label=problem.label)
    step = x_curr - x_prev
    forward_evals = resolvent_evals = tie_breaks = 0
    status = STATUS_BUDGET
    y = x_next = None  # for the handler below; a finished iteration leaves finite values here
    clock = time.perf_counter
    start = clock()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n, alpha_n, beta_n, theta_n, mu_n, p_n in terms:
                c_alpha[()], c_beta[()], c_lam[()] = alpha_n, beta_n, lam
                w = x_curr + c_alpha * step
                z = x_curr + c_beta * step
                aw = forward(w)
                y = backward(w - c_lam * aw, lam)
                forward_evals += 1
                resolvent_evals += 1
                # A(w) before A(y) is evaluated; a non-finite y fails the residual norm
                if isnan(aw.dot(zeros)):
                    raise DivergenceError(NONFINITE_OPERATOR.format(n=n), trace)

                residual = norm(w - y, wts)
                if residual <= EXACT_STOP_REL * (1.0 + norm(w, wts)):
                    # y is a fixed point of the forward-backward map, hence a solution
                    x_next, lam_next, status = y, lam, STATUS_EXACT
                else:
                    ay = forward(y)
                    forward_evals += 1
                    d_a = ay - aw
                    # the step rule: grow by p_n, or shrink to the observed ratio
                    lam_next = lam + p_n
                    da = norm(d_a, wts)
                    if da <= TIE_REL * (1.0 + norm(aw, wts)):
                        tie_breaks += 1  # the forward values coincide: no ratio to take
                    else:
                        lam_next = min((mu + mu_n) * residual / da, lam_next)
                    corrected = y - c_lam * d_a
                    c_keep[()], c_theta[()] = 1.0 - theta_n, theta_n
                    x_next = c_keep * z + c_theta * corrected
                    if not 0.0 < lam_next < inf or (check_next and isnan(x_next.dot(zeros))):
                        raise DivergenceError(NONFINITE_ITERATE.format(lam_next=lam_next, n=n), trace)
                    if check_descent:
                        # squares by multiplication: an overflow reads inf, never raises
                        ratio = (mu + mu_n) * lam / lam_next
                        coef = 1.0 - ratio * ratio
                        if coef >= 0.0:
                            gap_w, gap_c = norm(w - p_star, wts), norm(corrected - p_star, wts)
                            gap_w, lhs = gap_w * gap_w, gap_c * gap_c
                            rhs = gap_w - coef * residual * residual + 1e-8 * (1.0 + gap_w)
                            if lhs > rhs:
                                raise DescentViolationError(
                                    f"descent inequality violated at iteration {n}: {lhs!r} > {rhs!r}"
                                )

                step = x_next - x_curr  # the next iteration's x_n - x_{n-1}
                if stop_rule == "iterate_norm":
                    e_n = norm(x_next, wts)
                elif stop_rule == "residual":
                    e_n = residual
                else:
                    e_n = norm(step, wts)
                dist = None if dist_from is None else norm(x_next - dist_from, wts)
                rows.append((n, lam, residual, e_n, dist, (clock() - start) * 1e3))
                x_curr, lam = x_next, lam_next
                if status == STATUS_EXACT:
                    break
                if e_n <= tol:
                    status = STATUS_TOL
                    break
    except NonFiniteError as err:
        status = STATUS_DIVERGED
        # a norm failed: name what a check right after y, then after
        # x_next, would have (until this iteration makes them, they hold
        # the last one's finite values)
        if y is not None and not np.isfinite(y).all():
            raise DivergenceError(NONFINITE_OPERATOR.format(n=n), trace) from None
        if x_next is not None and not np.isfinite(x_next).all():
            raise DivergenceError(NONFINITE_ITERATE.format(lam_next=lam_next, n=n), trace) from None
        raise DivergenceError(f"overflow while iterating: {err}", trace) from err
    except DivergenceError:
        status = STATUS_DIVERGED
        raise
    finally:
        trace.status = status
        trace.forward_evals, trace.resolvent_evals, trace.tie_breaks = forward_evals, resolvent_evals, tie_breaks
    return x_curr, trace


# ---------------------------------------------------------------------------
# rate certificates
# ---------------------------------------------------------------------------


@dataclass
class RateReport:
    kind: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed, "details": self.details}


def certify_sqrt_rate(trace: SolverTrace) -> RateReport:
    """Check that the best fixed-point residual decays like ``1/sqrt(n)``.

    Let ``r_n`` be the running minimum of the residual column and
    ``s_n = r_n*sqrt(n)``.  The envelope constant is fitted on the first
    half of the trace, ``C = max s_n over n <= T/2``, and the certificate
    requires ``max s_n <= 2C`` on the second half.  Additionally the
    certificate fails when ``s_n`` grows systematically at the scale of
    ``C`` itself (every last-quarter value above every third-quarter
    value while exceeding the fit), which catches stagnating residuals
    that the doubling margin alone cannot.

    The verdict is about the rows given and nothing else.  A trace cut off
    by ``max_iters`` before its residual reaches the ``1/sqrt(n)`` regime
    can fail the sustained-growth clause and pass at a larger budget;
    README cites a reproducer.
    """
    t = len(trace.rows)
    if t < 50:
        raise ValueError(f"trace too short for the sqrt-rate certificate: {t} rows < 50")
    r = np.minimum.accumulate(trace.column("residual"))
    s = r * np.sqrt(np.arange(1, t + 1))
    half = t // 2
    c_fit = float(s[:half].max())
    second_max = float(s[half:].max())
    envelope_ok = second_max <= 2.0 * c_fit
    q3, q4 = s[half : half + (t - half) // 2], s[half + (t - half) // 2 :]
    sustained_growth = bool(q4.min() > q3.max()) and second_max > c_fit
    passed = envelope_ok and not sustained_growth
    return RateReport(
        kind="sqrt",
        passed=passed,
        details={
            "fitted_c": c_fit,
            "second_half_max": second_max,
            "envelope_ratio": second_max / c_fit if c_fit > 0 else math.inf,
            "envelope_ok": envelope_ok,
            "sustained_growth": sustained_growth,
            "rows": t,
        },
    )


def certify_linear_rate(trace: SolverTrace, q_bound: float | None = None) -> RateReport:
    """Check geometric decay of the distance to the known solution.

    Ratios ``rho_n = dist_{n+1}^2 / dist_n^2`` are computed on the tail
    (last half of the rows with distance above 1e-12).  The certificate
    passes when the geometric mean of the tail ratios is below one *and*
    the tail distance actually shrank by at least a factor of 10 (so a
    merely sublinear decay with ratios drifting up to one cannot pass).
    When ``q_bound`` is given, the report also states whether the largest
    tail ratio stays within ``q_bound + 0.05``.
    """
    d = trace.column("dist")
    d = d[~np.isnan(d)]
    if d.size == 0:
        raise ValueError("trace recorded no distance-to-solution data")
    d = d[d > 1e-12]
    if d.size < 10:
        raise ValueError(f"too few usable distance rows for the linear certificate: {d.size}")
    tail = d[d.size // 2 :]
    log_ratios = 2.0 * np.diff(np.log(tail))
    rho_bar = float(np.exp(log_ratios.mean()))
    max_ratio = float(np.exp(log_ratios.max()))
    total_decay = float((tail[-1] / tail[0]) ** 2)
    passed = rho_bar < 1.0 and total_decay <= 1e-2
    within_q = None if q_bound is None else bool(max_ratio <= q_bound + 0.05)
    return RateReport(
        kind="linear",
        passed=passed,
        details={
            "rho_bar": rho_bar,
            "max_ratio": max_ratio,
            "tail_len": int(tail.size),
            "total_tail_decay": total_decay,
            "q_bound": q_bound,
            "within_q_bound": within_q,
        },
    )


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def _float_texts(trace: SolverTrace) -> list[tuple]:
    """``repr`` of each row's ``lambda``, ``residual``, ``E_n`` and ``dist``
    (``None`` when unrecorded), the one formatting both trace writers use.

    Kept on the trace and remade only when its rows are no longer the very
    tuples they were made from (the list replaced, grown or edited)."""
    rows, memo = trace.rows, trace._texts
    if memo is None or len(memo[0]) != len(rows) or not all(map(operator.is_, memo[0], rows)):
        texts = [
            (repr(float(lam)), repr(float(residual)), repr(float(e_n)), None if dist is None else repr(float(dist)))
            for _, lam, residual, e_n, dist, _ in rows
        ]
        trace._texts = memo = (list(rows), texts)
    return memo[1]


def trace_to_csv(trace: SolverTrace) -> str:
    """Render the trace as CSV text under a :data:`TRACE_COLUMNS` header.

    The timing column is canonicalized to zero so replays of the same
    seeded run are byte-identical; measured per-row times go to
    :func:`write_trace_jsonl`.  The terminal status and evaluation
    counters ride in a ``#``-prefixed footer.
    """
    lines = [",".join(TRACE_COLUMNS)]
    lines += [
        f"{row[0]},{lam},{residual},{e_n},{'' if dist is None else dist},0.0"
        for row, (lam, residual, e_n, dist) in zip(trace.rows, _float_texts(trace))
    ]
    lines.append(_footer(trace))
    return "\n".join(lines) + "\n"


def _footer(trace: SolverTrace) -> str:
    """The trace CSV's last line: the terminal status and the counters."""
    return (
        f"# status={trace.status} forward_evals={trace.forward_evals} "
        f"resolvent_evals={trace.resolvent_evals} tie_breaks={trace.tie_breaks}"
    )


def write_trace_csv(trace: SolverTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def read_trace_csv(path) -> SolverTrace:
    """Parse a trace CSV that :func:`write_trace_csv` wrote for a trace
    :func:`solve` returned; only ``dist`` may be empty.

    Raises ``ValueError`` on anything such a trace cannot hold: a line not
    ended by one ``\\n``, or a blank one; whitespace in a row; rows not
    numbered ``1..T``; a negative or non-finite ``residual``, ``E_n`` or
    ``dist``, or a ``dist`` on some rows only; a ``lambda`` that is not
    positive and finite; an ``elapsed_ms`` other than ``0.0``; a footer
    that is not the one last line, or that differs from the footer
    :func:`trace_to_csv` renders from the status and counters it names; a
    status other than a finished run's; or footer counters that do not
    match the rows (``T`` resolvent evaluations, ``2T`` forward evaluations
    and at most ``T`` tie breaks, one fewer of each of the last two after
    an exact stop).  A float spelled otherwise than ``repr`` spells it
    (``1e-1`` for ``0.1``) reads as its value.
    """
    trace = SolverTrace()
    rows, inf = trace.rows, math.inf
    footer = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *lines = fh.read().split("\n")
    if header != ",".join(TRACE_COLUMNS):
        raise ValueError(f"unexpected trace header: {header!r}")
    if lines[-1:] != [""]:
        raise ValueError("trace does not end with a newline")
    for n, line in enumerate(lines[:-1], start=1):
        if footer is not None:
            raise ValueError(f"trace continues after its footer: {line!r}")
        if line.startswith("#"):
            footer = line
            continue
        cols = line.split(",")
        # float() would read a field with whitespace around it
        if len(cols) != len(TRACE_COLUMNS) or line.split() != [line]:
            raise ValueError(f"malformed trace row: {line!r}")
        numbered, lam, residual, e_n, dist, elapsed_ms = cols
        if numbered != str(n):
            raise ValueError(f"trace row {n} is numbered {numbered}")
        lam, residual, e_n = float(lam), float(residual), float(e_n)
        dist = None if dist == "" else float(dist)
        # each comparison is false for NaN
        if not 0.0 < lam < inf:
            raise ValueError(f"lambda {lam!r} at n = {n} is not positive and finite")
        if not (0.0 <= residual < inf and 0.0 <= e_n < inf and (dist is None or 0.0 <= dist < inf)):
            raise ValueError(f"negative or non-finite residual, E_n or dist at n = {n}")
        if elapsed_ms != "0.0":  # the measured times go to trace.jsonl
            raise ValueError(f"elapsed_ms {elapsed_ms!r} at n = {n} is not 0.0")
        rows.append((n, lam, residual, e_n, dist, 0.0))
    if footer is None:
        raise ValueError("trace has no footer")
    if len({row[4] is None for row in rows}) > 1:  # a run records dist on every row or on none
        raise ValueError("trace records dist on some rows only")
    fields = dict(part.partition("=")[::2] for part in footer[1:].split())
    trace.status = fields.get("status")
    trace.forward_evals, trace.resolvent_evals, trace.tie_breaks = (
        int(fields.get(key, -1)) for key in ("forward_evals", "resolvent_evals", "tie_breaks")
    )
    if footer != _footer(trace):  # a key missing, repeated, added or respelled
        raise ValueError(f"trace footer {footer!r} is not one solve writes")
    t = len(rows)
    if trace.status not in (STATUS_EXACT, STATUS_TOL, STATUS_BUDGET):  # a diverged run writes no trace CSV
        raise ValueError(f"trace status {trace.status!r} is not a finished run's")
    # every row but an exact stop's evaluates the forward map twice, and only those can break a tie
    twice = t - (trace.status == STATUS_EXACT)
    if (trace.resolvent_evals, trace.forward_evals) != (t, t + twice) or not 0 <= trace.tie_breaks <= twice:
        raise ValueError(
            f"footer counters resolvent_evals={trace.resolvent_evals} forward_evals={trace.forward_evals} "
            f"tie_breaks={trace.tie_breaks} do not match {t} rows"
        )
    return trace


def write_trace_jsonl(trace: SolverTrace, path) -> None:
    """One JSON object per row (measured ``elapsed_ms``), then a summary record.

    A row is what ``json.dumps(dict(zip(TRACE_COLUMNS, row)))`` writes,
    rendered from one template instead of a dict per row."""
    lines = []
    for row, (lam, residual, e_n, dist) in zip(trace.rows, _float_texts(trace)):
        line = (
            f'{{"n": {row[0]}, "lambda": {lam}, "residual": {residual}, "E_n": {e_n}, '
            f'"dist": {"null" if dist is None else dist}, "elapsed_ms": {float(row[5])!r}}}\n'
        )
        if "nan" in line or "inf" in line:  # no key holds these: they are floats, which JSON spells NaN, Infinity
            line = line.replace("nan", "NaN").replace("inf", "Infinity")
        lines.append(line)
    lines.append(json.dumps(trace.summary()) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
