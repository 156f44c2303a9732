"""Parameter schedules for the double-inertial relaxed splitting iteration.

A :class:`ScheduleSet` bundles the five per-iteration sequences

* ``alpha``  - primary inertia factor,
* ``beta``   - secondary inertia factor,
* ``theta``  - relaxation weight,
* ``mu_seq`` - additive relaxation of the step-size safety factor,
* ``p_seq``  - summable step-size growth increments,

together with the scalars ``mu`` (step-size safety factor), ``lambda1``
(initial step), ``epsilon`` (the coupling parameter trading off how large
the secondary inertia may grow against how large the relaxation weight may
be), and ``theta_floor`` (a positive lower bound on the relaxation weight).

Sequences come from a small declared family so they can be validated in
closed form and serialized to JSON: constants, ``a + b/(c + n)``,
``1 - 10^-n`` and ``1/n^2``.

Two validators are provided.  :func:`validate_c3` checks the weak
convergence regime (admissible inertia/relaxation schedules).
:func:`validate_strong` checks a constant :class:`ScheduleSet`, with the
problem's ``L`` and ``r``, for the stricter regime under which the
iteration contracts linearly, and reports the admissible relaxation
interval and the contraction factor; :func:`find_feasible_strong`
returns such sets, ready to run.  Validators never block a
solve; they produce reports.  What no run can use (a non-finite number, a
step parameter outside the step rule's domain) is refused when the
objects are built, so a schedule that constructs is one the solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import count, repeat
from typing import Callable, Iterator


# ---------------------------------------------------------------------------
# sequence family
# ---------------------------------------------------------------------------

# each kind of the family and the parameters it reads
SEQUENCE_KINDS = {"constant": ("value",), "rational": ("a", "b", "c"), "one_minus_pow10": (), "inverse_square": ()}


@dataclass(frozen=True)
class SequenceSpec:
    """One member of the declared sequence family, evaluated at n = 1, 2, ...

    kinds:
      ``constant``        -> value
      ``rational``        -> a + b / (c + n)      (requires c + 1 > 0)
      ``one_minus_pow10`` -> 1 - 10^-n
      ``inverse_square``  -> 1 / n^2
    """

    kind: str
    value: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not all(map(math.isfinite, (self.value, self.a, self.b, self.c))):
            raise ValueError(f"{self.kind} sequence parameters must be finite")
        if self.kind == "rational" and self.c + 1 <= 0:
            raise ValueError("rational sequence needs c + n > 0 for all n >= 1")
        # every member is monotone between its first term and its finite limit
        if not math.isfinite(self.at(1)):
            raise ValueError(f"{self.kind} sequence overflows at n = 1")

    def at(self, n: int) -> float:
        if n < 1:
            raise ValueError("sequence index starts at 1")
        if self.kind == "constant":
            return self.value
        if self.kind == "rational":
            return self.a + self.b / (self.c + n)
        if self.kind == "one_minus_pow10":
            return 1.0 - 10.0 ** (-n)
        return 1.0 / (n * n)

    def terms(self) -> Iterator[float]:
        """The terms at n = 1, 2, ..., endlessly: the values :meth:`at`
        gives, without a call per term for a constant."""
        if self.kind == "constant":
            return repeat(self.value)
        return map(self.at, count(1))

    def limit(self) -> float:
        """Value as n -> infinity (every family member converges)."""
        if self.kind == "constant":
            return self.value
        if self.kind == "rational":
            return self.a
        if self.kind == "one_minus_pow10":
            return 1.0
        return 0.0

    def series_sum(self) -> float:
        """Sum over n >= 1; ``inf`` when the series diverges."""
        if self.kind == "inverse_square":
            return math.pi**2 / 6.0
        if self.is_identically_zero():
            return 0.0
        return math.inf

    def is_identically_zero(self) -> bool:
        if self.kind == "constant":
            return self.value == 0.0
        if self.kind == "rational":
            return self.a == 0.0 and self.b == 0.0
        return False

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in SEQUENCE_KINDS[self.kind]}}


def constant(v: float) -> SequenceSpec:
    return SequenceSpec("constant", value=float(v))


def rational(a: float, b: float, c: float) -> SequenceSpec:
    """The sequence ``n -> a + b/(c + n)``."""
    return SequenceSpec("rational", a=float(a), b=float(b), c=float(c))


def one_minus_pow10() -> SequenceSpec:
    return SequenceSpec("one_minus_pow10")


def inverse_square() -> SequenceSpec:
    return SequenceSpec("inverse_square")


_ZERO = constant(0.0)


def _ends(seq: SequenceSpec) -> tuple[float, float]:
    """First term and limit of a family member: its range and its direction.

    Every member runs monotonically from its first term to its finite
    limit, so every term lies between the two, and the member is
    nondecreasing exactly when ``first <= limit``.  Rounding is monotone,
    so the float terms the solver evaluates obey the same.
    """
    return seq.at(1), seq.limit()


# ---------------------------------------------------------------------------
# schedule sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ScheduleSet:
    """All per-iteration parameters of the solver, evaluated lazily at n.

    ``theta``, ``mu`` and ``lambda1`` are required; every other field has
    a default, so a set names only what it uses.
    """

    alpha: SequenceSpec = _ZERO
    beta: SequenceSpec = _ZERO
    theta: SequenceSpec
    mu_seq: SequenceSpec = _ZERO
    p_seq: SequenceSpec = _ZERO
    mu: float
    lambda1: float
    epsilon: float = 1.2
    theta_floor: float = 0.01
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not 0.0 < self.lambda1 < math.inf:
            raise ValueError(f"lambda1 must be positive and finite, got {self.lambda1}")
        if not 0.0 < self.theta_floor < math.inf:
            raise ValueError(f"theta_floor must be positive and finite, got {self.theta_floor}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        # the step rule needs mu_n, p_n >= 0 for all n >= 1
        for name in ("mu_seq", "p_seq"):
            seq = getattr(self, name)
            if min(_ends(seq)) < 0.0:
                raise ValueError(f"{name} must stay nonnegative, got {seq.to_dict()}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: v.to_dict() if isinstance(v, SequenceSpec) else v for key, v in d.items()}


def beta_bound(epsilon: float) -> float:
    """Largest admissible cap on the secondary inertia for a given epsilon.

    Equals ``(3 + 2*eps - sqrt(8*eps + 17)) / (2*eps)``; strictly positive
    for ``epsilon > 1``.
    """
    if not epsilon > 1.0:
        raise ValueError(f"epsilon must exceed 1, got {epsilon}")
    return (3.0 + 2.0 * epsilon - math.sqrt(8.0 * epsilon + 17.0)) / (2.0 * epsilon)


# ---------------------------------------------------------------------------
# weak-regime validation
# ---------------------------------------------------------------------------


@dataclass
class ClauseResult:
    clause: str
    passed: bool
    first_violation_index: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "pass": self.passed,
            "first_violation_index": self.first_violation_index,
            "detail": self.detail,
        }


class _ClauseReport:
    """Verdict and clause lookup shared by the validator reports."""

    clauses: list[ClauseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)


@dataclass
class ValidationReport(_ClauseReport):
    clauses: list[ClauseResult]
    label: str = ""

    def to_dict(self) -> dict:
        return {"label": self.label, "passed": self.passed, "clauses": [c.to_dict() for c in self.clauses]}


_HORIZON = 10**6  # clause (iv) is sampled up to here


def _sample_indices() -> list[int]:
    """Dense prefix then geometric spacing up to and including ``_HORIZON``."""
    out = list(range(1, 65))
    n = out[-1]
    while n < _HORIZON:
        n = min(_HORIZON, max(n + 1, int(n * 1.25)))
        out.append(n)
    return out


def _range_clause(
    clause: str, name: str, seq: SequenceSpec, inside: Callable[[float], bool], bounds: str, nondecreasing: bool
) -> ClauseResult:
    """Every term of ``seq`` passes ``inside`` (the interval ``bounds``) and,
    if asked, the sequence is nondecreasing; decided from :func:`_ends`.

    The limit stands for the supremum or infimum the terms approach, so a
    strict bound there is one on that supremum or infimum.
    """
    first, lim = _ends(seq)
    if not inside(first):
        return ClauseResult(clause, False, 1, f"{name}_1 = {first!r} outside {bounds}")
    if nondecreasing and first > lim:
        return ClauseResult(clause, False, 1, f"{name} decreases from {name}_1 = {first!r} to its limit {lim!r}")
    if not inside(lim):
        return ClauseResult(clause, False, None, f"{name} tends to {lim!r}, outside {bounds}")
    shape = "nondecreasing from" if nondecreasing else "from"
    return ClauseResult(clause, True, None, f"{name}_n {shape} {first:.6g} to its limit {lim:.6g}, inside {bounds}")


def validate_c3(s: ScheduleSet) -> ValidationReport:
    """Check the admissibility conditions for the weak-convergence regime.

    Clauses (i)-(iii) and (v) are decided exactly: every family member
    runs monotonically from its first term to its limit, so the two give
    each sequence's range and direction, and the series sum decides
    summability.  Only clause (iv), which blends three sequences, is
    sampled: at consecutive pairs from geometrically spaced indices up to
    n = 10^6, with no tolerance, so any sampled drop fails it and a drop
    beyond 10^6 goes unseen.

    i    0 <= alpha_n <= 1
    ii   beta_n nondecreasing from a nonnegative first term, with
         supremum strictly below the epsilon cap (auto-satisfied when
         beta is identically zero)
    iii  theta_floor < theta_n <= theta_{n+1} <= 1/(1+epsilon); epsilon must
         exceed 1 unless beta is identically zero, in which case any
         epsilon >= 0 is admissible
    iv   (1-theta_n)*beta_n + theta_n*alpha_n is nondecreasing
    v    the step increments are summable and the safety-factor
         relaxations converge to zero (both are nonnegative by construction)

    A failing clause's ``first_violation_index`` is 1 when the first
    term already breaks it or the sequence runs the wrong way, ``None``
    when only the limit does (its ``detail`` then names the limit), and
    for clause (iv) the sampled index where the blend first decreases.

    Failures are report entries, never exceptions; the solver accepts
    non-validated schedules (exploratory runs are legitimate).
    """
    relaxed = s.beta.is_identically_zero()

    # (i) primary inertia within [0, 1]
    clauses = [_range_clause("i", "alpha", s.alpha, lambda x: 0.0 <= x <= 1.0, "[0, 1]", False)]

    # (ii) secondary inertia: nonnegative, nondecreasing, capped
    # (iii) relaxation weights: floored, nondecreasing, capped by 1/(1+epsilon)
    if relaxed or s.epsilon > 1.0:
        if relaxed:
            clauses.append(ClauseResult("ii", True, None, "beta identically zero: cap not binding"))
        else:
            beta_cap = beta_bound(s.epsilon)
            clauses.append(
                _range_clause("ii", "beta", s.beta, lambda x: 0.0 <= x < beta_cap, f"[0, {beta_cap:.6g})", True)
            )
        floor, theta_cap = s.theta_floor, 1.0 / (1.0 + s.epsilon)
        bounds = f"({floor:.6g}, {theta_cap:.6g}]"
        clauses.append(_range_clause("iii", "theta", s.theta, lambda x: floor < x <= theta_cap, bounds, True))
    else:
        detail = f"epsilon = {s.epsilon} must exceed 1 when beta is not identically zero"
        clauses += [ClauseResult("ii", False, 1, detail), ClauseResult("iii", False, 1, detail)]

    # (iv) blended inertia nondecreasing, sampled
    def blended(n: int) -> float:
        th = s.theta.at(n)
        return (1.0 - th) * s.beta.at(n) + th * s.alpha.at(n)

    ns = _sample_indices()
    bad = next((n for n in ns if blended(n + 1) < blended(n)), None)
    clauses.append(
        ClauseResult(
            "iv",
            bad is None,
            bad,
            f"blended inertia nondecreasing at {len(ns)} sampled indices up to n = {_HORIZON}"
            if bad is None
            else f"decreases between n = {bad} and {bad + 1} (sampled up to n = {_HORIZON})",
        )
    )

    # (v) summable step growth, vanishing safety relaxation
    total = s.p_seq.series_sum()
    detail_parts = [f"sum of step increments = {total:.6g}" if math.isfinite(total) else "step increments not summable"]
    mu_limit = s.mu_seq.limit()
    if mu_limit != 0.0:
        detail_parts.append(f"safety relaxation does not vanish (limit {mu_limit:g})")
    clauses.append(ClauseResult("v", math.isfinite(total) and mu_limit == 0.0, None, "; ".join(detail_parts)))

    return ValidationReport(clauses=clauses, label=s.label)


# ---------------------------------------------------------------------------
# strong/linear regime validation
# ---------------------------------------------------------------------------


@dataclass
class StrongReport(_ClauseReport):
    tau: float
    lambda_hat: float
    clauses: list[ClauseResult]
    theta_interval: tuple[float, float] | None
    q: float | None

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "lambda_hat": self.lambda_hat,
            "passed": self.passed,
            "clauses": [c.to_dict() for c in self.clauses],
            "theta_interval": list(self.theta_interval) if self.theta_interval else None,
            "q": self.q,
        }


def contraction_factor(tau: float, alpha: float, beta: float, theta: float) -> float:
    """Per-iteration squared-distance contraction factor of the strong regime."""
    return (1.0 + beta) + theta * (tau * (1.0 + alpha) - (1.0 + beta))


def _strong_bounds(mu, lambda1, alpha, beta, L, r) -> tuple:
    """``(lambda_hat, tau, c1_cap, c2_cap, lower, quad)``: ``lower`` bounds
    theta (``inf`` when a denominator is not positive), ``quad`` leads the
    c3 quadratic.  Floats give the report; :class:`Fraction` inputs, the
    exact c3 verdict."""
    lam_hat = min(mu / L, lambda1)
    tau = 1 - min(1 - mu, 2 * lam_hat * r) / 2
    lower1 = (1 - beta) / (1 + alpha - beta) if 1 + alpha - beta > 0 else math.inf
    denom = 1 + beta - tau * (1 + alpha)
    lower2 = beta / denom if denom > 0 else math.inf
    gap = 1 / tau - 1
    return lam_hat, tau, gap / 2, (1 - tau) / tau, max(lower1, lower2), gap - 2 * beta


def _c3_holds(exact: tuple, beta: float, theta: float) -> bool:
    """Clause c3 in the reals from ``exact``, :func:`_strong_bounds` of the
    float inputs as exact rationals.  Every theta above the (positive) lower
    bound lies above the smaller root of ``quad*t^2 + (1+b)*t + (b-1)``, so
    it is at most the larger root exactly when that quadratic is not
    positive at theta."""
    *_, lower, quad = exact
    b, th = Fraction(beta), Fraction(theta)
    return quad > 0 and lower < th <= 1 and (quad * th + 1 + b) * th + b - 1 <= 0


def validate_strong(s: ScheduleSet, L: float, r: float) -> StrongReport:
    """Check the constant-parameter conditions for linear convergence.

    ``s`` is the constant set the solver runs: its ``alpha``, ``beta`` and
    ``theta`` must be of kind ``constant``; its other sequences and its
    weak-regime scalars are not read.  ``L`` and ``r`` are the problem's
    Lipschitz constant and modulus of strong monotonicity, both positive
    and finite.  The report derives ``lambda_hat = min(mu/L, lambda1)``
    and ``tau = 1 - min(1 - mu, 2*lambda_hat*r)/2``.

    Verdicts are computed by direct evaluation of the bounds; nothing is
    presumed feasible.  Clause c3 is decided in exact arithmetic; the
    report carries the float admissible relaxation interval (clipped to
    (0, 1], possibly empty) and the contraction factor at the supplied
    relaxation weight.
    """
    if not all(seq.kind == "constant" for seq in (s.alpha, s.beta, s.theta)):
        raise ValueError("the strong regime needs constant alpha, beta and theta")
    if not (0.0 < L < math.inf and 0.0 < r < math.inf):
        raise ValueError(f"L and r must be positive and finite, got L = {L}, r = {r}")
    a, b, th = s.alpha.value, s.beta.value, s.theta.value
    lam_hat, tau, c1_cap, c2_cap, lower, quad = _strong_bounds(s.mu, s.lambda1, a, b, L, r)
    clauses: list[ClauseResult] = []

    ok1 = 0.0 <= b < c1_cap
    clauses.append(ClauseResult("c1", ok1, None if ok1 else 1, f"beta = {b:.6g} vs cap {c1_cap:.6g}"))

    ok2 = 0.0 <= a < c2_cap
    clauses.append(ClauseResult("c2", ok2, None if ok2 else 1, f"alpha = {a:.6g} vs cap {c2_cap:.6g}"))

    interval: tuple[float, float] | None = None
    if quad > 0.0:
        disc = (1.0 + b) ** 2 - 4.0 * quad * (b - 1.0)
        upper_root = (-(1.0 + b) + math.sqrt(disc)) / (2.0 * quad)
        upper = min(upper_root, 1.0)
        if lower < upper:
            interval = (lower, upper)
        in_floats = lower < th <= upper
        detail = f"admissible theta interval ({lower:.6g}, {upper:.6g}], theta = {th:.6g}"
        if interval is None:
            detail = f"empty theta interval: lower bound {lower:.6g} >= upper bound {upper:.6g}"
    else:
        in_floats = False
        detail = f"beta cap violated: 1/tau - 1 - 2*beta = {quad:.6g} <= 0"
    ok3 = _c3_holds(_strong_bounds(*map(Fraction, (s.mu, s.lambda1, a, b, L, r))), b, th)
    if ok3 != in_floats:  # the float bounds are rounded: say which side the reals put theta on
        detail += f"; in exact arithmetic theta is {'' if ok3 else 'not '}admissible"
    clauses.append(ClauseResult("c3", ok3, None if ok3 else 1, detail))

    q = contraction_factor(tau, a, b, th)
    return StrongReport(tau=tau, lambda_hat=lam_hat, clauses=clauses, theta_interval=interval, q=q)


def find_feasible_strong(
    L: float,
    r: float,
    mu_grid: list[float],
    lambda1_grid: list[float],
    alpha_grid: list[float],
    beta_grid: list[float],
) -> list[tuple[ScheduleSet, StrongReport]]:
    """Grid-search for constant schedule sets passing :func:`validate_strong`.

    For each grid point, the midpoint and the upper end of the reported
    admissible theta interval are tried, the upper end stepped down with
    ``math.nextafter`` to the largest float c3 admits.  Each returned set
    runs as it is; its weak-regime fields keep their defaults.  Results
    are sorted by contraction factor, best first.
    """
    found: list[tuple[ScheduleSet, StrongReport]] = []
    for mu in mu_grid:
        for lam1 in lambda1_grid:
            for a in alpha_grid:
                for b in beta_grid:
                    probe = ScheduleSet(alpha=constant(a), beta=constant(b), theta=constant(0.5), mu=mu, lambda1=lam1)
                    interval = validate_strong(probe, L, r).theta_interval
                    if interval is None:
                        continue
                    lo, hi = interval
                    exact, top = _strong_bounds(*map(Fraction, (mu, lam1, a, b, L, r))), hi
                    for _ in range(64):  # the float root lies ulps off: 20,000 random sets took at most 5 steps
                        if _c3_holds(exact, b, top):
                            break
                        top = math.nextafter(top, lo)
                    for th in (0.5 * (lo + hi), top):
                        cand = replace(probe, theta=constant(th))
                        rep = validate_strong(cand, L, r)
                        if rep.passed:
                            found.append((cand, rep))
    found.sort(key=lambda pr: pr[1].q)
    return found


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


# built once: a ScheduleSet is frozen, so every caller can share it
_PRESETS = {
    # no inertia, no relaxation: the classical adaptive-step baseline
    "tseng_plain": ScheduleSet(
        theta=constant(1.0),
        mu=0.9,
        lambda1=0.1,
        epsilon=0.0,
        theta_floor=0.5,
        label="tseng_plain",
    ),
    # single constant inertia with constant under-relaxation
    "chc_relaxed": ScheduleSet(
        alpha=constant(0.3),
        theta=constant(0.4),
        mu=0.9,
        lambda1=1.0,
        epsilon=1.5,
        theta_floor=0.2,
        label="chc_relaxed",
    ),
    # inertia factor reused as the relaxation weight
    "akh": ScheduleSet(
        alpha=constant(0.3),
        theta=constant(0.3),
        mu=0.3,
        lambda1=1.0,
        epsilon=2.0,
        theta_floor=0.15,
        label="akh",
    ),
    # the full double-inertial configuration used by the benchmarks
    "paper_default": ScheduleSet(
        alpha=one_minus_pow10(),
        beta=rational(0.1, -1.0, 1000.0),
        theta=rational(0.45, -1.0, 1000.0),
        mu_seq=inverse_square(),
        p_seq=inverse_square(),
        mu=0.9,
        lambda1=0.1,
        theta_floor=0.4,
        label="paper_default",
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> ScheduleSet:
    """Return a named, fully populated schedule preset."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]
