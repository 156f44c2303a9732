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
:func:`validate_strong` checks the stricter constant-parameter regime
under which the iteration contracts linearly, and reports the admissible
relaxation interval and the contraction factor.  Validators never block a
solve; they produce reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

__all__ = [
    "SequenceSpec",
    "constant",
    "rational",
    "one_minus_pow10",
    "inverse_square",
    "ScheduleSet",
    "beta_bound",
    "ClauseResult",
    "ValidationReport",
    "validate_c3",
    "StrongParams",
    "StrongReport",
    "validate_strong",
    "find_feasible_strong",
    "preset",
    "PRESET_NAMES",
]


# ---------------------------------------------------------------------------
# sequence family
# ---------------------------------------------------------------------------

_KINDS = ("constant", "rational", "one_minus_pow10", "inverse_square")


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "rational" and self.c + 1 <= 0:
            raise ValueError("rational sequence needs c + n > 0 for all n >= 1")

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
        d = {"kind": self.kind}
        if self.kind == "constant":
            d["value"] = self.value
        elif self.kind == "rational":
            d.update(a=self.a, b=self.b, c=self.c)
        return d

    @staticmethod
    def from_dict(d: dict) -> "SequenceSpec":
        kind = d.get("kind")
        if kind == "constant":
            return SequenceSpec("constant", value=float(d.get("value", 0.0)))
        if kind == "rational":
            return SequenceSpec(
                "rational", a=float(d.get("a", 0.0)), b=float(d.get("b", 0.0)), c=float(d.get("c", 0.0))
            )
        if kind in ("one_minus_pow10", "inverse_square"):
            return SequenceSpec(kind)
        raise ValueError(f"unknown sequence kind {kind!r}")


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


# ---------------------------------------------------------------------------
# schedule sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleSet:
    """All per-iteration parameters of the solver, evaluated lazily at n."""

    alpha: SequenceSpec
    beta: SequenceSpec
    theta: SequenceSpec
    mu_seq: SequenceSpec
    p_seq: SequenceSpec
    mu: float
    lambda1: float
    epsilon: float
    theta_floor: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not self.lambda1 > 0.0:
            raise ValueError(f"lambda1 must be positive, got {self.lambda1}")
        if not self.theta_floor > 0.0:
            raise ValueError(f"theta_floor must be positive, got {self.theta_floor}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.to_dict(),
            "beta": self.beta.to_dict(),
            "theta": self.theta.to_dict(),
            "mu_seq": self.mu_seq.to_dict(),
            "p_seq": self.p_seq.to_dict(),
            "mu": self.mu,
            "lambda1": self.lambda1,
            "epsilon": self.epsilon,
            "theta_floor": self.theta_floor,
            "label": self.label,
        }

    @staticmethod
    def from_dict(d: dict) -> "ScheduleSet":
        seqs = {}
        for key in ("alpha", "beta", "theta", "mu_seq", "p_seq"):
            raw = d.get(key, {"kind": "constant", "value": 0.0})
            if isinstance(raw, (int, float)):
                raw = {"kind": "constant", "value": float(raw)}
            seqs[key] = SequenceSpec.from_dict(raw)
        return ScheduleSet(
            mu=float(d["mu"]),
            lambda1=float(d["lambda1"]),
            epsilon=float(d.get("epsilon", 1.2)),
            theta_floor=float(d.get("theta_floor", 0.01)),
            label=str(d.get("label", "")),
            **seqs,
        )


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


@dataclass
class ValidationReport:
    clauses: list[ClauseResult]
    label: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"label": self.label, "passed": self.passed, "clauses": [c.to_dict() for c in self.clauses]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _sample_indices(horizon: int) -> list[int]:
    """Dense prefix then geometric spacing up to and including the horizon."""
    out = list(range(1, min(horizon, 64) + 1))
    n = out[-1]
    while n < horizon:
        n = min(horizon, max(n + 1, int(n * 1.25)))
        out.append(n)
    return out


def validate_c3(s: ScheduleSet, horizon: int = 10**6) -> ValidationReport:
    """Check the admissibility conditions for the weak-convergence regime.

    Clauses, each checked pointwise at geometrically spaced indices up to
    ``horizon`` (monotonicity at consecutive pairs) plus closed-form limits
    where the sequence family provides them:

    i    0 <= alpha_n <= 1
    ii   beta_n nondecreasing with supremum strictly below the epsilon cap
         (auto-satisfied when beta is identically zero)
    iii  theta_floor < theta_n <= theta_{n+1} <= 1/(1+epsilon); epsilon must
         exceed 1 unless beta is identically zero, in which case any
         epsilon >= 0 is admissible
    iv   (1-theta_n)*beta_n + theta_n*alpha_n is nondecreasing
    v    the step increments are nonnegative and summable, and the
         safety-factor relaxations converge to zero

    Failures are report entries, never exceptions; the solver accepts
    non-validated schedules (exploratory runs are legitimate).
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    ns = _sample_indices(horizon)
    relaxed = s.beta.is_identically_zero()
    tol = 1e-12

    clauses: list[ClauseResult] = []

    # (i) primary inertia within [0, 1]
    bad = next((n for n in ns if not -tol <= s.alpha.at(n) <= 1.0 + tol), None)
    clauses.append(
        ClauseResult("i", bad is None, bad, "0 <= alpha_n <= 1" if bad is None else f"alpha_{bad} = {s.alpha.at(bad)!r} outside [0, 1]")
    )

    # (ii) secondary inertia: nonnegative, nondecreasing, capped
    if relaxed:
        clauses.append(ClauseResult("ii", True, None, "beta identically zero: cap not binding"))
    else:
        bad = next((n for n in ns if s.beta.at(n) < -tol), None)
        detail = ""
        if bad is None:
            bad = next((n for n in ns if s.beta.at(n + 1) < s.beta.at(n) - tol), None)
            if bad is not None:
                detail = f"beta not nondecreasing at n = {bad}"
        else:
            detail = f"beta_{bad} negative"
        if bad is None:
            if s.epsilon > 1.0:
                cap = beta_bound(s.epsilon)
                sup = max(max(s.beta.at(n) for n in ns), s.beta.limit())
                if sup >= cap:
                    bad = ns[-1]
                    detail = f"sup beta = {sup:.6g} not strictly below cap {cap:.6g}"
                else:
                    detail = f"sup beta = {sup:.6g} < cap {cap:.6g}"
            else:
                bad = 1
                detail = f"epsilon = {s.epsilon} must exceed 1 when beta is not identically zero"
        clauses.append(ClauseResult("ii", bad is None, bad, detail))

    # (iii) relaxation weights: floored, nondecreasing, capped by 1/(1+epsilon)
    if relaxed or s.epsilon > 1.0:
        cap = 1.0 / (1.0 + s.epsilon)
        bad = None
        detail = f"theta_floor = {s.theta_floor:.6g}, cap = {cap:.6g}"
        for n in ns:
            th, th_next = s.theta.at(n), s.theta.at(n + 1)
            if not (s.theta_floor < th + tol and th <= th_next + tol and th <= cap + tol):
                bad = n
                detail = f"theta_{n} = {th!r} violates floor/monotonicity/cap (cap = {cap:.6g})"
                break
    else:
        bad = 1
        detail = f"epsilon = {s.epsilon} must exceed 1 when beta is not identically zero"
    clauses.append(ClauseResult("iii", bad is None, bad, detail))

    # (iv) blended inertia nondecreasing
    def blended(n: int) -> float:
        th = s.theta.at(n)
        return (1.0 - th) * s.beta.at(n) + th * s.alpha.at(n)

    bad = next((n for n in ns if blended(n + 1) < blended(n) - tol * (1.0 + abs(blended(n)))), None)
    clauses.append(
        ClauseResult(
            "iv",
            bad is None,
            bad,
            "blended inertia nondecreasing" if bad is None else f"decreases between n = {bad} and {bad + 1}",
        )
    )

    # (v) summable step growth, vanishing safety relaxation
    bad = None
    detail_parts = []
    neg = next((n for n in ns if s.p_seq.at(n) < 0.0 or s.mu_seq.at(n) < 0.0), None)
    if neg is not None:
        bad = neg
        detail_parts.append(f"negative increment at n = {neg}")
    # the sequence family is closed, so the series sum decides summability exactly
    total = s.p_seq.series_sum()
    if math.isfinite(total):
        detail_parts.append(f"sum of step increments = {total:.6g}")
    else:
        bad = bad or ns[-1]
        detail_parts.append("step increments not summable")
    if s.mu_seq.limit() != 0.0 or abs(s.mu_seq.at(horizon)) > 1e-3:
        bad = bad or ns[-1]
        detail_parts.append(
            f"safety relaxation does not vanish (limit {s.mu_seq.limit():g}, "
            f"value {s.mu_seq.at(horizon):g} at the horizon)"
        )
    clauses.append(ClauseResult("v", bad is None, bad, "; ".join(detail_parts)))

    return ValidationReport(clauses=clauses, label=s.label)


# ---------------------------------------------------------------------------
# strong/linear regime validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrongParams:
    """Constant-parameter configuration checked for the linear-rate regime.

    ``L`` and ``r`` are the Lipschitz constant and strong-monotonicity
    modulus of the problem; the remaining fields mirror a constant
    :class:`ScheduleSet`.  ``lambda_hat`` and ``tau`` are derived.
    """

    L: float
    r: float
    mu: float
    lambda1: float
    alpha_const: float
    beta_const: float
    theta_const: float

    def __post_init__(self):
        if not (self.L > 0 and self.r > 0):
            raise ValueError("L and r must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not self.lambda1 > 0:
            raise ValueError("lambda1 must be positive")

    @property
    def lambda_hat(self) -> float:
        return min(self.mu / self.L, self.lambda1)

    @property
    def tau(self) -> float:
        return 1.0 - 0.5 * min(1.0 - self.mu, 2.0 * self.lambda_hat * self.r)


@dataclass
class StrongReport:
    tau: float
    lambda_hat: float
    clauses: list[ClauseResult]
    theta_interval: tuple[float, float] | None
    q: float | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "lambda_hat": self.lambda_hat,
            "passed": self.passed,
            "clauses": [c.to_dict() for c in self.clauses],
            "theta_interval": list(self.theta_interval) if self.theta_interval else None,
            "q": self.q,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def contraction_factor(tau: float, alpha: float, beta: float, theta: float) -> float:
    """Per-iteration squared-distance contraction factor of the strong regime."""
    return (1.0 + beta) + theta * (tau * (1.0 + alpha) - (1.0 + beta))


def validate_strong(p: StrongParams) -> StrongReport:
    """Check the constant-parameter conditions for linear convergence.

    Verdicts are computed by direct evaluation of the bounds; nothing is
    presumed feasible.  The report carries the admissible relaxation
    interval (clipped to (0, 1], possibly empty) and the contraction
    factor at the supplied relaxation weight.
    """
    tau, lam_hat = p.tau, p.lambda_hat
    a, b, th = p.alpha_const, p.beta_const, p.theta_const
    clauses: list[ClauseResult] = []

    c1_cap = 0.5 * (1.0 / tau - 1.0)
    ok1 = 0.0 <= b < c1_cap
    clauses.append(ClauseResult("c1", ok1, None if ok1 else 1, f"beta = {b:.6g} vs cap {c1_cap:.6g}"))

    c2_cap = (1.0 - tau) / tau
    ok2 = 0.0 <= a < c2_cap
    clauses.append(ClauseResult("c2", ok2, None if ok2 else 1, f"alpha = {a:.6g} vs cap {c2_cap:.6g}"))

    lower1 = (1.0 - b) / (1.0 + a - b)
    denom = 1.0 + b - tau * (1.0 + a)
    lower2 = b / denom if denom > 0.0 else math.inf
    lower = max(lower1, lower2)

    quad = 1.0 / tau - 1.0 - 2.0 * b
    interval: tuple[float, float] | None = None
    if quad > 0.0:
        disc = (1.0 + b) ** 2 - 4.0 * quad * (b - 1.0)
        upper_root = (-(1.0 + b) + math.sqrt(disc)) / (2.0 * quad)
        upper = min(upper_root, 1.0)
        if lower < upper:
            interval = (lower, upper)
        ok3 = lower < th <= upper
        detail = f"admissible theta interval ({lower:.6g}, {upper:.6g}], theta = {th:.6g}"
        if interval is None:
            detail = f"empty theta interval: lower bound {lower:.6g} >= upper bound {upper:.6g}"
    else:
        ok3 = False
        detail = f"beta cap violated: 1/tau - 1 - 2*beta = {quad:.6g} <= 0"
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
    theta_grid: list[float] | None = None,
) -> list[tuple[StrongParams, StrongReport]]:
    """Grid-search for parameter sets passing :func:`validate_strong`.

    When ``theta_grid`` is omitted, the midpoint of each reported
    admissible interval is tried.  Results are sorted by contraction
    factor, best first.
    """
    found: list[tuple[StrongParams, StrongReport]] = []
    for mu in mu_grid:
        for lam1 in lambda1_grid:
            for a in alpha_grid:
                for b in beta_grid:
                    probe = StrongParams(L, r, mu, lam1, a, b, theta_const=0.5)
                    thetas = theta_grid
                    if thetas is None:
                        rep = validate_strong(probe)
                        if rep.theta_interval is None:
                            continue
                        lo, hi = rep.theta_interval
                        thetas = [0.5 * (lo + hi), hi]
                    for th in thetas:
                        cand = StrongParams(L, r, mu, lam1, a, b, th)
                        rep = validate_strong(cand)
                        if rep.passed:
                            found.append((cand, rep))
    found.sort(key=lambda pr: pr[1].q)
    return found


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _presets() -> dict[str, ScheduleSet]:
    return {
        # no inertia, no relaxation: the classical adaptive-step baseline
        "tseng_plain": ScheduleSet(
            alpha=_ZERO,
            beta=_ZERO,
            theta=constant(1.0),
            mu_seq=_ZERO,
            p_seq=_ZERO,
            mu=0.9,
            lambda1=0.1,
            epsilon=0.0,
            theta_floor=0.5,
            label="tseng_plain",
        ),
        # single constant inertia with constant under-relaxation
        "chc_relaxed": ScheduleSet(
            alpha=constant(0.3),
            beta=_ZERO,
            theta=constant(0.4),
            mu_seq=_ZERO,
            p_seq=_ZERO,
            mu=0.9,
            lambda1=1.0,
            epsilon=1.5,
            theta_floor=0.2,
            label="chc_relaxed",
        ),
        # inertia factor reused as the relaxation weight
        "akh": ScheduleSet(
            alpha=constant(0.3),
            beta=_ZERO,
            theta=constant(0.3),
            mu_seq=_ZERO,
            p_seq=_ZERO,
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
            epsilon=1.2,
            theta_floor=0.4,
            label="paper_default",
        ),
    }


PRESET_NAMES = tuple(sorted(_presets().keys()))


def preset(name: str) -> ScheduleSet:
    """Return a named, fully populated schedule preset."""
    table = _presets()
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return table[name]
