"""Scan statistics: windowed score sums, tilt solving, p-values, thresholds.

The scan statistic is the maximum, over window start positions, of the summed
palindrome scores inside a fixed-width window. Its tail probability is
approximated by a compound-Poisson change of measure: a tilted rate lambda1
and tilt theta1 are chosen so the window mean under the alternative sits at
the threshold, and the exceedance probability follows from a large-deviation
exponent, a Gaussian local-limit factor, and a Monte Carlo overshoot
correction for the discrete ladder of the excess process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    LadderCapError,
    SingularMatrixError,
)
from .mgf import ScoreModel, cumulants
from .numeric import find_root, newton_root

DEFAULT_NU_WALKS = 100_000
LADDER_STEP_CAP = 1_000_000
MAX_CAPPED_FRACTION = 1e-3
SMALL_TILT_NU_LIMIT = 0.05
ALPHA_TOL = 1e-6
NU_FIXED_POINT_STEPS = 10


@dataclass(frozen=True)
class WindowSeries:
    """Sliding-window score sums over a sequence.

    Attributes:
        window: window width in bases.
        total_length: sequence length in bases.
        values: values[t] = sum of scores at positions in (t, t + window],
            for t = 0 .. total_length - window.
    """

    window: int
    total_length: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.total_length - self.window + 1,):
            raise ValueError("values must have length total_length - window + 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def argmax(self) -> int:
        return int(np.argmax(self.values))

    @property
    def max_value(self) -> float:
        return float(self.values[self.argmax])


@dataclass(frozen=True)
class TiltSolution:
    """Tilted alternative matched to a threshold.

    The tilt theta1 and rate lambda1 satisfy the two coupling conditions:
    the tilted rate is lambda0 scaled by the MGF at theta1 (rate matching),
    and the tilted window mean equals the threshold (centering).
    """

    lambda0: float
    lambda1: float
    theta0: float
    theta1: float
    threshold: float
    window: int
    # (phi, phi', phi'') at theta1 as solve_tilt evaluated them, so that
    # p_value need not evaluate the kernel there again
    _cumulants: tuple[float, float, float] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LlrStatistics:
    """Log-likelihood-ratio forms of the scan maxima.

    count_llr transforms the maximal window event count; weighted_llr
    transforms the maximal window score sum. Both are affine in the
    respective maxima, which are reported alongside.
    """

    count_llr: float
    weighted_llr: float
    count_max: float
    score_max: float


@dataclass(frozen=True)
class PvalueReport:
    """Approximate tail probability of the scan maximum at a threshold.

    Attributes:
        rate_function: large-deviation rate of one window at the threshold;
            the exceedance exponent is rate_function * window.
        nu, nu_se: overshoot correction and its Monte Carlo standard error
            (se is 0 when nu was fixed by the caller).
    """

    threshold: float
    window: int
    total_length: int
    p: float
    nu: float
    nu_se: float
    rate_function: float
    tilt: TiltSolution

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must lie in (0, 1]")


def window_scores(events, window: int, total_length: int) -> WindowSeries:
    """Sum scores over every window position in one prefix-sum pass.

    Args:
        events: iterable of (position, score) pairs, positions in
            [0, total_length).
        window: window width.
        total_length: sequence length.

    Raises:
        ValueError: width out of range or an event position outside the
            sequence.
    """
    if not 1 <= window <= total_length:
        raise ValueError("window must satisfy 1 <= window <= total_length")
    pairs = list(events)
    per_position = np.zeros(total_length)
    if pairs:
        pos = np.asarray([p for p, _ in pairs], dtype=np.int64)
        scores = np.asarray([x for _, x in pairs], dtype=float)
        if pos.min() < 0 or pos.max() >= total_length:
            raise ValueError("event position out of range")
        np.add.at(per_position, pos, scores)
    # prefix[k]: total score at positions 0..k. Window t covers positions
    # t + 1 .. t + window, so it sums to prefix[t + window] - prefix[t]; the
    # last window stops at the sequence end.
    prefix = np.cumsum(per_position, out=per_position)
    values = np.empty(total_length - window + 1)
    np.subtract(prefix[window:], prefix[:total_length - window], out=values[:-1])
    values[-1] = prefix[-1] - prefix[total_length - window]
    return WindowSeries(window=window, total_length=total_length, values=values)


def llr_statistics(series: WindowSeries, tilt: TiltSolution,
                   count_series: WindowSeries | None = None) -> LlrStatistics:
    """Likelihood-ratio statistics of a window series under a tilt solution.

    ``count_series`` holds per-window event counts; it defaults to ``series``
    itself, which is only correct when the series was built from unit (count)
    scores.
    """
    if series.window != tilt.window:
        raise ValueError("series and tilt solution use different windows")
    if count_series is None:
        count_series = series
    drift = (tilt.lambda1 - tilt.lambda0) * tilt.window
    count_max = count_series.max_value
    score_max = series.max_value
    ratio = np.log(tilt.lambda1 / tilt.lambda0)
    return LlrStatistics(
        count_llr=float(count_max * ratio - drift),
        weighted_llr=float((tilt.theta1 - tilt.theta0) * score_max - drift),
        count_max=count_max,
        score_max=score_max,
    )


def _condition_scale(window: int, literal_condition: bool) -> float:
    # The centering condition reads "tilted rate times tilted mean score
    # equals the threshold". Per-base rates require the window factor; the
    # literal variant treats the rate as already accumulated over a window.
    return 1.0 if literal_condition else float(window)


def solve_tilt(lambda0: float, sm: ScoreModel, threshold: float, window: int,
               literal_condition: bool = False) -> TiltSolution:
    """Solve the tilt equations for a threshold.

    Substituting the rate-matching condition into the centering condition
    leaves one equation in theta: window * lambda0 * exp(phi(theta)) *
    phi'(theta) = threshold. In log form, phi + log phi' = log(threshold /
    (window * lambda0)), its left side is increasing on (0, t_max) with the
    closed-form slope phi' + phi'' / phi', so it is solved by Newton steps
    kept inside that bracket.

    Raises:
        ValueError: threshold below the null window mean.
        DomainError: threshold not reachable inside the MGF domain.
    """
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    scale = _condition_scale(window, literal_condition)
    _, mean0, var0 = sm.null_cumulants
    null_mean = scale * lambda0 * mean0
    if threshold < null_mean * (1.0 - 1e-12):
        raise ValueError(
            f"threshold {threshold!r} is below the null window mean {null_mean!r}"
        )
    if threshold <= null_mean * (1.0 + 1e-12):
        return TiltSolution(lambda0=lambda0, lambda1=lambda0, theta0=0.0,
                            theta1=0.0, threshold=threshold, window=window)

    log_threshold = np.log(threshold / (scale * lambda0))
    jets = {}  # cumulants at each evaluated theta, reused at the root

    def centering_gap(theta: float) -> tuple[float, float]:
        # log M'(theta) is close to linear in theta, so Newton steps on it
        # converge in a few iterations from the one taken at theta = 0.
        try:
            phi, mean, var = cumulants(sm, theta)
        except (DomainError, SingularMatrixError, FloatingPointError, OverflowError):
            return np.inf, np.nan
        jets[theta] = phi, mean, var
        return phi + np.log(mean) - log_threshold, mean + var / mean

    t_max = sm.domain.t_max
    if np.isfinite(t_max):
        hi = t_max * (1.0 - 1e-10)
    else:
        hi = 1.0
        while centering_gap(hi)[0] < 0.0:
            hi *= 2.0
            if hi > 1e6:
                raise DomainError("threshold unreachable: tilt equation has no root")
    if centering_gap(hi)[0] < 0.0:
        raise DomainError(
            f"threshold {threshold!r} unreachable within the MGF domain"
        )
    start = (log_threshold - np.log(mean0)) / (mean0 + var0 / mean0)  # step from 0
    theta1 = newton_root(centering_gap, 0.0, hi, x=min(start, 0.5 * hi),
                         tol=1e-13)
    jet = jets[theta1] if theta1 in jets else cumulants(sm, theta1)
    lambda1 = lambda0 * float(np.exp(jet[0]))
    tilt = TiltSolution(lambda0=lambda0, lambda1=lambda1, theta0=0.0,
                        theta1=theta1, threshold=threshold, window=window)
    object.__setattr__(tilt, "_cumulants", jet)
    return tilt


def _truncated_poisson_cum(mu: float) -> np.ndarray:
    """Cumulative probabilities of a Poisson(mu) conditioned to be >= 1."""
    norm = -np.expm1(-mu)
    term = mu * np.exp(-mu)
    probs = []
    total = 0.0
    m = 1
    while total < norm * (1.0 - 1e-16) and m <= 400:
        probs.append(term)
        total += term
        m += 1
        term *= mu / m
    cum = np.cumsum(probs) / norm
    cum[-1] = max(cum[-1], 1.0)
    return cum


def overshoot_nu(tilt: TiltSolution, sm: ScoreModel, rng: np.random.Generator,
                 delta: float = 1.0, n_walks: int = DEFAULT_NU_WALKS,
                 step_cap: int = LADDER_STEP_CAP) -> tuple[float, float]:
    """Monte Carlo overshoot correction with a delta-method standard error.

    Each walk accumulates increments observed per stretch of ``delta``
    bases: a Poisson(lambda0 * delta) number of null-tilt scores subtracted
    plus a Poisson(lambda1 * delta) number of theta1-tilted scores added, and
    stops at its first strictly positive level (the first ascending ladder
    height). Zero-event stretches are skipped by drawing the geometric gap to
    the next eventful stretch; skipped stretches still count against the per
    walk step cap.

    Returns:
        (nu, se): the correction (capped at 1, its analytic bound) and its
        standard error.

    Raises:
        ValueError: non-positive tilt gap.
        LadderCapError: more than 0.1% of walks failed to reach a ladder
            height within the step cap.
    """
    dtheta = tilt.theta1 - tilt.theta0
    if dtheta <= 0:
        raise ValueError("overshoot correction requires theta1 > theta0")
    if delta <= 0:
        raise ValueError("delta must be positive")
    from .sim import TiltedScoreSampler  # deferred: sim uses this module's solvers

    null_sampler = TiltedScoreSampler(sm, tilt.theta0)
    tilted_sampler = TiltedScoreSampler(sm, tilt.theta1)
    mu = (tilt.lambda0 + tilt.lambda1) * delta
    p_event = -np.expm1(-mu)
    p_null = tilt.lambda0 / (tilt.lambda0 + tilt.lambda1)
    cum_counts = _truncated_poisson_cum(mu)

    level = np.zeros(n_walks)
    steps = np.zeros(n_walks, dtype=np.int64)
    heights = np.zeros(n_walks)
    capped = np.zeros(n_walks, dtype=bool)
    active = np.arange(n_walks)
    while active.size:
        steps[active] += rng.geometric(p_event, size=active.size)
        over = steps[active] > step_cap
        if over.any():
            capped[active[over]] = True
            active = active[~over]
            if not active.size:
                break
        k = active.size
        m = np.searchsorted(cum_counts, rng.random(k), side="right")
        m = np.minimum(m, cum_counts.size - 1) + 1
        n_null = rng.binomial(m, p_null)
        n_tilt = m - n_null
        y = np.zeros(k)
        total = int(n_null.sum())
        if total:
            y -= np.bincount(np.repeat(np.arange(k), n_null),
                             weights=null_sampler.draw(rng, total), minlength=k)
        total = int(n_tilt.sum())
        if total:
            y += np.bincount(np.repeat(np.arange(k), n_tilt),
                             weights=tilted_sampler.draw(rng, total), minlength=k)
        level[active] += y
        done = level[active] > 0.0
        if done.any():
            idx = active[done]
            heights[idx] = level[idx]
            active = active[~done]

    n_capped = int(capped.sum())
    if n_capped > MAX_CAPPED_FRACTION * n_walks:
        raise LadderCapError(
            f"{n_capped}/{n_walks} walks exceeded the {step_cap}-step cap"
        )
    h = heights[~capped]
    decay = np.exp(-h * dtheta)
    gap = -np.expm1(-dtheta)
    mean_decay = float(decay.mean())
    mean_height = float(h.mean())
    nu = (1.0 - mean_decay) / (gap * mean_height)
    cov = np.cov(np.vstack([decay, h]), ddof=1)
    grad = np.array([
        -1.0 / (gap * mean_height),
        -(1.0 - mean_decay) / (gap * mean_height**2),
    ])
    se = float(np.sqrt(max(grad @ cov @ grad, 0.0) / h.size))
    return min(nu, 1.0), se


def p_value(threshold: float, window: int, total_length: int, lambda0: float,
            sm: ScoreModel, rng: np.random.Generator | None = None, *,
            delta: float = 1.0, n_walks: int = DEFAULT_NU_WALKS,
            nu_fixed: float | None = None, ey1_literal: bool = False,
            literal_condition: bool = False) -> PvalueReport:
    """Tail probability of the scan maximum exceeding a threshold.

    The mean number of exceeding windows is (total_length - window) times
    the overshoot correction, the mean ladder increment, the exponential
    large-deviation factor, and a Gaussian local-limit factor; the p-value is
    its Poisson complement, clamped to [0, 1].

    ``ey1_literal`` replaces the mean ladder increment with the plain
    (threshold - lambda0 * mean score) difference. For the count score the
    local-limit variance uses the tilted second moment, since the score is
    degenerate and its cumulant curvature vanishes.

    Raises:
        ValueError: threshold at or below the null window mean, or missing
            rng for the Monte Carlo overshoot.
    """
    tilt = solve_tilt(lambda0, sm, threshold, window, literal_condition)
    if tilt.theta1 <= 0.0:
        raise ValueError("threshold must strictly exceed the null window mean")
    mu0 = sm.null_cumulants[1]
    _, mean1, var1 = tilt._cumulants
    var_term = mean1 * mean1 if sm.kind == "pcs" else var1
    if nu_fixed is not None:
        nu, nu_se = float(nu_fixed), 0.0
    elif tilt.theta1 < SMALL_TILT_NU_LIMIT:
        # As the tilt vanishes, the overshoot correction tends to 1 while the
        # ladder walk loses its drift (epochs ~ 1/theta1^2 steps), so the
        # Monte Carlo would stall exactly where its answer is known.
        nu, nu_se = 1.0, 0.0
    else:
        if rng is None:
            raise ValueError("rng is required when nu is estimated by Monte Carlo")
        nu, nu_se = overshoot_nu(tilt, sm, rng, delta=delta, n_walks=n_walks)
    if ey1_literal:
        mean_increment = threshold - lambda0 * mu0
    else:
        mean_increment = delta * (tilt.lambda1 * mean1 - lambda0 * mu0)
    exceed_exponent = (
        threshold * (tilt.theta1 - tilt.theta0)
        - window * (tilt.lambda1 - tilt.lambda0)
    )
    local_factor = 1.0 / np.sqrt(2.0 * np.pi * window * tilt.lambda1 * var_term)
    prefactor = (total_length - window) * nu * mean_increment * local_factor
    if prefactor <= 0.0:
        mean_hits = 0.0
    else:
        # Assemble in log space: a far-below-par exponent would overflow the
        # bare exponential even though the p-value just clamps to 1.
        mean_hits = float(np.exp(min(np.log(prefactor) - exceed_exponent, 700.0)))
    p = float(min(max(-np.expm1(-mean_hits), 0.0), 1.0))
    return PvalueReport(threshold=threshold, window=window,
                        total_length=total_length, p=p, nu=nu, nu_se=nu_se,
                        rate_function=exceed_exponent / window, tilt=tilt)


def threshold_for_alpha(alpha: float, window: int, total_length: int,
                        lambda0: float, sm: ScoreModel,
                        rng: np.random.Generator | None = None, *,
                        delta: float = 1.0, n_walks: int = DEFAULT_NU_WALKS,
                        nu_fixed: float | None = None,
                        nu_entropy: int | None = None,
                        ey1_literal: bool = False,
                        literal_condition: bool = False) -> float:
    """Invert the p-value approximation: smallest threshold with p <= alpha.

    The p-value is unimodal in the threshold: an artifact branch rises from
    zero just above the null mean (where the approximation is not valid)
    before the true decaying branch. At a fixed overshoot correction (given
    as ``nu_fixed``, or a trial value below) the search walks a geometric
    grid until it has seen p >= alpha followed by p < alpha, then
    root-finds on that decaying branch.

    With a Monte Carlo correction the threshold is a fixed point in nu:
    invert at nu = 1, estimate nu there, invert again at that fixed nu, and
    so on until two thresholds bracket alpha; a bracketing secant on the
    real p-value then finishes. Every nu estimate restarts from an identical
    generator state (``nu_entropy``; drawn from ``rng`` when not given), so
    the search is deterministic. It typically needs 2 to 6 estimates; more
    when the estimate of nu, which steps slightly between nearby thresholds,
    moves p by more than the tolerance right at the root.
    Both searches stop once |p - alpha| <= 1e-6 or the bracket is narrower
    than 1e-6 times the threshold; with a Monte Carlo nu the p-value at the
    returned threshold is reproduced by ``p_value`` with
    ``default_rng(nu_entropy)``.

    Raises:
        DomainError: no threshold attains alpha (alpha above the branch peak).
        ConvergenceError: the nu fixed point failed to bracket alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if nu_fixed is None and nu_entropy is None:
        if rng is None:
            raise ValueError("need rng, nu_entropy, or nu_fixed")
        nu_entropy = int(rng.integers(2**63))

    def report(b: float, nu: float | None) -> PvalueReport:
        frozen = None if nu is not None else np.random.default_rng(nu_entropy)
        return p_value(b, window, total_length, lambda0, sm, rng=frozen,
                       delta=delta, n_walks=n_walks, nu_fixed=nu,
                       ey1_literal=ey1_literal,
                       literal_condition=literal_condition)

    scale = _condition_scale(window, literal_condition)
    null_mean = scale * lambda0 * sm.null_cumulants[1]

    def invert(nu: float) -> float:
        def gap(b: float) -> float:
            return report(b, nu).p - alpha

        b = null_mean * 1.05
        b_lo = gap_lo = None
        for _ in range(200):
            g = gap(b)
            if g >= 0.0:
                b_lo, gap_lo = b, g
            elif b_lo is not None:
                return float(find_root(gap, b_lo, b, tol=ALPHA_TOL, f_lo=gap_lo, f_hi=g))
            b *= 1.25
        raise DomainError(f"alpha={alpha!r} is not attainable by any threshold")

    if nu_fixed is not None:
        return invert(nu_fixed)

    def mc_gap(b: float) -> float:
        return report(b, None).p - alpha

    # p(b) = 1 - exp(-nu(b) A(b)) with A free of nu, and nu <= 1, so the
    # nu = 1 root lies above the Monte Carlo root. Each step estimates nu at
    # the current threshold and re-inverts at that fixed nu; the steps
    # alternate around the root, and once they bracket it a secant on the
    # real p finishes the search.
    sides = {}  # gap > 0 -> (threshold, gap) of the latest step on that side
    b = invert(1.0)
    for _ in range(NU_FIXED_POINT_STEPS):
        rep = report(b, None)
        g = rep.p - alpha
        if abs(g) <= ALPHA_TOL:
            return b
        sides[g > 0.0] = (b, g)
        if len(sides) == 2:
            (b_lo, g_lo), (b_hi, g_hi) = sides[True], sides[False]
            return float(find_root(mc_gap, b_lo, b_hi, tol=ALPHA_TOL,
                                   f_lo=g_lo, f_hi=g_hi))
        b = invert(rep.nu)
    raise ConvergenceError(
        f"the nu fixed point did not bracket alpha={alpha!r} in "
        f"{NU_FIXED_POINT_STEPS} steps"
    )
