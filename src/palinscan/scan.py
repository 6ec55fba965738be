"""Scan statistics: windowed score sums, tilt solving, p-values, thresholds.

The scan statistic is the maximum, over window start positions, of the summed
palindrome scores inside a fixed-width window. Its tail probability is
approximated by a compound-Poisson change of measure: a tilted rate lambda1
and tilt theta1 are chosen so the window mean under the alternative sits at
the threshold, and the exceedance probability follows from a large-deviation
exponent, a Gaussian local-limit factor, and an overshoot correction for the
discrete ladder of the excess process. The correction is computed from the
score MGF by Spitzer's identity and Fourier inversion (analytic_nu), so
every result is deterministic; the test suite keeps a Monte Carlo ladder
walk as its independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, SingularMatrixError
from .mgf import ScoreModel, cumulants, increment_log_charfn
from .numeric import ROOT_MAX_ITER, newton_root

# threshold_for_alpha stops once log(-log(1 - p)) is within this of its value
# at alpha, which bounds |p / alpha - 1| by about the same figure.
ALPHA_RTOL = 1e-7
# When the search bracket closes before that stop, the nearer bracket end is
# a threshold only if its p is within this of alpha; beyond it p jumps across
# alpha between two adjacent thresholds.
BRACKET_RTOL = 1e-6
# Quadrature of the overshoot integral (see analytic_nu): Gauss-Legendre
# nodes per panel, the width of the uniform panels, and the cut-off of the
# integral for non-lattice scores.
NU_PANEL_NODES = 16
NU_PANEL_WIDTH = 0.25
NU_CUTOFF = 20.0
# Near t = 0 the transform's distance from 1 is about (theta / 2)^2 E[s^2]
# (s the null score) in units of its rounding error; below the tilt gap where
# that falls to this value nu is interpolated linearly to nu(0+) = 1.
NU_TILT_FLOOR_GAP = 1e-6


@dataclass(frozen=True)
class WindowSeries:
    """Sliding-window score sums over a sequence, held as the scored event
    positions and the running total of their scores.

    Window t, for t = 0 .. total_length - window, covers positions t + 1 ..
    t + window. Its sum is cumulative[i] - cumulative[j], where i and j
    count the positions <= t + window and <= t, so any window costs two
    binary searches and no per-base array is built. Scores are non-negative
    (window_scores rejects others); see peak for why that matters.

    Attributes:
        window: window width in bases.
        total_length: sequence length in bases.
        positions: strictly increasing event positions in [0, total_length).
        cumulative: cumulative[k] = total score at the first k positions;
            one entry longer than positions and non-decreasing.
    """

    window: int
    total_length: int
    positions: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        if not 1 <= self.window <= self.total_length:
            raise ValueError("window must satisfy 1 <= window <= total_length")
        positions = np.asarray(self.positions, dtype=np.int64)
        cumulative = np.asarray(self.cumulative, dtype=float)
        if positions.ndim != 1 or cumulative.shape != (positions.size + 1,):
            raise ValueError("cumulative must have one entry more than positions")
        if positions.size and (positions[0] < 0 or positions[-1] >= self.total_length):
            raise ValueError("event position out of range")
        if np.any(np.diff(positions) <= 0) or np.any(np.diff(cumulative) < 0):
            raise ValueError("positions must increase and cumulative must not decrease")
        for name, array in (("positions", positions), ("cumulative", cumulative)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _sums(self, starts) -> np.ndarray:
        """Window sums at the given window starts."""
        starts = np.asarray(starts, dtype=np.int64)
        right = np.searchsorted(self.positions, starts + self.window, side="right")
        left = np.searchsorted(self.positions, starts, side="right")
        return self.cumulative[right] - self.cumulative[left]

    def peak(self, lo: int = 0, hi: int | None = None) -> tuple[int, float]:
        """The first of the window starts lo..hi with the largest sum, and
        that sum (hi defaults to the last start).

        Moving a window one base to the left adds the score of the base it
        gains, which is >= 0, and loses only the score at its old right end.
        So the first maximum lies at lo or at a start whose window ends on
        an event, and only those starts are summed. The float sums obey the
        same order, since a running total of non-negative terms never
        decreases, so the result equals a scan over every start exactly.
        """
        last = self.total_length - self.window
        hi = last if hi is None else hi
        if not 0 <= lo <= hi <= last:
            raise ValueError("window starts need 0 <= lo <= hi <= total_length - window")
        w = self.window
        first, stop = np.searchsorted(self.positions, [lo + w, hi + w], side="right")
        starts = np.concatenate(([lo], self.positions[first:stop] - w))
        sums = self._sums(starts)
        k = int(np.argmax(sums))
        return int(starts[k]), float(sums[k])

    @cached_property
    def _overall_peak(self) -> tuple[int, float]:
        return self.peak()

    @property
    def argmax(self) -> int:
        return self._overall_peak[0]

    @property
    def max_value(self) -> float:
        return self._overall_peak[1]

    @cached_property
    def values(self) -> np.ndarray:
        """values[t] = sum of the window at start t, for every start; built
        on first use, as it holds one float per base."""
        n, w = self.total_length, self.window
        # prefix[k] = cumulative[number of positions <= k]
        prefix = np.repeat(self.cumulative, np.diff(self.positions, prepend=0, append=n))
        values = np.empty(n - w + 1)
        np.subtract(prefix[w:], prefix[: n - w], out=values[:-1])
        values[-1] = prefix[-1] - prefix[n - w]
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class TiltSolution:
    """Tilted alternative matched to a threshold.

    The tilt theta1 and rate lambda1 satisfy the two coupling conditions:
    the tilted rate is lambda0 scaled by the MGF at theta1 (rate matching),
    and the tilted window mean equals the threshold (centering). cumulants,
    set by solve_tilt and not an init argument (so replace leaves it None),
    holds (phi, phi', phi'') at theta1 for p_value and analytic_nu.
    """

    lambda0: float
    lambda1: float
    theta1: float
    threshold: float
    window: int
    cumulants: tuple[float, float, float] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PvalueReport:
    """Approximate tail probability of the scan maximum at a threshold.

    Attributes:
        rate_function: large-deviation rate of one window at the threshold;
            the exceedance exponent is rate_function * window.
        nu, nu_se: overshoot correction and its standard error; nu comes
            from analytic_nu (or was fixed by the caller), so nu_se is 0.
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


def window_scores(positions, scores, window: int, total_length: int) -> WindowSeries:
    """Window sums of event scores over every window start.

    Args:
        positions: strictly increasing event positions in [0, total_length),
            such as a PalindromeTable's centers.
        scores: the score at each position, finite and >= 0.
        window: window width.
        total_length: sequence length.

    Raises:
        ValueError: width out of range, positions out of range or not
            strictly increasing, one score per position not given, or a
            negative or non-finite score.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all((scores >= 0.0) & (scores < np.inf)):
        raise ValueError("event scores must be finite and non-negative")
    cumulative = np.concatenate(([0.0], np.cumsum(scores)))
    return WindowSeries(window=window, total_length=total_length,
                        positions=positions, cumulative=cumulative)


def null_window_mean(lambda0: float, sm: ScoreModel, window: int) -> float:
    """Mean score sum of a window under the null: window * lambda0 * E s.

    The centering condition reads "tilted rate times tilted mean score
    equals the threshold". Per-base rates require the window factor; under
    ``sm.compat_paper`` the rate is read as already accumulated over a
    window, and the factor is dropped.
    """
    return (1.0 if sm.compat_paper else window) * lambda0 * sm.null_cumulants[1]


def solve_tilt(lambda0: float, sm: ScoreModel, threshold: float,
               window: int) -> TiltSolution:
    """Solve the tilt equations for a threshold.

    Substituting the rate-matching condition into the centering condition
    leaves one equation in theta: exp(phi(theta)) * phi'(theta) / phi'(0) =
    threshold / null_window_mean. For pcs, phi(theta) = theta and phi' = 1,
    so the root is log(threshold / null_window_mean). For pls and bws the
    log form's left side is increasing on (0, t_max) with the closed-form
    slope phi' + phi'' / phi', so it is solved by Newton steps kept inside
    that bracket.

    Raises:
        ValueError: threshold below the null window mean.
        DomainError: threshold not reachable inside the MGF domain.
    """
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    null_mean = null_window_mean(lambda0, sm, window)
    if threshold < null_mean * (1.0 - 1e-12):
        raise ValueError(
            f"threshold {threshold!r} is below the null window mean {null_mean!r}"
        )
    log_ratio = np.log(threshold / null_mean)
    if threshold <= null_mean * (1.0 + 1e-12):
        theta1, jet = 0.0, sm.null_cumulants
    elif sm.kind == "pcs":
        theta1 = float(log_ratio)
        jet = cumulants(sm, theta1)
    else:
        theta1, jet = _newton_tilt(sm, threshold, log_ratio)
    # rate matching; at theta1 = 0 phi is zero only up to rounding
    lambda1 = lambda0 * float(np.exp(jet[0])) if theta1 else lambda0
    tilt = TiltSolution(lambda0=lambda0, lambda1=lambda1, theta1=theta1,
                        threshold=threshold, window=window)
    object.__setattr__(tilt, "cumulants", jet)
    return tilt


def _newton_tilt(sm: ScoreModel, threshold: float,
                 log_ratio: float) -> tuple[float, tuple[float, float, float]]:
    """Root theta1 of the log-form tilt equation on (0, t_max) for pls and
    bws, and the cumulants there (solve_tilt)."""
    _, mean0, var0 = sm.null_cumulants
    jets = {}  # cumulants at each evaluated theta, reused at the root

    def gap(jet: tuple[float, float, float]) -> tuple[float, float]:
        # log M'(theta) is close to linear in theta, so Newton steps on it
        # converge in a few iterations from the one taken at theta = 0.
        phi, mean, var = jet
        return phi + np.log(mean / mean0) - log_ratio, mean + var / mean

    def centering_gap(theta: float) -> tuple[float, float]:
        try:
            jets[theta] = cumulants(sm, theta)
        except (DomainError, SingularMatrixError, FloatingPointError, OverflowError):
            return np.inf, np.nan
        return gap(jets[theta])

    # the cumulants at the top of the bracket depend on sm only
    hi, edge = sm.edge_cumulants
    if edge is not None and gap(edge)[0] < 0.0:
        raise DomainError(
            f"threshold {threshold!r} unreachable within the MGF domain"
        )
    start = log_ratio / (mean0 + var0 / mean0)  # step from 0
    theta1 = newton_root(centering_gap, 0.0, hi, x=min(start, 0.5 * hi),
                         tol=1e-13)
    return theta1, jets[theta1] if theta1 in jets else cumulants(sm, theta1)


@lru_cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n
    (read-only, as they are shared)."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _graded_panels(scale: float, stop: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, stop]: panels [0, scale],
    [scale, 2 scale], ... doubling up to 1, then panels of NU_PANEL_WIDTH."""
    graded, edge = [0.0], scale
    while edge < 1.0:
        graded.append(edge)
        edge *= 2.0
    uniform = np.arange(1.0, stop, NU_PANEL_WIDTH)
    edges = np.array(graded + list(uniform) + [stop])
    x, g = _gauss_legendre(NU_PANEL_NODES)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + 0.5 * width * (x + 1.0)).ravel(), (0.5 * width * g).ravel()


def _nu_quadrature(sm: ScoreModel, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t >= 0 and weights w with sum(w f(t)) approximating
    (1/pi) integral_0^inf 2c / (c^2 + t^2) f(t) dt for an even f that is
    the transform of a walk increment.

    For a lattice score (pcs has span 1, pls span 1 / half_length) f is
    periodic with period 2 pi / span, and the weight summed over periods is
    the Poisson kernel sinh a / (cosh a - cos u) in u = t span, a = c span,
    whose denominator is taken as 2 sinh^2(a/2) + 2 sin^2(u/2) to avoid
    cancellation; by evenness one half period, u in [0, pi], is enough.

    Otherwise (bws) f is almost periodic and does not decay. The nodes run
    to NU_CUTOFF, and the weight's mass beyond it multiplies the mean of f
    over the uniform panels.

    Either way the panels are graded geometrically from the peak width of
    the weight (a, or c) up to 1, so the nodes follow the tilt down to
    small values.
    """
    if sm.kind in ("pcs", "pls"):
        span = 1.0 if sm.kind == "pcs" else 1.0 / sm.half_length
        a = c * span
        u, g = _graded_panels(a, np.pi)
        kernel = np.sinh(a) / (2.0 * np.sinh(0.5 * a) ** 2 + 2.0 * np.sin(0.5 * u) ** 2)
        return u / span, g * kernel / np.pi
    t, g = _graded_panels(c, NU_CUTOFF)
    w = g * (2.0 * c / np.pi) / (c * c + t * t)
    far = t >= 1.0
    w[far] += g[far] * (2.0 / np.pi) * np.arctan(c / NU_CUTOFF) / (NU_CUTOFF - 1.0)
    return t, w


def _nu_tilt_floor(sm: ScoreModel) -> float:
    """Smallest tilt gap at which analytic_nu uses its quadrature."""
    _, mean0, var0 = sm.null_cumulants
    return 2.0 * float(np.sqrt(NU_TILT_FLOOR_GAP / (var0 + mean0 * mean0)))


def analytic_nu(tilt: TiltSolution, sm: ScoreModel) -> float:
    """Overshoot correction computed from the score MGF.

    The ladder walk adds, per base, the increment Y of solve_tilt's
    compound-Poisson pair: the scores of a Poisson(lambda1) number of
    theta1-tilted occurrences minus those of a Poisson(lambda0) number of
    null ones. Bases without events, which leave it where it is, are
    dropped. X is Y given at least one event, S_n the walk of X steps and
    theta = theta1 (rate matching makes it the root of E exp(-theta Y) =
    1). Spitzer's identities for the ladder height H,
    1 - E exp(-theta H) = exp(-sum_n E[exp(-theta S_n); S_n > 0] / n) and
    E H = E X exp(sum_n P(S_n <= 0) / n), give

        nu = (1 - E exp(-theta H)) / ((1 - exp(-theta)) E H)
           = exp(-C) / ((1 - exp(-theta)) E X),
        C = sum_n E[min(1, exp(-theta S_n))] / n

    (Siegmund, Sequential Analysis, 1985, ch. VIII; Woodroofe, Nonlinear
    Renewal Theory, 1982). By Parseval on the line Re z = c = theta / 2,
    C = (1/pi) integral_0^inf theta / (c^2 + t^2) (-log(1 - psi(t))) dt,
    where psi(t) = E exp(-(c + i t) X) is real on that line and at most
    psi(0) < 1, so the integrand is smooth and bounded; log psi follows
    from increment_log_charfn with one batched MGF evaluation per node.
    Lattice and atoms need no special case, because min(1, exp(-theta x))
    is continuous.

    Accuracy: the quadrature converges in its nodes to below 1e-8, but for
    bws the integral stops at NU_CUTOFF, which leaves nu about 3e-6
    (relative) below its value with a longer cutoff at the benchmark's
    tilts (theta1 = 0.13 to 0.15). The 1e-7 to which threshold_for_alpha
    matches p to alpha is measured against this computed nu.

    Returns:
        nu, capped at 1, its bound for ladder heights of at least 1 (for
        pls, whose ladder heights can be shorter than 1, the uncapped value
        can exceed 1 slightly).

    Raises:
        ValueError: non-positive tilt.
    """
    theta = tilt.theta1
    if theta <= 0:
        raise ValueError("overshoot correction requires theta1 > 0")
    floor = _nu_tilt_floor(sm)
    if theta < floor:
        jet = cumulants(sm, floor)
        at_floor = replace(tilt, theta1=floor,
                           lambda1=tilt.lambda0 * float(np.exp(jet[0])))
        object.__setattr__(at_floor, "cumulants", jet)
        return 1.0 - theta / floor * (1.0 - analytic_nu(at_floor, sm))
    c = 0.5 * theta
    t, w = _nu_quadrature(sm, c)
    log_psi_y = increment_log_charfn(sm, tilt.lambda0, tilt.lambda1, theta,
                                     t + 1j * c).real
    eventful = -np.expm1(-(tilt.lambda0 + tilt.lambda1))
    # 1 - psi_x = (1 - psi_y) / P(an event), without forming psi_y near 1
    log_sum = float(w @ -np.log(-np.expm1(log_psi_y) / eventful))
    mean1 = tilt.cumulants[1]
    mean_x = (tilt.lambda1 * mean1 - tilt.lambda0 * sm.null_cumulants[1]) / eventful
    nu = float(np.exp(-log_sum) / (-np.expm1(-theta) * mean_x))
    return min(nu, 1.0)


def p_value(threshold: float, window: int, total_length: int, lambda0: float,
            sm: ScoreModel, rng: np.random.Generator | None = None, *,
            nu_fixed: float | None = None) -> PvalueReport:
    """Tail probability of the scan maximum exceeding a threshold.

    The mean number of exceeding windows is (total_length - window) times
    the overshoot correction, the mean ladder increment, the exponential
    large-deviation factor, and a Gaussian local-limit factor; the p-value is
    its Poisson complement, clamped to [0, 1]. The overshoot correction is
    ``nu_fixed`` when given, else analytic_nu at the solved tilt. ``rng`` is
    accepted for compatibility and not used: the result is deterministic.

    Under ``sm.compat_paper`` the mean ladder increment is the plain
    (threshold - lambda0 * mean score) difference, and the tilt is centred
    without the window factor (null_window_mean). For the count score the
    local-limit variance uses the tilted second moment, since the score is
    degenerate and its cumulant curvature vanishes.

    Raises:
        ValueError: threshold at or below the null window mean.
    """
    tilt = solve_tilt(lambda0, sm, threshold, window)
    if tilt.theta1 <= 0.0:
        raise ValueError("threshold must strictly exceed the null window mean")
    mu0 = sm.null_cumulants[1]
    _, mean1, var1 = tilt.cumulants
    var_term = mean1 * mean1 if sm.kind == "pcs" else var1
    nu = float(nu_fixed) if nu_fixed is not None else analytic_nu(tilt, sm)
    if sm.compat_paper:
        mean_increment = threshold - lambda0 * mu0
    else:
        mean_increment = tilt.lambda1 * mean1 - lambda0 * mu0
    exceed_exponent = threshold * tilt.theta1 - window * (tilt.lambda1 - tilt.lambda0)
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
                        total_length=total_length, p=p, nu=nu, nu_se=0.0,
                        rate_function=exceed_exponent / window, tilt=tilt)


def threshold_for_alpha(alpha: float, window: int, total_length: int,
                        lambda0: float, sm: ScoreModel,
                        rng: np.random.Generator | None = None, *,
                        nu_fixed: float | None = None,
                        nu_entropy: int | None = None) -> float:
    """Invert the p-value approximation: smallest threshold with p <= alpha.

    p is unimodal in the threshold b: an artifact branch rises from zero just
    above the null mean (where the approximation is not valid) to the peak,
    past which h(b) = log(-log(1 - p)) - log(-log(1 - alpha)) falls almost
    linearly, with slope about -theta1. The search starts past the peak,
    where a Gaussian maximum over the windows would reach alpha, takes a
    Newton step with slope -theta1, then secant steps. It keeps a bracket
    (lo, hi) from (null mean, inf): h > 0, or h < 0 with a secant slope that
    is not negative (the artifact branch), raises lo; any other h < 0 lowers
    hi; a step out of the bracket bisects it (doubles b - null mean while hi
    is infinite). It stops once |h| <= ALPHA_RTOL, so |p / alpha - 1| <=
    ALPHA_RTOL. Once the bracket about a sign change of h is narrower than
    1e-10 of b, it returns the end whose p is nearer alpha, if that p is
    within BRACKET_RTOL of alpha. Both tolerances are on the p computed with
    analytic_nu's nu, itself accurate to about 3e-6 for bws. Without
    ``nu_fixed`` it runs at nu = 1 first, where p-values are cheap, then
    continues from that root on the real p, one analytic_nu per step. p and
    the null mean follow ``sm.compat_paper`` as in p_value. ``rng`` and
    ``nu_entropy`` are ignored (the result is deterministic).

    Raises:
        DomainError: h < 0 throughout a closed bracket (alpha above the
            peak), or p jumps across alpha inside a closed bracket (as for
            pcs under compat_paper, where p falls from 1 to 0).
        ConvergenceError: neither stop in ROOT_MAX_ITER p-values.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    null_mean = null_window_mean(lambda0, sm, window)
    target = np.log(-np.log1p(-alpha))

    def search(b: float, nu: float | None) -> float:
        lo, hi, last, attained = null_mean, np.inf, None, False
        p_lo = p_hi = None
        for _ in range(ROOT_MAX_ITER):
            rep = p_value(b, window, total_length, lambda0, sm, nu_fixed=nu)
            with np.errstate(divide="ignore"):
                h = np.log(-np.log1p(-rep.p)) - target
            if abs(h) <= ALPHA_RTOL:
                return float(b)
            slope = -rep.tilt.theta1 if last is None else (h - last[1]) / (b - last[0])
            attained |= h > 0
            if h > 0 or not slope < 0:
                lo, p_lo = b, rep.p
            else:
                hi, p_hi = b, rep.p
            if hi - lo <= 1e-10 * lo:
                if not attained:
                    raise DomainError(f"alpha={alpha!r} is not attainable by any threshold")
                # attained, so lo was evaluated too
                b, p = min((lo, p_lo), (hi, p_hi), key=lambda e: abs(e[1] / alpha - 1.0))
                if abs(p / alpha - 1.0) > BRACKET_RTOL:
                    raise DomainError(
                        f"p jumps from {p_lo:.3g} to {p_hi:.3g} between thresholds "
                        f"{lo:.10g} and {hi:.10g}, across alpha={alpha!r}")
                return float(b)
            last = (b, h) if np.isfinite(h) else None
            with np.errstate(divide="ignore", invalid="ignore"):
                b = b - h / slope
            if not lo < b < hi:
                b = 0.5 * (lo + hi) if hi < np.inf else 2.0 * lo - null_mean
        raise ConvergenceError(f"threshold search for alpha={alpha!r} did not "
                               f"converge in {ROOT_MAX_ITER} p-values")

    _, mean0, var0 = sm.null_cumulants
    z = np.sqrt(2.0 * np.log(max(total_length - window, 1) / alpha))
    b = search(null_mean + z * np.sqrt(null_mean * (mean0 + var0 / mean0)),
               1.0 if nu_fixed is None else nu_fixed)
    return b if nu_fixed is not None else search(b, None)
