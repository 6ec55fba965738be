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
walk as its independent check. The threshold is explicit in theta1, so
threshold_for_alpha, the p-value's inverse, searches over theta1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .mgf import KERNEL_FAILURES, NodeGrid, ScoreModel, _mgf_value, cumulants
from .numeric import ROOT_MAX_ITER, newton_root, read_only

# threshold_for_alpha stops once log E[hits] is within this of its value at
# alpha, which bounds |p / alpha - 1| by about the same figure.
ALPHA_RTOL = 1e-7
# While nu is predicted, threshold_for_alpha computes it afresh once |h| is
# within NU_REFRESH_RTOL[k], k the exact values of nu it holds, and within
# ALPHA_RTOL from len(NU_REFRESH_RTOL) on: a tighter h would only match p to
# alpha under a nu that is still off. Looser values, such as (1e-1, 1e-3),
# save cumulants calls but take more analytic_nu, and one bws analytic_nu
# costs about ten bws cumulants.
NU_REFRESH_RTOL = (1e-2, 1e-4)
# Quadrature of the overshoot integral (see analytic_nu): Gauss-Legendre
# nodes per panel, the width of the uniform panels, and the cut-off of the
# integral for non-lattice scores. Panels 0.5 wide (688 bws nodes at the
# tilts of BoHV-1 thresholds, against 1,296 at 0.25) keep bws nu within
# 3.1e-13 of a layout with four times the nodes (64 per panel) at BoHV-1's
# thresholds for alpha from 0.2 to 1e-6 (W = 135,301, w = 1000), and
# within 1.8e-10 on its iid model, whose nearly periodic integrand has the
# sharpest peaks (1.1e-10 on 17 random dense chains, 1.5e-12 on 10 sparse
# ones; pls nu within 4.4e-16 on all of them). NU_CUTOFF - 1 is a whole
# number of uniform panels at either bws width, so they share their nodes'
# offsets from the panel start, and the bws kernel's exponentials grow with
# panels plus nodes per panel, not with the nodes.
NU_PANEL_NODES = 16
NU_PANEL_WIDTH = 0.5
NU_CUTOFF = 20.0
# A bws score can be nearly periodic: on independent BoHV-1 bases the two
# pair log-probabilities are nearly in ratio 2, and the integrand has peaks
# about 0.1 wide (near t = 3, 6, 9.5, ...) that sharpen as the tilt falls. Below
# this tilt the uniform bws panels are half as wide.
NU_FINE_TILT = 0.1
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
        positions: strictly increasing event positions in [0, total_length),
            whole numbers (integral floats such as 3.0 are accepted).
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
        positions = np.asarray(self.positions)
        if positions.dtype.kind not in "biu" and not np.all(
                np.isfinite(positions) & (np.round(positions) == positions)):
            raise ValueError("event positions must be whole numbers")
        positions = positions.astype(np.int64, copy=False)
        cumulative = np.asarray(self.cumulative, dtype=float)
        if positions.ndim != 1 or cumulative.shape != (positions.size + 1,):
            raise ValueError("cumulative must have one entry more than positions")
        if positions.size and (positions[0] < 0 or positions[-1] >= self.total_length):
            raise ValueError("event position out of range")
        if np.any(np.diff(positions) <= 0) or np.any(np.diff(cumulative) < 0):
            raise ValueError("positions must increase and cumulative must not decrease")
        object.__setattr__(self, "positions", read_only(positions))
        object.__setattr__(self, "cumulative", read_only(cumulative))

    def sums(self, starts) -> np.ndarray:
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
        sums = self.sums(starts)
        k = int(np.argmax(sums))
        return int(starts[k]), float(sums[k])


@dataclass(frozen=True)
class TiltSolution:
    """Tilted alternative matched to a threshold.

    The tilt theta1 > 0 and rate lambda1 satisfy rate matching (lambda1 is
    lambda0 scaled by the MGF at theta1) and centering (the tilted window
    mean is the threshold); cumulants holds (phi, phi', phi'') at theta1.
    """

    lambda0: float
    lambda1: float
    theta1: float
    threshold: float
    window: int
    cumulants: tuple[float, float, float] = field(repr=False, compare=False)


@dataclass(frozen=True)
class PvalueReport:
    """Approximate tail probability of the scan maximum at a threshold.

    Attributes:
        nu, nu_se: overshoot correction and its standard error; nu comes
            from analytic_nu (or was fixed by the caller), so nu_se is 0.
        tilt: the tilt solved for the threshold, which holds the threshold
            and the window.
    """

    p: float
    nu: float
    nu_se: float
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
        ValueError: width out of range, positions not whole numbers, out
            of range or not strictly increasing, one score per position not
            given, or a negative or non-finite score.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all((scores >= 0.0) & (scores < np.inf)):
        raise ValueError("event scores must be finite and non-negative")
    cumulative = np.concatenate(([0.0], np.cumsum(scores)))
    return WindowSeries(window=window, total_length=total_length,
                        positions=positions, cumulative=cumulative)


def null_window_mean(lambda0: float, sm: ScoreModel, window: int) -> float:
    """Mean score sum of a window under the null, window * lambda0 * E s
    (rates per base): the centering condition's threshold at theta1 = 0."""
    return window * lambda0 * sm.null_cumulants[1]


def exceeds_null_mean(lambda0: float, sm: ScoreModel, threshold: float, window: int) -> bool:
    """Whether the threshold exceeds the null window mean by more than
    rounding (1e-12 relative), so that it has a tilt and a p-value."""
    return threshold > null_window_mean(lambda0, sm, window) * (1.0 + 1e-12)


def _log_slope(jet: tuple[float, float, float]) -> float:
    """d log b / d theta1 = phi' + phi'' / phi' at the cumulants jet (phi, phi', phi'')."""
    return jet[1] + jet[2] / jet[1]


def solve_tilt(lambda0: float, sm: ScoreModel, threshold: float,
               window: int) -> TiltSolution:
    """Solve the tilt equations for a threshold.

    Substituting the rate-matching condition into the centering condition
    leaves one equation in theta: exp(phi(theta)) * phi'(theta) / phi'(0) =
    threshold / null_window_mean. Its log form rises on (0, t_max) with the
    closed-form slope _log_slope, and Newton steps kept inside that bracket
    solve it from the step taken at theta = 0, which for pcs (phi(theta) =
    theta, phi' = 1) is the root log(threshold / null_window_mean) exactly.

    Raises:
        ValueError: lambda0 not finite and positive, or threshold not finite.
        DomainError: threshold not above the null window mean
            (exceeds_null_mean), or not reachable inside the MGF domain:
            above the threshold at tilt_top, or at every tilt the kernel
            can evaluate.
    """
    _check_lambda0(lambda0)
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    null_mean = null_window_mean(lambda0, sm, window)
    if not exceeds_null_mean(lambda0, sm, threshold, window):
        raise DomainError(f"threshold {threshold!r} does not exceed the null "
                          f"window mean {null_mean!r}")
    log_ratio = np.log(threshold / null_mean)
    jets = {}  # cumulants at each evaluated theta, reused at the root

    def gap(jet: tuple[float, float, float]) -> tuple[float, float]:
        # log M'(theta) is close to linear in theta, so Newton steps on it
        # converge in a few iterations from the one taken at theta = 0
        return jet[0] + np.log(jet[1] / sm.null_cumulants[1]) - log_ratio, _log_slope(jet)

    def centering_gap(theta: float) -> tuple[float, float]:
        try:
            jets[theta] = cumulants(sm, theta)
        except KERNEL_FAILURES:
            return np.inf, np.nan
        return gap(jets[theta])

    # the cumulants at the top of the bracket depend on sm only
    hi, edge = sm.tilt_top, sm.edge_cumulants
    if edge is not None and gap(edge)[0] < 0.0:
        raise DomainError(f"threshold {threshold!r} unreachable within the MGF domain")
    start = min(log_ratio / _log_slope(sm.null_cumulants), 0.5 * hi)
    # Stop within 1e-14 of theta1, relative (newton_root scales tol by max(1,
    # theta), and start is within 2x of theta1), or 1e-15 as rounding allows
    theta1 = newton_root(centering_gap, 0.0, hi, x=start,
                         tol=max(1e-14 * min(start, 1.0), 1e-15))
    jet = jets[theta1] if theta1 in jets else cumulants(sm, theta1)
    # where the kernel refuses every tilt above those that fall short, the
    # bracket closes on the last of them: a threshold missed, not solved
    if gap(jet)[0] < -1e-9 and all(gap(j)[0] < 0.0 for j in jets.values()):
        raise DomainError(f"threshold {threshold!r} unreachable where the MGF can be "
                          f"evaluated, below theta1 = {theta1!r}")
    return TiltSolution(lambda0, lambda0 * math.exp(jet[0]), theta1, threshold, window, jet)


def _tilt_at(lambda0: float, sm: ScoreModel, theta1: float, window: int) -> TiltSolution:
    """The tilt solution at theta1 > 0 from one cumulants call: solve_tilt's
    equation gives its threshold, null_window_mean e^phi phi' / phi'(0)."""
    jet = cumulants(sm, theta1)
    growth = math.exp(jet[0])  # lambda1 / lambda0, by rate matching
    threshold = null_window_mean(lambda0, sm, window) * growth * jet[1] / sm.null_cumulants[1]
    return TiltSolution(lambda0, lambda0 * growth, theta1, threshold, window, jet)


@lru_cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n
    (read-only, as they are shared)."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _graded_edges(scale: float) -> list[float]:
    """Left edges of panels graded geometrically up to 1: 0, scale,
    2 scale, ... while below 1."""
    edges, edge = [0.0], scale
    while edge < 1.0:
        edges.append(edge)
        edge *= 2.0
    return edges


def _panels(edges: list[float], nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, nodes of each per panel, on the
    panels between consecutive edges, panel by panel."""
    x, g = _gauss_legendre(nodes)
    edges = np.array(edges)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + 0.5 * width * (x + 1.0)).ravel(), (0.5 * width * g).ravel()


@lru_cache
def _uniform_panels(width: float, cutoff: float, nodes: int) -> tuple[np.ndarray, ...]:
    """The bws quadrature's uniform panels from 1 to cutoff, width wide with
    nodes Gauss-Legendre nodes each, laid out once per (width, cutoff,
    nodes) and shared read-only: (starts, offsets, t, g), the panel starts,
    the nodes' offsets from their start, and every node t = start + offset
    with its weight g, panel by panel."""
    starts = np.arange(1.0, cutoff, width)
    offsets, offset_g = _panels([0.0, width], nodes)
    t = np.add.outer(starts, offsets).ravel()
    return tuple(map(read_only, (starts, offsets, t, np.tile(offset_g, starts.size))))


def _nu_quadrature(sm: ScoreModel, theta: float) -> tuple[NodeGrid, np.ndarray]:
    """The MGF arguments of analytic_nu, as one NodeGrid: 0 and theta, then
    c + i t at the quadrature's nodes t >= 0 (c = theta / 2), in the order
    of the weights w, with sum(w f(t)) approximating (1/pi) integral_0^inf
    2c / (c^2 + t^2) f(t) dt for an even f that is the transform of a walk
    increment.

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
    small values. Beyond 1 they are NU_PANEL_WIDTH wide, or half that for
    bws below NU_FINE_TILT: at BoHV-1's bws thresholds (theta1 = 0.13 to
    0.15) that is 5 graded and 38 uniform panels, 688 nodes.

    The lattice kinds' arguments are points. bws keeps the panel layout:
    its uniform panels run from 1 to NU_CUTOFF, a whole number of them, and
    all take the offsets and weights of the one panel [0, width], laid out
    once per width (_uniform_panels) and the same at every tilt, so the
    grid holds 0, theta and the graded panels' arguments as points, c + i s
    for each uniform start s and i o for the 16 offsets o. The kernel's
    node powers then take 18 x (82 + 38 + 16) complex exponentials for the
    18 distinct bases, not 18 x 690.
    """
    c = 0.5 * theta
    if sm.kind in ("pcs", "pls"):
        span = 1.0 if sm.kind == "pcs" else 1.0 / sm.half_length
        a = c * span
        u, g = _panels(_graded_edges(a) + list(np.arange(1.0, np.pi, NU_PANEL_WIDTH)) + [np.pi],
                       NU_PANEL_NODES)
        kernel = np.sinh(a) / (2.0 * np.sinh(0.5 * a) ** 2 + 2.0 * np.sin(0.5 * u) ** 2)
        return NodeGrid(np.concatenate(([0.0, theta], c + 1j * (u / span)))), g * kernel / np.pi
    width = NU_PANEL_WIDTH / (2.0 if theta < NU_FINE_TILT else 1.0)
    graded, graded_g = _panels(_graded_edges(c) + [1.0], NU_PANEL_NODES)
    starts, offsets, uniform_t, uniform_g = _uniform_panels(width, NU_CUTOFF, NU_PANEL_NODES)
    t = np.concatenate((graded, uniform_t))
    g = np.concatenate((graded_g, uniform_g))
    w = g * (2.0 * c / np.pi) / (c * c + t * t)
    far = slice(graded.size, None)  # the uniform panels
    w[far] += g[far] * (2.0 / np.pi) * np.arctan(c / NU_CUTOFF) / (NU_CUTOFF - 1.0)
    points = np.concatenate(([0.0, theta], c + 1j * graded))
    return NodeGrid(points, c + 1j * starts, 1j * offsets), w


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
    psi(0) < 1, so the integrand is smooth and bounded. Per base,

        log psi_y(t) = lambda0 (M(c + i t) / M(0) - 1)
                       + lambda1 (M(c - i t) / M(theta1) - 1),

    M(0) evaluated like M(theta1) rather than taken as 1. M has real
    coefficients, so M(c - i t) is the conjugate of m = M(c + i t), and
    rate matching makes the sum real. Moving the conjugate to the other
    term keeps the real part, and as M(0) and M(theta1) are real that part
    reads Re m alone: lambda0 (Re m / M(0) - 1) + lambda1 (Re m / M(theta1)
    - 1), formed in real arithmetic. Each quotient is taken as Re m times
    the reciprocal, as numpy divides a complex array by a real scalar, so
    nu keeps every bit it had from the complex form. Kept as an exponent,
    log psi_y holds its relative precision where psi is within rounding of
    1. So one kernel call on _nu_quadrature's grid, whose arguments are 0,
    theta1 and then c + i t, gives every MGF value.
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
        at_floor = _tilt_at(tilt.lambda0, sm, floor, tilt.window)
        return 1.0 - theta / floor * (1.0 - analytic_nu(at_floor, sm))
    grid, w = _nu_quadrature(sm, theta)
    values = _mgf_value(sm, grid)
    k0, k1 = values[:2].real
    re = values[2:].real  # Re M(c + i t) = Re M(c - i t)
    log_psi_y = tilt.lambda0 * (re * (1.0 / k0) - 1.0) + tilt.lambda1 * (re * (1.0 / k1) - 1.0)
    eventful = -np.expm1(-(tilt.lambda0 + tilt.lambda1))
    # 1 - psi_x = (1 - psi_y) / P(an event), without forming psi_y near 1
    log_sum = float(w @ -np.log(-np.expm1(log_psi_y) / eventful))
    mean1 = tilt.cumulants[1]
    mean_x = (tilt.lambda1 * mean1 - tilt.lambda0 * sm.null_cumulants[1]) / eventful
    nu = float(np.exp(-log_sum) / (-np.expm1(-theta) * mean_x))
    return min(nu, 1.0)


def _check_lambda0(lambda0: float) -> None:
    if not 0.0 < lambda0 < np.inf:
        raise ValueError(f"lambda0 must be finite and positive, got {lambda0!r}")


def check_scan(window: int, total_length: int, nu_fixed: float | None) -> None:
    """Refuse the scan arguments of p_value and threshold_for_alpha: a fixed
    nu outside (0, 1] or a window under 1 (ValueError), or a window not
    shorter than the sequence (DomainError)."""
    if nu_fixed is not None and not 0.0 < nu_fixed <= 1.0:
        raise ValueError(f"nu_fixed must lie in (0, 1], got {nu_fixed!r}")
    if not window >= 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    if not window < total_length:
        raise DomainError(f"window w={window!r} must be shorter than the "
                          f"sequence, W={total_length!r}")


def _log_hits(tilt: TiltSolution, nu: float, total_length: int, sm: ScoreModel) -> float:
    """log E[hits], the mean number of exceeding windows at a solved tilt for
    the overshoot correction nu (p_value), which may be any positive value.

    Raises:
        DomainError: a tilted score variance of 0 (a score of one value).
    """
    threshold, window, lambda0 = tilt.threshold, tilt.window, tilt.lambda0
    _, mean1, var1 = tilt.cumulants
    var_term = mean1 * mean1 if sm.kind == "pcs" else var1
    if not var_term > 0.0:
        raise DomainError(f"tilted score variance {var_term!r} at theta1={tilt.theta1!r}: "
                          f"a score of one value has no local-limit factor")
    mean_increment = tilt.lambda1 * mean1 - lambda0 * sm.null_cumulants[1]
    exceed_exponent = threshold * tilt.theta1 - window * (tilt.lambda1 - tilt.lambda0)
    local_factor = 1.0 / math.sqrt(2.0 * math.pi * window * tilt.lambda1 * var_term)
    prefactor = (total_length - window) * nu * mean_increment * local_factor
    return math.log(prefactor) - exceed_exponent


def p_value(threshold: float, window: int, total_length: int, lambda0: float,
            sm: ScoreModel, rng: np.random.Generator | None = None, *,
            nu_fixed: float | None = None) -> PvalueReport:
    """Tail probability of the scan maximum exceeding a threshold.

    The mean number of exceeding windows is (total_length - window) times
    the overshoot correction, the mean ladder increment, the exponential
    large-deviation factor, and a Gaussian local-limit factor; the p-value is
    its Poisson complement, 1 - exp(-E[hits]). The overshoot correction is
    ``nu_fixed`` when given, else analytic_nu at the solved tilt. ``rng`` is
    accepted for compatibility and not used: the result is deterministic.

    The mean ladder increment is lambda1 * tilted mean score - lambda0 *
    mean score. For the count score the local-limit variance uses the
    tilted second moment, since the score is degenerate and its cumulant
    curvature vanishes.

    Raises:
        ValueError: nu_fixed outside (0, 1], window under 1, or lambda0
            or threshold refused by solve_tilt.
        DomainError: window not shorter than total_length (check_scan),
            threshold without a tilt (solve_tilt), or a score of one value
            (_log_hits).
    """
    check_scan(window, total_length, nu_fixed)
    tilt = solve_tilt(lambda0, sm, threshold, window)
    nu = float(nu_fixed) if nu_fixed is not None else analytic_nu(tilt, sm)
    # capped where exp would overflow; p is 1 long before that
    p = -math.expm1(-math.exp(min(_log_hits(tilt, nu, total_length, sm), 700.0)))
    return PvalueReport(p=p, nu=nu, nu_se=0.0, tilt=tilt)


def threshold_for_alpha(alpha: float, window: int, total_length: int,
                        lambda0: float, sm: ScoreModel, *,
                        nu_fixed: float | None = None,
                        nu_entropy: int | None = None) -> float:
    """Invert the p-value approximation: smallest threshold with p <= alpha.

    The search is a secant on h(b) = log E[hits] - log(-log(1 - alpha)),
    zero where p = 1 - exp(-E[hits]) is alpha, and finite however near 0 or
    1 p rounds. E[hits] is unimodal in the threshold b: an artifact branch
    rises from zero just above the null mean (where the approximation is not
    valid) to the peak, past which h falls almost linearly, with slope about
    -theta1. h is log M1(b) + log nu(theta1(b)) - log(-log(1 - alpha)),
    where M1, E[hits] at nu = 1, needs only the tilt.

    b rises with theta1 and is explicit in it (_tilt_at), so the search
    runs over theta1 in (0, sm.tilt_top), infinite for pcs, one
    cumulants call per trial, on a model of log nu: log(nu_fixed) when
    ``nu_fixed`` is given; else 0 until the first analytic_nu, then the
    secant in theta1 through the last two exact values, (0, 0) (nu -> 1 as
    theta1 -> 0) standing in for the second while there is one. Starting
    past the peak, each step aims b along dh/db (-theta1, then secants),
    moving theta1 along d log b / d theta1 (_log_slope). h > 0, or
    h < 0 with a secant slope that is not negative (the artifact branch),
    raises the bracket's lo end, any other h lowers hi, and a step that is
    not finite or leaves the bracket bisects it (doubles theta1 while hi is
    infinite). The search stops at |h| <= ALPHA_RTOL. While nu is
    predicted, analytic_nu is computed as soon as |h| is within
    NU_REFRESH_RTOL (1e-2 with no exact value, 1e-4 with one, ALPHA_RTOL
    from two on): a tighter h would only match p to alpha under a nu that
    is still off. The exact value joins the model, h is evaluated again at
    the same tilt, and unless that h stops the search the bracket restarts
    in place from this trial. It forgets its ends and keeps whether h > 0
    at some analytic_nu; the secant keeps its last point, whose h is
    evaluated again under the new model of nu, without a cumulants call. On
    BoHV-1 and its iid model at w = 1000 and alpha from 0.2 down to 1e-12
    that takes 3 analytic_nu (4 for iid bws at 0.2 and 0.05) and at most 9
    trials (6 with nu fixed), one cumulants call each.

    Centering makes p stationary in theta1 (the exponent's slope b - w
    lambda1 phi' is zero), so p_value, which solves theta1 back from b,
    moves p by far less than ALPHA_RTOL. The returned b has |p / alpha -
    1| <= ALPHA_RTOL with analytic_nu's nu, itself accurate to about 3e-6
    for bws. ``nu_entropy`` is ignored (the result is deterministic).

    Raises:
        ValueError: alpha outside (0, 1), nu_fixed outside (0, 1], window
            under 1, or lambda0 not finite and positive.
        DomainError: window not shorter than total_length (check_scan),
            h < 0 at every trial of a closed bracket (alpha above the peak),
            or h > 0 up to the MGF domain edge or, with none at an
            analytic_nu, at every trial; or a score of one value
            (_log_hits).
        SingularMatrixError: a trial tilt at which cumulants refuses the
            MGF, such as one where it cancels to a negative variance.
        ConvergenceError: the bracket about a sign change of h closes
            (spans under 1e-10 of b) before |h| <= ALPHA_RTOL, or the search
            takes ROOT_MAX_ITER trials, restarts included, without stopping.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    check_scan(window, total_length, nu_fixed)
    _check_lambda0(lambda0)
    null_mean = null_window_mean(lambda0, sm, window)
    target = math.log(-math.log1p(-alpha))
    exact = []  # (theta1, log nu) at each analytic_nu so far
    exceeded = False  # h > 0 at some analytic_nu: alpha is attained

    def h_at(tilt: TiltSolution, nu: float | None = None) -> float:
        nu = nu_fixed if nu is None else nu
        if nu is None:
            # the line through the last two of (1, 0), (0, 0) and the exact values
            (ta, la), (tb, lb) = ([(1.0, 0.0), (0.0, 0.0)] + exact)[-2:]
            nu = math.exp(lb + (lb - la) * ((tilt.theta1 - tb) / (tb - ta)))
        return _log_hits(tilt, nu, total_length, sm) - target

    slope0 = _log_slope(sm.null_cumulants)
    z = math.sqrt(2.0 * (math.log(total_length - window) - math.log(alpha)))
    b = null_mean + z * math.sqrt(null_mean * slope0)
    # the Newton step from theta1 = 0 towards b
    x = min(math.log(b / null_mean) / slope0, 0.5 * sm.tilt_top)
    lo, hi, b_lo, b_hi = 0.0, sm.tilt_top, null_mean, math.inf
    last, attained = None, False
    for _ in range(ROOT_MAX_ITER):
        tilt = _tilt_at(lambda0, sm, x, window)
        h, b = h_at(tilt), tilt.threshold
        k = len(exact)
        refresh = nu_fixed is None and abs(h) <= (
            NU_REFRESH_RTOL[k] if k < len(NU_REFRESH_RTOL) else ALPHA_RTOL)
        if refresh:
            # nu was predicted: compute it and evaluate h again here
            nu = analytic_nu(tilt, sm)
            # near the edge of the MGF domain adjacent thresholds can share theta1
            if exact and exact[-1][0] == x:
                exact.pop()
            exact.append((x, math.log(nu)))
            h = h_at(tilt, nu)
            exceeded |= h > 0
        if abs(h) <= ALPHA_RTOL:
            return float(b)
        if refresh:
            # restart the bracket here; the secant keeps its last point,
            # with h evaluated again under the new model of nu
            lo, hi, b_lo, b_hi = 0.0, sm.tilt_top, null_mean, math.inf
            attained = exceeded
            if last is not None:
                last = (last[0], h_at(last[0]))
        # dh/db, about -theta1 at the first trial; once two adjacent tilts
        # share a threshold, infinite or NaN, as a division by +0.0 gives
        if last is None:
            slope = -x
        else:
            dh, db = h - last[1], b - last[0].threshold
            slope = dh / db if db else dh * math.inf
        attained |= h > 0
        if h > 0 or not slope < 0:
            lo, b_lo = x, b
        else:
            hi, b_hi = x, b
        mid = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        # closed once its thresholds are, or no float lies inside it
        if b_hi - b_lo <= 1e-10 * b_lo or not lo < mid < hi:
            # without a hi end h > 0 up to the MGF domain edge
            if not attained or b_hi == math.inf:
                raise DomainError(f"alpha={alpha!r} is not attainable by any threshold")
            raise ConvergenceError(f"threshold search for alpha={alpha!r} closed its "
                                   f"bracket at {b_lo:.10g} before p reached alpha")
        last = (tilt, h)
        # a step in theta1 follows log b, whose slope is closed form; a step
        # that is not finite, or leaves the bracket, bisects it
        step = math.nan
        if slope and math.isfinite(slope) and b - h / slope > 0.0:
            step = math.log((b - h / slope) / b) / _log_slope(tilt.cumulants)
        x = x + step if lo < x + step < hi else mid
    if b_hi == math.inf and not exceeded:  # h > 0 at every trial, none at an analytic_nu
        raise DomainError(f"alpha={alpha!r} is not attainable by any threshold "
                          f"up to {b_lo:.10g}")
    raise ConvergenceError(f"threshold search for alpha={alpha!r} did not "
                           f"converge in {ROOT_MAX_ITER} p-values")
