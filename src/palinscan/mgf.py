"""Moment-generating functions of palindrome scores under a null model.

Scores attach to palindrome occurrences (see module palindrome): a plain
count (pcs), the length ratio (pls), or minus the log pattern probability
(bws). Conditioned on an occurrence, each score has a moment-generating
function with a closed matrix form built from the quasi transition matrix;
this module evaluates those forms, their log (the cumulant function) and its
derivatives, the exact contribution of each palindrome half-length, the
domain of valid arguments, and the characteristic function of the ladder
increment used by the overshoot correction in module scan.

One kernel serves every evaluator: it carries each factor of the matrix form
as a truncated Taylor series in the argument, so the MGF and its first two
derivatives come out of the same matrix products in closed form. The public
evaluators take real arguments; the kernel also takes complex ones, so the
characteristic function reuses the same matrix series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .errors import ConvergenceError, DomainError, SingularMatrixError
from .markov import (
    MarkovModel,
    center_pair_probs,
    iid_match_prob,
    iid_rate,
    markov_rate,
    quasi_transition_matrix,
)
from .numeric import find_root, mat_inv, mat_pow, spectral_radius
from .palindrome import SCORE_KINDS

SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 100_000
_EYE = np.eye(4)


@dataclass(frozen=True)
class ScoreModel:
    """A score kind bound to a null sequence model and detection threshold.

    Attributes:
        kind: "pcs", "pls", or "bws".
        model: the null first-order Markov model.
        half_length: detection threshold h >= half_length.
        iid_mode: evaluate with the closed-form expressions for independent
            bases (using only model.pi) instead of the matrix forms.
        bws_column_start: for bws only, build the start weights from the
            column product (I - T) pi instead of the row product pi (I - T).
            The row form is the default; it is the one that normalises the
            length distribution exactly. The column variant exists for
            comparison.
    """

    kind: str
    model: MarkovModel
    half_length: int
    iid_mode: bool = False
    bws_column_start: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.half_length < 1:
            raise ValueError("half_length must be >= 1")
        if spectral_radius(self.t_matrix) >= 1.0:
            raise ValueError("quasi transition matrix must be strictly subcritical")

    @cached_property
    def t_matrix(self) -> np.ndarray:
        return quasi_transition_matrix(self.model)

    @cached_property
    def closure_probs(self) -> np.ndarray:
        return center_pair_probs(self.model)

    @cached_property
    def start_weights(self) -> np.ndarray:
        """Row vector pi (I - T); component j weights palindromes whose
        outermost left base is j without being extendable one step further."""
        v = self.model.pi - self.model.pi @ self.t_matrix
        v[(v < 0) & (v > -1e-12)] = 0.0
        return v

    @cached_property
    def gamma(self) -> float:
        return iid_match_prob(self.model.pi)

    @cached_property
    def rate(self) -> float:
        """Per-position probability of an occurrence (h >= half_length)."""
        if self.iid_mode:
            return iid_rate(self.model.pi, self.half_length).value
        return markov_rate(self.model, self.half_length).value

    @cached_property
    def domain(self) -> "TiltDomain":
        return mgf_domain(self)

    @cached_property
    def null_cumulants(self) -> tuple[float, float, float]:
        """cumulants at theta = 0: zero up to rounding, then the mean and the
        variance of the score."""
        return cumulants(self, 0.0)

    @cached_property
    def _pls_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pi T^(h-1), T, (I - T) c) of the pls form; 1 x 1 in iid mode."""
        h = self.half_length
        if self.iid_mode:
            g = self.gamma
            return np.array([g ** (h - 1)]), np.array([[g]]), np.array([(1.0 - g) * g])
        t = self.t_matrix
        return self.model.pi @ mat_pow(t, h - 1), t, (_EYE - t) @ self.closure_probs


@dataclass(frozen=True)
class TiltDomain:
    """Supremum of valid MGF arguments for one score kind."""

    kind: str
    t_max: float

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")

    def __contains__(self, t: float) -> bool:
        return t < self.t_max


def _power_jet(base: np.ndarray, z, order: int = 0) -> list[np.ndarray]:
    """Taylor coefficients in z of the entrywise power base ** (1 - z).

    Coefficient j is base ** (1 - z) * (-log base) ** j / j!. Zero entries
    map to zero, matching the limit from positive base; z may be complex.
    """
    pos = base > 0
    log_base = np.log(np.where(pos, base, 1.0))
    jet = [np.exp((1.0 - z) * log_base) * pos]
    for j in range(1, order + 1):
        jet.append(jet[-1] * log_base / -j)
    return jet


def mgf_domain(sm: ScoreModel) -> TiltDomain:
    """Largest open interval (−inf, t_max) on which the MGF converges.

    pcs scores are bounded, so t_max is infinite. pls arguments must keep
    exp(t / half_length) times the spectral radius of the quasi transition
    matrix below 1. bws arguments must keep the tilted matrix subcritical;
    t_max is the root of its spectral radius hitting 1 on (0, 1), or 1 when
    the radius stays below 1 on the whole interval.
    """
    if sm.kind == "pcs":
        return TiltDomain(kind=sm.kind, t_max=np.inf)
    if sm.kind == "pls":
        rho = sm.gamma if sm.iid_mode else spectral_radius(sm.t_matrix)
        return TiltDomain(kind=sm.kind, t_max=-sm.half_length * np.log(rho))

    def excess(t: float) -> float:
        if sm.iid_mode:
            return _iid_match_jet(sm.model.pi, t)[0] - 1.0
        return spectral_radius(_power_jet(sm.t_matrix, t)[0]) - 1.0

    # The edge is located to round-off, so that the resolvent I - Q is
    # numerically singular right at t_max rather than some 1e-9 beyond it.
    hi = 1.0 - 1e-9
    if excess(hi) < 0.0:
        return TiltDomain(kind=sm.kind, t_max=1.0)
    return TiltDomain(kind=sm.kind, t_max=find_root(excess, 0.0, hi, tol=1e-15))


def require_in_domain(sm: ScoreModel, z) -> None:
    """Raise DomainError unless Re(z) is a valid MGF argument for sm."""
    re = float(np.real(z))
    if sm.kind == "bws" and re >= 1.0:
        raise DomainError(f"bws MGF argument must satisfy Re t < 1, got {re!r}")
    t_max = sm.domain.t_max
    if re >= t_max:
        raise DomainError(
            f"{sm.kind} MGF argument {re!r} is outside the domain (max {t_max!r})"
        )


def _iid_match_jet(pi: np.ndarray, z, order: int = 0) -> list:
    """Taylor coefficients in z of the tilted complementary-pair probability
    2 * ((pi_A pi_T) ** (1 - z) + (pi_C pi_G) ** (1 - z)), the tilted analogue
    of gamma."""
    pairs = np.array([pi[0] * pi[3], pi[1] * pi[2]])
    return [2.0 * c.sum() for c in _power_jet(pairs, z, order)]


def _bws_factors(sm: ScoreModel, z, order: int):
    """Series (v, Q, u) of the bws form v Q^(k-1) u for half-length exactly k.

    In matrix mode these are the entrywise (1 - z) powers of the start
    weights, the quasi transition matrix and the closure vector. In iid mode
    they are 1 x 1: the tilted non-match weight (1 - gamma) ** (1 - z) and
    the tilted match probability, twice.
    """
    if sm.iid_mode:
        match = _iid_match_jet(sm.model.pi, z, order)
        v = _power_jet(np.array([1.0 - sm.gamma]), z, order)
        return v, [np.array([[m]]) for m in match], [np.array([m]) for m in match]
    start = sm.start_weights
    if sm.bws_column_start:
        start = (_EYE - sm.t_matrix) @ sm.model.pi
    if np.any(start < 0):
        raise DomainError("start weights have negative entries; bws undefined")
    return (_power_jet(start, z, order), _power_jet(sm.t_matrix, z, order),
            _power_jet(sm.closure_probs, z, order))


def _toeplitz(jet: list[np.ndarray]) -> np.ndarray:
    """Block upper-triangular Toeplitz matrix of a truncated Taylor series.

    Block (i, j) is jet[j - i]. Products of such matrices are the Cauchy
    products of their series, so one chain of matrix products carries every
    Taylor coefficient at once; a row vector's series enters as the plain
    concatenation of its coefficients, its first block row.
    """
    r, c = jet[0].shape
    k = len(jet)
    out = np.zeros((k * r, k * c), dtype=np.result_type(*jet))
    for i in range(k):
        for j in range(i, k):
            out[i * r:(i + 1) * r, j * c:(j + 1) * c] = jet[j - i]
    return out


def _mgf_jet(sm: ScoreModel, z, order: int = 0) -> np.ndarray:
    """Taylor coefficients M^(j)(z) / j!, j = 0 .. order, of the score MGF.

    pls and bws share one form, M(z) = v Q^n (I - Q)^-1 u / rate:
      - pls: v = e^z pi T^(h-1), Q = e^(z/h) T, n = 0, u = (I - T) c;
      - bws: v, Q, u the entrywise (1 - z) powers of the start weights, T
        and c, and n = h - 1.
    In iid mode the same forms hold with 1 x 1 matrices built from gamma.
    Each factor is carried as a Taylor series in z. The resolvent
    W = (I - Q)^-1 has W_0 = (I - Q_0)^-1 and W_k = W_0 (Q_1 W_(k-1) + ...
    + Q_k W_0), which for pls is dR/dz = (e^(z/h) / h) R T R and its
    successor; the product of the series then gives exact derivatives.
    z may be complex (domain checks use Re z).

    Raises:
        DomainError: Re z at or beyond the domain supremum.
        SingularMatrixError: I - Q_0 is numerically singular, i.e. z sits at
            the domain edge to round-off.
    """
    require_in_domain(sm, z)
    fact = np.array([factorial(j) for j in range(order + 1)], dtype=float)
    if sm.kind == "pcs":
        return np.exp(z) / fact
    h = sm.half_length
    if sm.kind == "pls":
        head, t, tail = sm._pls_factors
        grow = np.exp(z / h) / (h ** np.arange(order + 1) * fact)
        v = [head * (np.exp(z) / f) for f in fact]
        q = [t * c for c in grow]
        u = [tail] + [np.zeros_like(tail)] * order
        n = 0
    else:
        v, q, u = _bws_factors(sm, z, order)
        n = h - 1
    w = [mat_inv(np.eye(q[0].shape[0]) - q[0])]
    for k in range(1, order + 1):
        w.append(w[0] @ sum(q[j] @ w[k - j] for j in range(1, k + 1)))
    row = np.concatenate(v)
    if n:
        row = row @ np.linalg.matrix_power(_toeplitz(q), n)
    return row @ _toeplitz(w) @ _toeplitz([b[:, None] for b in u]) / sm.rate


def _mgf_value(sm: ScoreModel, z):
    """The MGF itself at a real or complex argument."""
    return _mgf_jet(sm, z)[0]


def cumulants(sm: ScoreModel, theta: float) -> tuple[float, float, float]:
    """The cumulant function phi = log M and its first two derivatives.

    phi' is the tilted mean score and phi'' the tilted score variance, both
    in closed form from the MGF's Taylor coefficients at theta.

    Raises:
        DomainError: theta at or beyond the domain supremum.
        SingularMatrixError: theta at the domain edge to round-off, where
            the resolvent is singular or the MGF no longer positive.
    """
    if sm.kind == "pcs":
        return float(theta), 1.0, 0.0
    m0, m1, m2 = np.real(_mgf_jet(sm, float(theta), order=2))
    if not (np.isfinite(m0) and m0 > 0.0):
        raise SingularMatrixError(f"MGF is {m0!r} at {theta!r}: resolvent singular")
    mean = m1 / m0
    return float(np.log(m0)), float(mean), float(2.0 * m2 / m0 - mean * mean)


def pls_mgf(sm: ScoreModel, t: float) -> float:
    """MGF of the length-ratio score at t, conditioned on an occurrence.

    Raises:
        DomainError: t at or beyond the domain supremum.
    """
    if sm.kind != "pls":
        raise ValueError("pls_mgf requires a pls score model")
    return float(np.real(_mgf_value(sm, float(t))))


def bws_mgf(sm: ScoreModel, t: float) -> float:
    """MGF of the log-rarity score at t, conditioned on an occurrence.

    Raises:
        DomainError: t at or beyond the domain supremum (always < 1).
    """
    if sm.kind != "bws":
        raise ValueError("bws_mgf requires a bws score model")
    return float(np.real(_mgf_value(sm, float(t))))


def score_mgf(sm: ScoreModel, t: float) -> float:
    """MGF of the configured score kind at t."""
    return float(np.real(_mgf_value(sm, float(t))))


def exact_length_prob(sm: ScoreModel, k: int) -> float:
    """Probability that an occurrence has half-length exactly k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if sm.iid_mode:
        g = sm.gamma
        return float((1.0 - g) * g**k)
    return float(
        sm.start_weights @ mat_pow(sm.t_matrix, k - 1) @ sm.closure_probs
    )


def mgf_at_length(sm: ScoreModel, t: float, k: int) -> float:
    """Joint term E[exp(t * score); half-length = k] for a single centre.

    For bws this is the tilted matrix bracket; for pls and pcs the score is
    a function of k alone, so the term is the exact-length probability times
    the scored exponential.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if sm.kind == "pcs":
        return float(np.exp(t)) * exact_length_prob(sm, k)
    if sm.kind == "pls":
        return float(np.exp(t * k / sm.half_length)) * exact_length_prob(sm, k)
    require_in_domain(sm, t)
    (v,), (q,), (u,) = _bws_factors(sm, t, 0)
    return float(np.real(v @ np.linalg.matrix_power(q, k - 1) @ u))


def mgf_series(sm: ScoreModel, t: float) -> float:
    """MGF recomputed as the sum over half-lengths of mgf_at_length terms.

    Serves as an internal cross-check of the closed matrix forms; truncation
    continues until the term ratio falls below machine-level tolerance.

    Raises:
        ConvergenceError: series fails to decay within the term cap.
    """
    require_in_domain(sm, t)
    total = 0.0
    k = sm.half_length
    while k < sm.half_length + SERIES_MAX_TERMS:
        term = mgf_at_length(sm, t, k)
        total += term
        if k > sm.half_length + 4 and term <= SERIES_RTOL * total:
            return total / sm.rate
        k += 1
    raise ConvergenceError("half-length series did not converge")


def log_mgf(sm: ScoreModel, theta: float) -> float:
    """Cumulant function: log of the score MGF (identity map for pcs)."""
    return cumulants(sm, theta)[0]


def log_mgf_prime(sm: ScoreModel, theta: float) -> float:
    """First derivative of the cumulant function (the tilted mean score)."""
    return cumulants(sm, theta)[1]


def log_mgf_double_prime(sm: ScoreModel, theta: float) -> float:
    """Second derivative of the cumulant function (the tilted score variance)."""
    return cumulants(sm, theta)[2]


def increment_charfn(sm: ScoreModel, lambda0: float, lambda1: float,
                     theta0: float, theta1: float, delta: float,
                     t: float) -> complex:
    """Characteristic function of one ladder increment of the overshoot walk.

    The increment over a stretch of length delta subtracts the scores of a
    Poisson(lambda0 * delta) number of occurrences drawn under tilt theta0
    and adds those of a Poisson(lambda1 * delta) number drawn under tilt
    theta1. Both compound-Poisson factors reduce to evaluations of the score
    MGF at complex arguments theta0 - i t and theta1 + i t.

    Raises:
        DomainError: theta0 or theta1 outside the MGF domain.
    """
    k0 = score_mgf(sm, theta0)
    f_minus = _mgf_value(sm, complex(theta0, -t)) / k0
    f_plus = _mgf_value(sm, complex(theta1, t)) / k0
    first = np.exp(lambda0 * delta * (f_minus - 1.0))
    second = np.exp(-lambda1 * delta + lambda0 * delta * f_plus)
    return complex(first * second)
