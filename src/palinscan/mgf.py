"""Moment-generating functions of palindrome scores under a null model.

Scores attach to palindrome occurrences (see module palindrome): a plain
count (pcs), the length ratio (pls), or minus the log pattern probability
(bws). Conditioned on an occurrence, each score has a moment-generating
function with a closed matrix form built from the quasi transition matrix;
this module evaluates those forms (score_mgf), the cumulant function and its
first two derivatives (cumulants), the domain of valid arguments, and the
log characteristic function of the ladder increment used by the overshoot
correction in module scan.

One kernel serves every evaluator: it carries each factor of the matrix form
as a truncated Taylor series in the argument, so the MGF and its first two
derivatives come out of the same matrix products in closed form. score_mgf
and cumulants take real arguments; the kernel also takes complex ones, one
or a whole array at a time, so the log characteristic function reuses the
same series at every quadrature node. The factors are laid out
entries-first: for N arguments, entry (i, j) of Q is one length-N array.
An array of STACK_MIN_NODES arguments or more, such as the overshoot
quadrature's nodes, runs the 4 x 4 algebra as elementwise arithmetic on
these node vectors, with a Gauss-Jordan inverse (numeric.stack_inv), so
its cost in numpy calls does not grow with N. One argument, or a few, runs
as matrix products with one LAPACK inverse per argument, which takes fewer
numpy calls there. A model with independent bases is the Markov model
iid_model(pi), whose rank-one quasi transition matrix takes the same path.

The per-length law behind the closed form, E[exp(t * score); half-length
= k] (length_terms, and mgf_at_length for one k), is read from the factors
the kernel caches on ScoreModel, so the tilted sampler of module sim, which
draws from that law, follows the same conventions (compat_paper included).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import factorial
from operator import add

import numpy as np

from .errors import DomainError, SingularMatrixError
from .markov import (MarkovModel, center_pair_probs, markov_rate,
                     quasi_transition_matrix, start_weights)
from .numeric import mat_inv, newton_root, spectral_radius, stack_inv, vec_mat

SCORE_KINDS = ("pcs", "pls", "bws")
_EYE = np.eye(4)
# The MGF kernel evaluates an array of at least this many arguments as
# elementwise arithmetic on node vectors (_jet_by_entries), and fewer as
# matrix products argument by argument (_jet_by_blocks), which cost less
# there: the two break even at about 30 to 100 arguments.
STACK_MIN_NODES = 64


@dataclass(frozen=True)
class ScoreModel:
    """A score kind bound to a null sequence model and detection threshold.

    Attributes:
        kind: "pcs", "pls", or "bws".
        model: the null first-order Markov model.
        half_length: detection threshold h >= half_length.
        compat_paper: use the paper's literal conventions, for comparison
            with the internally consistent defaults: the bws MGF takes its
            start weights from the column product (I - T) pi instead of the
            row product pi (I - T), which is the one that normalises the
            length distribution exactly; the tilt is centred on
            lambda1 * phi'(theta1) = b instead of w * lambda1 * phi'(theta1)
            = b (scan.null_window_mean); and the p-value's mean ladder
            increment is b - lambda0 * mean score (scan.p_value).
    """

    kind: str
    model: MarkovModel
    half_length: int
    compat_paper: bool = False

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
        """Row vector pi (I - T) (markov.start_weights)."""
        return start_weights(self.model)

    @cached_property
    def rate(self) -> float:
        """Per-position probability of an occurrence (h >= half_length)."""
        return markov_rate(self.model, self.half_length).value

    @cached_property
    def t_max(self) -> float:
        """Supremum of valid MGF arguments (mgf_domain)."""
        return mgf_domain(self)

    @cached_property
    def edge_cumulants(self) -> tuple[float, tuple[float, float, float] | None]:
        """(theta, cumulants at theta) for theta = t_max (1 - 1e-10), the top
        of the interval on which scan.solve_tilt looks for a pls or bws
        tilt; the cumulants are None where the MGF cannot be evaluated
        there."""
        theta = self.t_max * (1.0 - 1e-10)
        try:
            return theta, cumulants(self, theta)
        except (DomainError, SingularMatrixError, FloatingPointError, OverflowError):
            return theta, None

    @cached_property
    def null_cumulants(self) -> tuple[float, float, float]:
        """cumulants at theta = 0: zero up to rounding, then the mean and the
        variance of the score."""
        return cumulants(self, 0.0)

    @cached_property
    def _pls_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pi T^(h-1), T, (I - T) c) of the pls form."""
        t = self.t_matrix
        head = self.model.pi @ np.linalg.matrix_power(t, self.half_length - 1)
        return head, t, (_EYE - t) @ self.closure_probs

    @cached_property
    def _bws_log_base(self) -> tuple[np.ndarray, np.ndarray]:
        """_log_base of the bases the bws form raises to the power 1 - z,
        as one vector of 24 entries: the start weights, T row by row and
        the closure vector (_bws_split takes them apart).

        Raises:
            DomainError: start weights with negative entries.
        """
        start = self.start_weights
        if self.compat_paper:
            start = (_EYE - self.t_matrix) @ self.model.pi
        if np.any(start < 0):
            raise DomainError("start weights have negative entries; bws undefined")
        return _log_base(np.concatenate((start, self.t_matrix.ravel(), self.closure_probs)))


def _bws_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, Q, u) of an array laid out as ScoreModel._bws_log_base: its
    first axis's 24 entries become shapes (4,), (4, 4) and (4,), and any
    trailing axes are kept."""
    return a[:4], a[4:20].reshape((4, 4) + a.shape[1:]), a[20:]


def _log_base(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log base, base > 0), the log read as 0 where base is not positive."""
    pos = base > 0
    return np.log(np.where(pos, base, 1.0)), pos


def _power_jet(log_base: tuple[np.ndarray, np.ndarray], z,
               order: int = 0) -> list[np.ndarray]:
    """Taylor coefficients in z of the entrywise power base ** (1 - z).

    log_base is _log_base(base). Coefficient j is base ** (1 - z) * (-log
    base) ** j / j!. Zero entries map to zero, matching the limit from
    positive base; z may be complex, and an array of z gives coefficients
    laid out entries-first, of shape base.shape + (len(z),).
    """
    log_base, pos = log_base
    if np.ndim(z):
        # equal entries share one exponential: T[a, b] = T[b', a'] for the
        # complements ', so at most 18 of the 24 bws entries differ
        distinct, index = np.unique(log_base, return_inverse=True)
        power = np.exp(np.multiply.outer(distinct, 1.0 - z))[index.reshape(log_base.shape)]
        log_base, pos = log_base[..., None], pos[..., None]
    else:
        power = np.exp(log_base * (1.0 - z))
    jet = [power if pos.all() else power * pos]
    for j in range(1, order + 1):
        jet.append(jet[-1] * log_base / -j)
    return jet


def mgf_domain(sm: ScoreModel) -> float:
    """Supremum t_max of the open interval (−inf, t_max) on which the MGF
    converges (cached as ScoreModel.t_max).

    pcs scores are bounded, so t_max is infinite. pls arguments must keep
    exp(t / half_length) times the spectral radius of the quasi transition
    matrix below 1. bws arguments must keep the tilted matrix Q(t), T to the
    entrywise power 1 - t, subcritical; t_max is the root of rho(Q(t)) = 1
    on (0, 1), or 1 when the radius stays below 1 on the whole interval.
    The root comes from Newton steps with the slope of a simple eigenvalue,
    l Q'(t) r / (l r) for the left and right Perron vectors l and r
    (Magnus, Econometric Theory 1985), Q' from the kernel's _power_jet; the
    Perron root is the eigenvalue of largest real part. Where that slope is
    not finite and positive, as on some reducible chains, newton_root
    bisects instead.
    """
    if sm.kind == "pcs":
        return np.inf
    if sm.kind == "pls":
        return float(-sm.half_length * np.log(spectral_radius(sm.t_matrix)))
    log_t = _log_base(sm.t_matrix)

    def excess(t: float) -> tuple[float, float]:
        q, dq = _power_jet(log_t, t, 1)
        right, left = (vecs[:, np.argmax(vals.real)].real
                       for vals, vecs in map(np.linalg.eig, (q, q.T)))
        with np.errstate(divide="ignore", invalid="ignore"):
            return spectral_radius(q) - 1.0, (left @ dq @ right) / (left @ right)

    # The edge is located to round-off, so that the resolvent I - Q is
    # numerically singular right at t_max rather than some 1e-9 beyond it.
    hi = 1.0 - 1e-9
    if excess(hi)[0] < 0.0:
        return 1.0
    return newton_root(excess, 0.0, hi, x=0.25, tol=1e-15)


def require_in_domain(sm: ScoreModel, z) -> None:
    """Raise DomainError unless Re(z) is a valid MGF argument for sm (for
    every entry when z is an array)."""
    re = np.real(z)
    re = float(re if isinstance(re, float) else re.max())
    t_max = sm.t_max
    if re >= t_max:
        raise DomainError(
            f"{sm.kind} MGF argument {re!r} is outside the domain (max {t_max!r})"
        )


def _toeplitz(jet: list[np.ndarray]) -> np.ndarray:
    """Block upper-triangular Toeplitz matrix of a truncated Taylor series.

    Block (i, j) is jet[j - i]. Products of such matrices are the Cauchy
    products of their series, so one chain of matrix products carries every
    Taylor coefficient at once; a row vector's series enters as the plain
    concatenation of its coefficients, its first block row. Leading axes are
    a stack of series, one per argument; every coefficient has one shape.
    """
    k = len(jet)
    if k == 1:
        return jet[0]
    *stack, r, c = jet[0].shape
    out = np.zeros((*stack, k * r, k * c), dtype=np.result_type(*jet))
    for i in range(k):
        for j in range(i, k):
            out[..., i * r:(i + 1) * r, j * c:(j + 1) * c] = jet[j - i]
    return out


def _jet_by_entries(v, q, u, n: int) -> np.ndarray:
    """Taylor coefficients of v Q^n (I - Q)^-1 u (_mgf_jet) at N arguments,
    as elementwise arithmetic on node vectors.

    Every coefficient is held entries-first, (4, N) for v and u and
    (4, 4, N) for Q, and every vector-matrix product is numeric.vec_mat,
    so the number of numpy calls does not grow with N. The row r = v Q^n
    is n Cauchy products of series, r_k = r_0 Q_k + ... + r_k Q_0; the
    resolvent enters through the series y = r W, which solves y (I - Q) = r
    order by order: y_k = (r_k + y_(k-1) Q_1 + ... + y_0 Q_k) W_0, with W_0
    = (I - Q_0)^-1 from numeric.stack_inv. Returns shape (N, order + 1).
    """
    order = len(q) - 1
    w0 = stack_inv(_EYE[..., None] - q[0])
    for _ in range(n):
        v = [reduce(add, [vec_mat(v[j], q[k - j]) for j in range(k + 1)])
             for k in range(order + 1)]
    y = []
    for k in range(order + 1):
        rhs = reduce(add, [v[k]] + [vec_mat(y[k - j], q[j]) for j in range(1, k + 1)])
        y.append(vec_mat(rhs, w0))
    return np.stack([reduce(add, [vec_mat(y[j], u[k - j]) for j in range(k + 1)])
                     for k in range(order + 1)], axis=-1)


def _jet_by_blocks(v, q, u, n: int) -> np.ndarray:
    """Taylor coefficients of v Q^n (I - Q)^-1 u (_mgf_jet) by matrix
    products, argument by argument.

    Every series becomes a block Toeplitz matrix (_toeplitz), so one chain
    of matrix products carries all Taylor coefficients; the resolvent's
    coefficients are W_0 = (I - Q_0)^-1 (numeric.mat_inv) and W_k = W_0
    (Q_1 W_(k-1) + ... + Q_k W_0). Returns shape (order + 1,) for one
    argument, (N, order + 1) for N.
    """
    if q[0].ndim > 2:  # the argument axis goes first
        v, u, q = [c.T for c in v], [c.T for c in u], [c.transpose(2, 0, 1) for c in q]
    w = [mat_inv(_EYE - q[0])]
    for k in range(1, len(q)):
        w.append(w[0] @ sum(q[j] @ w[k - j] for j in range(1, k + 1)))
    row = np.concatenate(v, axis=-1)[..., None, :]
    if n:
        row = row @ np.linalg.matrix_power(_toeplitz(q), n)
    col = _toeplitz([b[..., None] for b in u])
    return (row @ _toeplitz(w) @ col)[..., 0, :]


def _mgf_jet(sm: ScoreModel, z, order: int = 0) -> np.ndarray:
    """Taylor coefficients M^(j)(z) / j!, j = 0 .. order, of the score MGF.

    pls and bws share one form, M(z) = v Q^n (I - Q)^-1 u / rate:
      - pls: v = e^z pi T^(h-1), Q = e^(z/h) T, n = 0, u = (I - T) c;
      - bws: v, Q, u the entrywise (1 - z) powers of the start weights, T
        and c, and n = h - 1.
    Each factor is carried as a Taylor series in z, and the product of the
    series gives exact derivatives. An array of z lays the coefficients out
    entries-first, with the arguments on a trailing axis. An array of at
    least STACK_MIN_NODES arguments is evaluated as elementwise arithmetic
    on node vectors (_jet_by_entries); a scalar or a smaller array by
    matrix products, argument by argument (_jet_by_blocks). z may be
    complex (domain checks use Re z); the result has shape z.shape +
    (order + 1,).

    Raises:
        DomainError: Re z at or beyond the domain supremum.
        SingularMatrixError: I - Q_0 is numerically singular, i.e. z sits at
            the domain edge to round-off.
    """
    require_in_domain(sm, z)
    fact = [float(factorial(j)) for j in range(order + 1)]
    if sm.kind == "pcs":
        return np.divide.outer(np.exp(z), fact)
    shape = np.shape(z)
    if shape:  # one trailing axis of arguments
        z = np.ravel(z)
    h = sm.half_length
    if sm.kind == "pls":
        head, t, tail = sm._pls_factors
        if shape:
            head, t, tail = head[:, None], t[..., None], tail[:, None]
        scale, grow = np.exp(z), np.exp(z / h)
        v = [head * (scale / f) for f in fact]
        q = [t * (grow / (h ** j * f)) for j, f in enumerate(fact)]
        u = [tail] + [np.zeros_like(tail)] * order
        n = 0
    else:
        v, q, u = zip(*map(_bws_split, _power_jet(sm._bws_log_base, z, order)))
        n = h - 1
    product = _jet_by_entries if shape and z.size >= STACK_MIN_NODES else _jet_by_blocks
    return (product(v, q, u, n) / sm.rate).reshape(shape + (order + 1,))


def _mgf_value(sm: ScoreModel, z):
    """The MGF itself at a real or complex argument, or at each of an array."""
    return _mgf_jet(sm, z)[..., 0]


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


def score_mgf(sm: ScoreModel, t: float) -> float:
    """MGF of the configured score kind at t, conditioned on an occurrence.

    Raises:
        DomainError: t at or beyond the domain supremum.
    """
    return float(np.real(_mgf_value(sm, float(t))))


def length_terms(sm: ScoreModel, t: float, k_max: int) -> np.ndarray:
    """Joint terms E[exp(t * score); half-length = k], k = 1 .. k_max, for
    a single centre; entry k - 1 is the term of half-length k.

    The term is v Q^(k-1) u from the factors the kernel caches: the start
    weights, T and the closure vector, with exp(t) folded into v for pcs and
    exp(t / h) into Q and u for pls (the score k / h gains 1 / h per step);
    for bws their entrywise (1 - t) powers (the kernel's _bws_log_base, so
    compat_paper applies). The terms from k = h on sum to score_mgf(sm, t)
    * sm.rate.

    Raises:
        DomainError: t at or beyond the domain supremum.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    require_in_domain(sm, t)
    v, q, u = sm.start_weights, sm.t_matrix, sm.closure_probs
    if sm.kind == "pcs":
        v = np.exp(t) * v
    elif sm.kind == "pls":
        grow = np.exp(t / sm.half_length)
        q, u = grow * q, grow * u
    else:
        v, q, u = _bws_split(_power_jet(sm._bws_log_base, t)[0])
    rows = np.empty((k_max, 4))
    rows[0] = v
    for k in range(1, k_max):
        rows[k] = rows[k - 1] @ q
    return rows @ u


def mgf_at_length(sm: ScoreModel, t: float, k: int) -> float:
    """Joint term E[exp(t * score); half-length = k] for a single centre
    (length_terms); at t = 0 on a pcs or pls model, the probability that a
    centre holds a palindrome of half-length exactly k."""
    return float(length_terms(sm, t, k)[-1])


def increment_log_charfn(sm: ScoreModel, lambda0: float, lambda1: float,
                         theta1: float, t):
    """Log of the characteristic function E exp(i t Y) of one base's increment Y.

    The increment over one base subtracts the scores of a Poisson(lambda0)
    number of null occurrences and adds those of a Poisson(lambda1) number
    drawn under tilt theta1, so log E exp(i t Y) = lambda0 (M(-i t) / M(0)
    - 1) + lambda1 (M(theta1 + i t) / M(theta1) - 1), with M(0) evaluated
    like M(theta1) rather than taken as 1. A stretch of d bases is the same
    increment with both rates scaled by d. The exponent is returned rather
    than the transform because it keeps its relative precision where the
    transform is within rounding of 1.

    t may be complex, which makes this the log of the two-sided Laplace
    transform E exp(-s Y) at s = -i t, and may be an array; all MGF values
    come from one batched kernel call. On the line Im t = theta1 / 2 the two
    MGF arguments are complex conjugates, so one evaluation per t serves
    both.

    Raises:
        DomainError: an MGF argument outside the domain.
    """
    t = np.asarray(t, dtype=complex)
    plus = (theta1 - t.imag) + 1j * t.real    # theta1 + i t
    minus = t.imag - 1j * t.real              # -i t
    mirrored = np.array_equal(minus, np.conj(plus))
    args = [[0.0, theta1], plus.ravel()] + ([] if mirrored else [minus.ravel()])
    values = _mgf_value(sm, np.concatenate(args))
    k0, k1 = values[:2].real
    m_plus = values[2:2 + t.size].reshape(t.shape)
    m_minus = np.conj(m_plus) if mirrored else values[2 + t.size:].reshape(t.shape)
    out = lambda0 * (m_minus / k0 - 1.0) + lambda1 * (m_plus / k1 - 1.0)
    return out if out.ndim else complex(out)
