"""Moment-generating functions of palindrome scores under a null model.

Scores attach to palindrome occurrences (see module palindrome): a plain
count (pcs), the length ratio (pls), or minus the log pattern probability
(bws). Conditioned on an occurrence, each score has a moment-generating
function with a closed matrix form built from the quasi transition matrix;
this module evaluates those forms (score_mgf), the cumulant function and its
first two derivatives (cumulants), the domain of valid arguments, and the
log characteristic function of the ladder increment used by the overshoot
correction in module scan.

One kernel serves every evaluator, on two paths that the argument's shape
picks. At a scalar, real or complex, it carries each factor of the matrix
form as a truncated Taylor series in the argument, so the MGF and its first
two derivatives come out of the same block matrix products in closed form,
with one LAPACK inverse (numeric.mat_inv); cumulants and score_mgf take
this path. An array of arguments, such as the overshoot quadrature's nodes
that the log characteristic function passes, gets the MGF's values only:
it is laid out entries-first (entry (i, j) of Q is one array over the
arguments), the 4 x 4 algebra runs as elementwise arithmetic, and the
resolvent enters through one row solve by Gaussian elimination
(numeric.row_solve), in a number of numpy calls that does not grow with
the array's size. The array comes as a NodeGrid, a plain array being the
grid of its points alone: bws raises its bases to the power 1 - z from the
grid's panel layout, one exponential per base and panel start or offset
rather than per base and node. A model with independent bases is the
Markov model iid_model(pi), whose rank-one quasi transition matrix takes
the same paths.

The closed form sums the joint terms E[exp(t * score); half-length = k] =
v Q^(k-1) u over k >= h. The tilted sampler of module sim draws from that
per-length law, built from the factors ScoreModel caches (for bws the
kernel's own _bws_log_base), so it samples the law score_mgf describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

import numpy as np

from .errors import DomainError, SingularMatrixError
from .markov import (MarkovModel, center_pair_probs, markov_rate,
                     quasi_transition_matrix, start_weights)
from .numeric import mat_inv, newton_root, row_solve, spectral_radius, vec_mat

SCORE_KINDS = ("pcs", "pls", "bws")
_EYE = np.eye(4)

# What cumulants raises where the MGF cannot be evaluated: beyond its
# domain, at a singular resolvent, or on overflow
KERNEL_FAILURES = (DomainError, SingularMatrixError, FloatingPointError, OverflowError)


@dataclass(frozen=True)
class ScoreModel:
    """A score kind bound to a null sequence model and detection threshold.

    Attributes:
        kind: "pcs", "pls", or "bws".
        model: the null first-order Markov model.
        half_length: detection threshold h >= half_length.

    Raises:
        DomainError: a quasi transition matrix that is not strictly
            subcritical, or an occurrence rate of 0.
    """

    kind: str
    model: MarkovModel
    half_length: int

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.half_length < 1:
            raise ValueError("half_length must be >= 1")
        radius = spectral_radius(self.t_matrix)
        if radius >= 1.0:
            raise DomainError(
                f"quasi transition matrix must be strictly subcritical, but its "
                f"spectral radius is {radius:.6g}: the chain makes every long "
                f"stretch a palindrome")
        if self.rate <= 0.0:
            raise DomainError(
                f"occurrence rate is 0: the model puts no palindrome of "
                f"half-length {self.half_length} or more at any centre")

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
    def tilt_top(self) -> float:
        """t_max (1 - 1e-10), the top of the interval on which
        scan.solve_tilt and scan.threshold_for_alpha look for a tilt
        (infinite for pcs)."""
        return self.t_max * (1.0 - 1e-10)

    @cached_property
    def edge_cumulants(self) -> tuple[float, float, float] | None:
        """cumulants at tilt_top, or None where the MGF cannot be evaluated
        there (KERNEL_FAILURES)."""
        try:
            return cumulants(self, self.tilt_top)
        except KERNEL_FAILURES:
            return None

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
        if np.any(start < 0):
            raise DomainError("start weights have negative entries; bws undefined")
        return _log_base(np.concatenate((start, self.t_matrix.ravel(), self.closure_probs)))

    @cached_property
    def _bws_distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct, index) of _bws_log_base's logs, by np.unique: T[a, b]
        = T[b', a'] for the complements ', so at most 18 of the 24 entries
        differ, and the node path raises each distinct one once."""
        return np.unique(self._bws_log_base[0], return_inverse=True)


_NO_PANELS = np.zeros(0)
_NO_PANELS.flags.writeable = False


@dataclass(frozen=True)
class NodeGrid:
    """A 1-D array of MGF arguments held as a panel layout: the points one
    by one, then every start plus every offset, start by start (nodes).

    The overshoot quadrature's uniform panels share their Gauss-Legendre
    offsets, so their nodes are the panel starts plus those offsets, and
    the bws kernel raises each base to the power 1 - z as one table over
    the points and starts times one over the offsets (_bws_powers): one
    exponential per base and start or offset rather than per base and node.
    A plain array z is the grid NodeGrid(z), all points and no panels, and
    takes the same code. shape and size are those of nodes, so the grid
    reads like the array it stands for.
    """

    points: np.ndarray
    starts: np.ndarray = field(default_factory=lambda: _NO_PANELS)
    offsets: np.ndarray = field(default_factory=lambda: _NO_PANELS)

    def affine(self, shift, scale) -> NodeGrid:
        """The grid of shift + scale z, in the same layout: the shift goes
        to the points and starts, the scale to all three."""
        if not self.starts.size:  # no panels: spare the empty arithmetic
            return NodeGrid(shift + scale * self.points)
        return NodeGrid(shift + scale * self.points, shift + scale * self.starts,
                        scale * self.offsets)

    @cached_property
    def nodes(self) -> np.ndarray:
        if not self.starts.size:
            return self.points
        return np.concatenate((self.points, np.add.outer(self.starts, self.offsets).ravel()))

    @property
    def shape(self) -> tuple[int]:
        return self.nodes.shape

    @property
    def size(self) -> int:
        return self.nodes.size


def _bws_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, Q, u) of an array laid out as ScoreModel._bws_log_base: its
    first axis's 24 entries become shapes (4,), (4, 4) and (4,), and any
    trailing axes are kept."""
    return a[:4], a[4:20].reshape((4, 4) + a.shape[1:]), a[20:]


def _log_base(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log base, base > 0), the log read as 0 where base is not positive."""
    pos = base > 0
    return np.log(np.where(pos, base, 1.0)), pos


def _power_jet(log_base: tuple[np.ndarray, np.ndarray], z: float | complex,
               order: int = 0) -> list[np.ndarray]:
    """Taylor coefficients in z of the entrywise power base ** (1 - z).

    log_base is _log_base(base). Coefficient j is base ** (1 - z) * (-log
    base) ** j / j!. Zero entries map to zero, matching the limit from
    positive base; z may be complex.
    """
    log_base, pos = log_base
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
    Perron root is the eigenvalue of largest real part. Each step takes one
    eigendecomposition, of Q(t): T[a, b] = T[b', a'] exactly for the
    complements ', so Q(t)^T = J Q(t) J with J the complement swap (the base
    order reversed), and l is r reversed. Where that slope is not finite
    and positive, as on some reducible chains, newton_root bisects instead.
    """
    if sm.kind == "pcs":
        return np.inf
    if sm.kind == "pls":
        radius = spectral_radius(sm.t_matrix)
        return float(-sm.half_length * np.log(radius)) if radius > 0.0 else np.inf
    log_t = _log_base(sm.t_matrix)

    def excess(t: float) -> tuple[float, float]:
        q, dq = _power_jet(log_t, t, 1)
        vals, vecs = np.linalg.eig(q)
        right = vecs[:, np.argmax(vals.real)].real
        left = right[::-1]  # Q^T = J Q J
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(vals).max() - 1.0, (left @ dq @ right) / (left @ right)

    # The edge is located to round-off, so that the resolvent I - Q is
    # numerically singular right at t_max rather than some 1e-9 beyond it.
    hi = 1.0 - 1e-9
    if excess(hi)[0] < 0.0:
        return 1.0
    return newton_root(excess, 0.0, hi, x=0.25, tol=1e-15)


def _require_in_domain(sm: ScoreModel, z) -> None:
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
    concatenation of its coefficients, its first block row. Every
    coefficient is a matrix of one shape.
    """
    k = len(jet)
    if k == 1:
        return jet[0]
    r, c = jet[0].shape
    out = np.zeros((k * r, k * c), dtype=np.result_type(*jet))
    for i in range(k):
        for j in range(i, k):
            out[i * r:(i + 1) * r, j * c:(j + 1) * c] = jet[j - i]
    return out


def _jet_by_blocks(v, q, u, n: int) -> np.ndarray:
    """Taylor coefficients of v Q^n (I - Q)^-1 u (_mgf_jet) at a scalar.

    Every series becomes a block Toeplitz matrix (_toeplitz), so one chain
    of matrix products carries all Taylor coefficients; the resolvent's
    coefficients are W_0 = (I - Q_0)^-1 (numeric.mat_inv) and W_k = W_0
    (Q_1 W_(k-1) + ... + Q_k W_0). Returns shape (order + 1,).
    """
    w = [mat_inv(_EYE - q[0])]
    for k in range(1, len(q)):
        w.append(w[0] @ sum(q[j] @ w[k - j] for j in range(1, k + 1)))
    row = np.concatenate(v)[None, :]
    if n:
        row = row @ np.linalg.matrix_power(_toeplitz(q), n)
    col = _toeplitz([b[:, None] for b in u])
    return (row @ _toeplitz(w) @ col)[0]


def _bws_powers(sm: ScoreModel, grid: NodeGrid) -> np.ndarray:
    """The 24 bases of ScoreModel._bws_log_base raised to the power 1 - z
    at every node of grid, shape (24, N).

    A node s + o of the panels has base ** (1 - s - o) = exp(l (1 - s))
    exp(-l o), l = log base. So each distinct base
    (ScoreModel._bws_distinct) is exponentiated once per point, start and
    offset. The panels' powers, products of a start table entry and an
    offset table entry, are written straight into the output rather than
    into panel-sized temporaries first, which cost more than the product.
    A zero base has start and point entries of exactly 0, so its powers
    stay 0. A plain array (no panels) gets one exponential per base and
    node.
    """
    distinct, index = sm._bws_distinct
    pos = sm._bws_log_base[1]
    n, s, k = grid.points.size, grid.starts.size, grid.offsets.size
    head = np.exp(np.multiply.outer(distinct, 1.0 - np.concatenate((grid.points, grid.starts))))
    head = head[index] if pos.all() else head[index] * pos[:, None]
    tail = np.exp(np.multiply.outer(distinct, -grid.offsets))[index]
    out = np.empty((len(index), n + s * k), dtype=np.result_type(head, tail))
    out[:, :n] = head[:, :n]
    np.multiply(head[:, n:, None], tail[:, None, :], out=out[:, n:].reshape(len(index), s, k))
    return out


def _factors(sm: ScoreModel, z, order: int) -> tuple[list, list, list, int]:
    """Taylor coefficients j = 0 .. order of v, Q and u in M(z) = v Q^n
    (I - Q)^-1 u / rate (_mgf_jet), and n, for pls or bws. A NodeGrid z
    (order 0) lays each coefficient out entries-first, with its nodes on a
    trailing axis: bws takes its node powers from the grid's layout
    (_bws_powers), pls from the nodes themselves."""
    nodes = isinstance(z, NodeGrid)
    h = sm.half_length
    if sm.kind == "bws":
        jet = [_bws_powers(sm, z)] if nodes else _power_jet(sm._bws_log_base, z, order)
        v, q, u = zip(*map(_bws_split, jet))
        return v, q, u, h - 1
    head, t, tail = sm._pls_factors
    if nodes:
        z = z.nodes
        head, t, tail = head[:, None], t[..., None], tail[:, None]
    fact = [float(factorial(j)) for j in range(order + 1)]
    scale, grow = np.exp(z), np.exp(z / h)
    v = [head * (scale / f) for f in fact]
    q = [t * (grow / (h ** j * f)) for j, f in enumerate(fact)]
    return v, q, [tail] + [np.zeros_like(tail)] * order, 0


def _mgf_jet(sm: ScoreModel, z: float | complex, order: int = 0) -> np.ndarray:
    """Taylor coefficients M^(j)(z) / j!, j = 0 .. order, of the score MGF
    at one real or complex argument z (domain checks use Re z).

    pls and bws share one form, M(z) = v Q^n (I - Q)^-1 u / rate:
      - pls: v = e^z pi T^(h-1), Q = e^(z/h) T, n = 0, u = (I - T) c;
      - bws: v, Q, u the entrywise (1 - z) powers of the start weights, T
        and c, and n = h - 1.
    Each factor is carried as a Taylor series in z (_factors), and the
    product of the series, as block matrix products (_jet_by_blocks), gives
    exact derivatives. Returns shape (order + 1,). An array of arguments
    takes _mgf_value.

    Raises:
        DomainError: Re z at or beyond the domain supremum.
        SingularMatrixError: I - Q_0 is numerically singular, i.e. z sits at
            the domain edge to round-off.
    """
    _require_in_domain(sm, z)
    if sm.kind == "pcs":
        return np.exp(z) / np.array([float(factorial(j)) for j in range(order + 1)])
    return _jet_by_blocks(*_factors(sm, z, order)) / sm.rate


def _mgf_value(sm: ScoreModel, z: np.ndarray | NodeGrid) -> np.ndarray:
    """The MGF itself at each of a 1-D array of N real or complex arguments,
    as elementwise arithmetic on node vectors; one argument takes _mgf_jet.

    z is a NodeGrid or a plain array, which is the grid NodeGrid(z); the
    values come in the order of the grid's nodes. v, Q and u (_factors) are
    held entries-first, (4, N) for v and u and (4, 4, N) for Q, and every
    vector-matrix product is numeric.vec_mat, so the number of numpy calls
    does not grow with N, and each node of a plain array gets the value it
    has in any other array. The row r = v Q^n takes n products; the
    resolvent enters through y (I - Q) = r, solved by numeric.row_solve
    without forming an inverse.

    Raises:
        DomainError: Re z at or beyond the domain supremum, at any node.
        SingularMatrixError: I - Q is numerically singular at some node.
    """
    grid = z if isinstance(z, NodeGrid) else NodeGrid(np.asarray(z))
    _require_in_domain(sm, grid.nodes)
    if sm.kind == "pcs":
        return np.exp(grid.nodes)
    (v,), (q,), (u,), n = _factors(sm, grid, 0)
    for _ in range(n):
        v = vec_mat(v, q)
    return vec_mat(row_solve(v, _EYE[..., None] - q), u) / sm.rate


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
    return float(np.real(_mgf_jet(sm, float(t))[0]))


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
    transform E exp(-s Y) at s = -i t, and may be an array of any shape,
    or a NodeGrid, whose nodes give a 1-D result; all MGF values come from
    one batched kernel call. On the line Im t = theta1 / 2 the two MGF
    arguments are complex conjugates, so one evaluation per t serves both,
    and a grid reaches the kernel in its own layout (theta1 + i t has the
    layout of t), which is what lets bws form its node powers per panel
    start and offset (_bws_powers).

    Raises:
        DomainError: an MGF argument outside the domain.
    """
    grid = t if isinstance(t, NodeGrid) else NodeGrid(np.asarray(t, dtype=complex).ravel())
    im = grid.nodes.imag
    mirrored = np.array_equal(theta1 - im, im)  # -i t = conj(theta1 + i t)
    plus = grid.affine(theta1, 1j)
    if mirrored:
        args = NodeGrid(np.concatenate(([0.0, theta1], plus.points)), plus.starts, plus.offsets)
    else:
        args = NodeGrid(np.concatenate(([0.0, theta1], plus.nodes, grid.affine(0.0, -1j).nodes)))
    values = _mgf_value(sm, args)
    k0, k1 = values[:2].real
    m_plus = values[2:2 + grid.size]
    m_minus = np.conj(m_plus) if mirrored else values[2 + grid.size:]
    out = (lambda0 * (m_minus / k0 - 1.0) + lambda1 * (m_plus / k1 - 1.0)).reshape(np.shape(t))
    return out if out.ndim else complex(out)
