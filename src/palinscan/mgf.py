"""Moment-generating functions of palindrome scores under a null model.

Scores attach to palindrome occurrences (see module palindrome): a plain
count (pcs), the length ratio (pls), or minus the log pattern probability
(bws). Conditioned on an occurrence, each score has a moment-generating
function with a closed matrix form built from the quasi transition matrix;
this module evaluates those forms (score_mgf), the cumulant function and its
first two derivatives (cumulants) and the domain of valid arguments.

The kernel has two entries. At one real tilt, cumulants gives phi = log M
and its first two derivatives, each kind in its own closed form, and
score_mgf is e^phi. At an array of real or complex arguments, such as the
ones scan.analytic_nu passes for its overshoot quadrature, _mgf_value gives
the MGF's values, in a number of numpy calls that does not grow with the
array's size. pcs is e^z. pls is a ratio of two fixed polynomials in s =
e^(z/h), M = e^z N(s) / D(s), whose coefficients ScoreModel caches: at a
tilt its cumulants are log-derivatives of N and D, at an array Horner's
rule evaluates the ratio, and neither takes matrix algebra. bws, whose
entrywise powers of T have no such form, keeps the matrix form. At a tilt
it carries each factor as a truncated Taylor series in the tilt, so the MGF
and its first two derivatives come out of the same block matrix products,
with one LAPACK inverse (numeric.mat_inv). At an array it lays the factors
out entries-first (entry (i, j) of Q is one array over the arguments), the
4 x 4 algebra runs as elementwise arithmetic, and the resolvent enters
through one row solve by Gaussian elimination (numeric.row_solve). The
array comes as a NodeGrid, a plain array being the grid of its points
alone: bws raises its bases to the power 1 - z from the grid's panel
layout, one exponential per base and panel start or offset rather than per
base and node. Where the quadrature's arguments lie, and why M at the
conjugate arguments needs no evaluation of its own, is stated in module
scan (_nu_quadrature, analytic_nu). A model with independent bases is the
Markov model iid_model(pi), whose rank-one quasi transition matrix takes
the same paths.

The closed form sums the joint terms E[exp(t * score); half-length = k] =
v Q^(k-1) u over k >= h. The tilted sampler of module sim draws from that
per-length law, built from the factors ScoreModel caches (for bws the
kernel's own _bws_log_base), so it samples the law score_mgf describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularMatrixError
from .markov import (MarkovModel, center_pair_probs, markov_rate,
                     quasi_transition_matrix, start_weights)
from .numeric import (mat_inv, newton_root, require_regular, row_solve, spectral_radius,
                      vec_mat)

SCORE_KINDS = ("pcs", "pls", "bws")
_EYE = np.eye(4)

# What cumulants raises where the MGF cannot be evaluated: beyond its
# domain, at a singular resolvent, where it cancels to a tilted mean or
# variance that no score law has, or on overflow
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
        radius = self._t_radius
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
    def _t_radius(self) -> float:
        """The spectral radius of t_matrix, which the subcritical check and
        the pls domain both read."""
        return spectral_radius(self.t_matrix)

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
    def _pls_rational(self) -> tuple[np.ndarray, list[float]]:
        """(table, size) of the pls MGF as a rational function of s =
        e^(z/h): table of shape (2, 3, 5), lowest power of s first.

        M(z) = e^z v (I - sT)^-1 u / rate, v = pi T^(h-1) and u = (I - T)
        c, is e^z N(s) / D(s) by Cramer's rule, with D(s) = det(I - sT) =
        sum d_k s^k. The d_k come from the power traces p_i = tr T^i by
        Newton's identities, k d_k = -(d_(k-1) p_1 + ... + d_0 p_k), so a
        nilpotent T gives D = 1 exactly. N(s) = D(s) sum_m a_m s^m / rate,
        a_m = v T^m u, has coefficients n_k = (d_0 a_k + ... + d_k a_0) /
        rate, which vanish from k = 4 on (Cayley-Hamilton). table[0, j]
        holds n_k k^j and table[1, j] d_k k^j, for j = 0, 1, 2, so one
        product with the powers s^k gives the sums N_j = sum n_k k^j s^k
        and D_j of cumulants, and row j = 0 the coefficients of N and D
        themselves (_mgf_value). size holds |d_0|, ..., |d_4|, which give
        the scale of _require_regular_pls.
        """
        t, h = self.t_matrix, self.half_length
        powers = [_EYE]
        for _ in range(4):
            powers.append(powers[-1] @ t)
        traces = [np.trace(p) for p in powers]
        den = [1.0]
        for k in range(1, 5):
            den.append(-sum(den[k - i] * traces[i] for i in range(1, k + 1)) / k)
        head = self.model.pi @ np.linalg.matrix_power(t, h - 1)
        tail = (_EYE - t) @ self.closure_probs
        terms = [head @ p @ tail for p in powers[:4]]
        num = np.append(np.convolve(den, terms)[:4], 0.0) / self.rate
        table = np.array([num, den])[:, None, :] * np.arange(5.0) ** np.arange(3.0)[:, None]
        return table, np.abs(den).tolist()

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

    Panels that share their offsets have nodes start plus offset, and the
    bws kernel raises each base to the power 1 - z as one table over the
    points and starts times one over the offsets (_bws_powers): one
    exponential per base and start or offset rather than per base and node.
    scan._nu_quadrature builds the one such grid, its overshoot arguments
    on the line Re z = theta1 / 2. A plain array z is the grid NodeGrid(z),
    all points and no panels, and takes the same code.
    """

    points: np.ndarray
    starts: np.ndarray = field(default_factory=lambda: _NO_PANELS)
    offsets: np.ndarray = field(default_factory=lambda: _NO_PANELS)

    @cached_property
    def nodes(self) -> np.ndarray:
        if not self.starts.size:
            return self.points
        return np.concatenate((self.points, np.add.outer(self.starts, self.offsets).ravel()))


def _bws_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, Q, u) of an array laid out as ScoreModel._bws_log_base: its
    first axis's 24 entries become shapes (4,), (4, 4) and (4,), and any
    trailing axes are kept."""
    return a[:4], a[4:20].reshape((4, 4) + a.shape[1:]), a[20:]


def _log_base(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log base, base > 0), the log read as 0 where base is not positive."""
    pos = base > 0
    return np.log(np.where(pos, base, 1.0)), pos


def _power_jet(log_base: tuple[np.ndarray, np.ndarray], z: float,
               order: int = 0) -> list[np.ndarray]:
    """Taylor coefficients in z of the entrywise power base ** (1 - z).

    log_base is _log_base(base). Coefficient j is base ** (1 - z) * (-log
    base) ** j / j!. Zero entries map to zero, matching the limit from
    positive base.
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
    The root comes from Newton steps on log rho(Q(t)), with the slope of a
    simple eigenvalue, l Q'(t) r / (l r) for the left and right Perron
    vectors l and r (Magnus, Econometric Theory 1985), over rho; Q' comes
    from the kernel's _power_jet, and the Perron root is the eigenvalue of
    largest real part. Each step takes one eigendecomposition, of Q(t):
    T[a, b] = T[b', a'] exactly for the complements ', so Q(t)^T = J Q(t) J
    with J the complement swap (the base order reversed), and l is r
    reversed. The entries of Q(t) are exponentials of affine functions of
    t, so log rho(Q(t)) is convex in t (Kingman, Q. J. Math. 1961), and
    rho(Q(1/2)) <= 1 (T = P o (J P J)^T, o entrywise, makes Q(1/2) the
    entrywise geometric mean of two stochastic matrices). So the search
    starts at 1/2, and where the Perron root is simple its first step lands
    at or beyond t_max and the later ones approach t_max from above: 4
    eigendecompositions on BoHV-1 and on its iid model, the first for the
    radius at the cap. Where the slope is not finite and positive, as on
    some reducible chains, newton_root bisects instead, and where two
    complementary classes share the Perron root its bracket carries the
    search.
    """
    if sm.kind == "pcs":
        return np.inf
    if sm.kind == "pls":
        radius = sm._t_radius
        return float(-sm.half_length * np.log(radius)) if radius > 0.0 else np.inf
    log_t = _log_base(sm.t_matrix)

    def log_radius(t: float) -> tuple[float, float]:
        q, dq = _power_jet(log_t, t, 1)
        vals, vecs = np.linalg.eig(q)
        right = vecs[:, np.argmax(vals.real)].real
        left = right[::-1]  # Q^T = J Q J
        radius = np.abs(vals).max()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(radius), (left @ dq @ right) / (left @ right) / radius

    # The edge is located to round-off, so that the resolvent I - Q is
    # numerically singular right at t_max rather than some 1e-9 beyond it.
    hi = 1.0 - 1e-9
    if log_radius(hi)[0] < 0.0:
        return 1.0
    return newton_root(log_radius, 0.0, hi, x=0.5, tol=1e-15)


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
    """Taylor coefficients of v Q^n (I - Q)^-1 u at one real tilt, from
    those of v, Q and u (_bws_factors), as bws cumulants takes them.

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


def _bws_factors(sm: ScoreModel, z, order: int) -> tuple[list, list, list]:
    """Taylor coefficients j = 0 .. order of v, Q and u in the bws form
    M(z) = v Q^(h-1) (I - Q)^-1 u / rate at one real tilt z (cumulants).
    A NodeGrid z (order 0) lays each coefficient out entries-first, with
    its nodes on a trailing axis, and takes its node powers from the grid's
    layout (_bws_powers)."""
    jet = [_bws_powers(sm, z)] if isinstance(z, NodeGrid) else _power_jet(sm._bws_log_base, z, order)
    return zip(*map(_bws_split, jet))


def _require_regular_pls(sm: ScoreModel, r, det) -> None:
    """numeric.require_regular on det = D(s) = det(I - sT)
    (ScoreModel._pls_rational), at one modulus r = |s| or at each of an
    array of them, scaled by the size of the terms D sums, sum_k |d_k| r^k.
    So D fails where it cancels to round-off, as at the domain edge, and a
    nilpotent T, whose D is 1, never fails."""
    size = sm._pls_rational[1]
    scale = size[4]
    for k in range(3, -1, -1):
        scale = scale * r + size[k]
    require_regular(det, scale, 1)


def _mgf_value(sm: ScoreModel, z: np.ndarray | NodeGrid) -> np.ndarray:
    """The MGF itself at each of a 1-D array of N real or complex arguments,
    as elementwise arithmetic on node vectors; one real tilt takes
    cumulants.

    z is a NodeGrid or a plain array, which is the grid NodeGrid(z); the
    values come in the order of the grid's nodes. pls evaluates its
    rational form (ScoreModel._pls_rational) by Horner's rule at s =
    e^(z/h). For bws, v, Q and u (_bws_factors) are held entries-first,
    (4, N) for v and u and (4, 4, N) for Q, and every vector-matrix product
    is numeric.vec_mat, so the number of numpy calls does not grow with N,
    and each node of a plain array gets the value it has in any other
    array. The row r = v Q^(h-1) takes h - 1 products; the resolvent enters
    through y (I - Q) = r, solved by numeric.row_solve without forming an
    inverse.

    Raises:
        DomainError: Re z at or beyond the domain supremum, at any node.
        SingularMatrixError: I - Q is numerically singular at some node.
    """
    grid = z if isinstance(z, NodeGrid) else NodeGrid(np.asarray(z))
    _require_in_domain(sm, grid.points)
    if grid.starts.size:
        # the largest Re(start + offset) is the largest Re start plus the
        # largest Re offset (rounding is monotone), so bws, which takes
        # its node powers from the layout, never builds the nodes
        _require_in_domain(sm, grid.starts.real.max() + grid.offsets.real.max())
    if sm.kind == "pcs":
        return np.exp(grid.nodes)
    if sm.kind == "pls":
        coef = sm._pls_rational[0][:, 0, :, None]
        s = np.exp(grid.nodes / sm.half_length)
        poly = coef[:, 4]
        for k in range(3, -1, -1):
            poly = poly * s + coef[:, k]
        num, den = poly
        _require_regular_pls(sm, np.abs(s), den)
        return np.exp(grid.nodes) * num / den
    (v,), (q,), (u,) = _bws_factors(sm, grid, 0)
    for _ in range(sm.half_length - 1):
        v = vec_mat(v, q)
    return vec_mat(row_solve(v, _EYE[..., None] - q), u) / sm.rate


def cumulants(sm: ScoreModel, theta: float) -> tuple[float, float, float]:
    """The cumulant function phi = log M and its first two derivatives at
    one real tilt theta, each kind in its own closed form.

    phi' is the tilted mean score and phi'' the tilted score variance.
      - pcs: phi = theta, phi' = 1, phi'' = 0.
      - pls: M = e^theta N(s) / D(s), s = e^(theta/h)
        (ScoreModel._pls_rational). With N_j = sum n_k k^j s^k and D_j
        likewise, log-derivatives of N and D give phi = theta + log(N_0 /
        D_0), phi' = 1 + (N_1 / N_0 - D_1 / D_0) / h and phi'' = ((N_2 /
        N_0 - (N_1 / N_0)^2) - (D_2 / D_0 - (D_1 / D_0)^2)) / h^2.
      - bws: block products of the Taylor series of v, Q and u
        (_bws_factors, _jet_by_blocks) give M, M' and M''/2 exactly.

    Raises:
        DomainError: theta at or beyond the domain supremum.
        SingularMatrixError: theta at the domain edge to round-off, where
            the resolvent is singular, the MGF or the tilted mean not
            positive, or the tilted variance negative (as pls's also is
            where negative start weights make its law a signed one).
    """
    theta = float(theta)
    if sm.kind == "pcs":
        return theta, 1.0, 0.0
    _require_in_domain(sm, theta)
    h = sm.half_length
    if sm.kind == "pls":
        powers = np.exp(theta / h * np.arange(5.0))  # s^k
        (n0, n1, n2), (d0, d1, d2) = (sm._pls_rational[0] @ powers).tolist()
        _require_regular_pls(sm, powers[1], d0)
        m0 = n0 / d0  # M e^-theta
    else:
        m0, m1, m2 = (_jet_by_blocks(*_bws_factors(sm, theta, 2), h - 1) / sm.rate).tolist()
    if not 0.0 < m0 < math.inf:
        raise SingularMatrixError(f"MGF not positive and finite at {theta!r}: resolvent singular")
    if sm.kind == "pls":
        n1, n2, d1, d2 = n1 / n0, n2 / n0, d1 / d0, d2 / d0
        phi, mean = theta + math.log(m0), 1.0 + (n1 - d1) / h
        var = ((n2 - n1 * n1) - (d2 - d1 * d1)) / (h * h)
    else:
        mean = m1 / m0
        phi, var = math.log(m0), 2.0 * m2 / m0 - mean * mean
    # Scores are positive, so no score law has these. A variance of 0 is
    # exact for a score of one value.
    if not (mean > 0.0 and var >= 0.0):
        raise SingularMatrixError(
            f"tilted mean {mean!r} or variance {var!r} at {theta!r} out of range: the MGF "
            f"cancels to round-off there, or the start weights have negative entries")
    return phi, mean, var


def score_mgf(sm: ScoreModel, t: float) -> float:
    """MGF of the configured score kind at a real t, conditioned on an
    occurrence: e^phi of cumulants.

    Raises:
        DomainError: t at or beyond the domain supremum.
        SingularMatrixError: t at the domain edge to round-off (cumulants).
    """
    return math.exp(cumulants(sm, t)[0])
