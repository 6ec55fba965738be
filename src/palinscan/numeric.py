"""Small numerical kernels shared across the package.

Two linear solvers make the same conditioning checks: mat_inv inverts one
matrix with numpy's linear algebra (an MGF's Taylor coefficients at one
argument), and row_solve solves y m = x for a stack held entries-first (an
MGF's values at an array) by Gaussian elimination as elementwise
arithmetic, in numpy calls that do not grow with the stack. Their
determinant test, require_regular, also serves a determinant known in
closed form.
Spectral radii delegate to numpy's eigenvalue solver. The one scalar root
finder, a Newton method kept inside a bracket and capped at ROOT_MAX_ITER
steps, is self-contained so its convergence and failure behaviour stays
under our control. read_only gives the frozen dataclasses their arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NonFiniteError, SingularMatrixError

SINGULARITY_TOL = 1e-12
ROOT_TOL = 1e-12
ROOT_MAX_ITER = 200


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of one n x n matrix with an explicit near-singularity check.

    Real input stays real; complex input (e.g. MGF evaluation off the real
    axis) is inverted in complex arithmetic. A linear system at each of a
    stack of matrices takes row_solve.

    Raises:
        SingularMatrixError: determinant is tiny relative to the matrix scale,
            or the inverse fails to reproduce the identity to a scaled
            residual of 1e-8.
    """
    m = np.asarray(m)
    m = m.astype(complex) if np.iscomplexobj(m) else m.astype(float)
    n = len(m)
    scale = np.abs(m).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    require_regular(np.linalg.det(m), scale, n)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = np.abs(m @ inv - np.eye(n)).max()
    if residual > 1e-8 * max(1.0, np.abs(inv).max() * scale):
        raise SingularMatrixError(f"ill-conditioned inverse: residual = {residual:.3e}")
    return inv


def require_regular(det, scale, n: int) -> None:
    """The determinant test of mat_inv and row_solve: an n x n matrix, or
    each of a stack of them, passes where |det| >= SINGULARITY_TOL scale^n,
    scale its largest entry modulus. A determinant known as a sum of terms
    passes n = 1 and the sum of their moduli instead. A NaN determinant
    fails.

    Raises:
        SingularMatrixError: the test fails at any entry.
    """
    det = np.abs(det)
    if not (det >= SINGULARITY_TOL * scale**n).all():
        raise SingularMatrixError(f"near-singular matrix: |det| = {np.min(det):.3e}")


def read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of array, so that a frozen dataclass can hold it
    while the caller's own array stays writeable."""
    view = array.view()
    view.flags.writeable = False
    return view


def vec_mat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The product x a at every node, for a vector x held entries-first as
    (n, N) and a matrix a as (n, m, N): the sum over i of x[i] a[i], added
    up row by row. Each entry's value is the same whatever N is."""
    out = x[0] * a[0]
    for i in range(1, len(x)):
        out += x[i] * a[i]
    return out


def row_solve(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The row vector y with y m = x at every node, for x held entries-first
    as (n, N) and m as (n, n, N), with mat_inv's checks.

    Gaussian elimination runs on all N systems at once, one (n, N) array
    of entries at a time, so its cost is a fixed number of elementwise
    operations rather than one LAPACK call per node; solving costs less
    than inverting and is no less accurate (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, sec. 14.1). It does not pivot: it suits
    matrices that need no pivoting (ch. 9 there), such as I - Q with |Q|
    (entrywise) of spectral radius below 1, an H-matrix, and diagonally
    dominant ones; a zero pivot fails the determinant check. The
    determinant is the product of the pivots.

    Raises:
        SingularMatrixError: at any node, m is zero, its determinant is tiny
            relative to its scale, or y m misses x by more than 1e-8 of
            max |y| max |m|.
    """
    m = np.asarray(m)
    dtype = complex if np.iscomplexobj(m) or np.iscomplexobj(x) else float
    a, y = m.astype(dtype), np.asarray(x).astype(dtype)
    n = len(m)
    det = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            # equation k (column k of y m = x) eliminates y_k from the later ones
            det = det * a[k, k]
            factor = a[k, k + 1:] / a[k, k]
            a[k + 1:, k + 1:] -= a[k + 1:, k, None] * factor
            y[k + 1:] -= y[k] * factor
        for k in reversed(range(n)):
            y[k] /= a[k, k]
            y[:k] -= y[k] * a[k, :k]
    # "not >=" also fails the NaN determinant that a zero pivot leaves
    scale = np.abs(m).max(axis=(0, 1))
    if not scale.all():
        raise SingularMatrixError("zero matrix")
    require_regular(det, scale, n)
    residual = np.abs(vec_mat(y, m) - x).max(axis=0)
    if (residual > 1e-8 * np.abs(y).max(axis=0) * scale).any():
        raise SingularMatrixError(f"ill-conditioned solve: residual = {np.max(residual):.3e}")
    return y


def spectral_radius(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a non-negative matrix.

    A nilpotent matrix (one whose support graph has no cycle) gives exactly
    0.0, where an eigenvalue solver would return round-off instead.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("spectral_radius expects a non-negative matrix")
    if not np.linalg.matrix_power(m > 0, m.shape[0]).any():
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def newton_root(f, lo: float, hi: float, x: float, tol: float = ROOT_TOL) -> float:
    """Root of an increasing function by Newton steps kept inside a bracket.

    ``f(x)`` returns the pair (value, slope). The value must be negative at
    lo and positive at hi; an infinite value counts as positive, so a
    function that fails beyond some point can report +inf there. The search
    starts at x; a Newton step that would leave the bracket, or a point
    where the value or slope is not finite, falls back to bisection. It
    succeeds when |f(x)| <= tol, or when the next step or the bracket
    shrinks below tol * max(1, |x|), and returns the x with the smallest |f|
    of those evaluated: on an f noisy near its root the last steps may
    bisect inside the noise and end at a worse point than an earlier one.

    Raises:
        NonFiniteError: f returns NaN.
        ConvergenceError: ROOT_MAX_ITER steps without success.
    """
    best, best_f = x, np.inf
    for _ in range(ROOT_MAX_ITER):
        fx, slope = f(x)
        if np.isnan(fx):
            raise NonFiniteError(f"f({x!r}) is NaN during root search")
        if abs(fx) <= tol:
            return float(x)
        if abs(fx) < best_f:
            best, best_f = x, abs(fx)
        if fx < 0.0:
            lo = x
        else:
            hi = x
        newton = np.isfinite(fx) and np.isfinite(slope) and slope > 0
        nxt = x - fx / slope if newton else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        scale = tol * max(1.0, abs(x))
        if abs(nxt - x) <= scale or hi - lo <= scale:
            return float(best)
        x = nxt
    raise ConvergenceError(f"Newton search did not converge in {ROOT_MAX_ITER} iterations")
