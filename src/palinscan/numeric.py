"""Small numerical kernels shared across the package.

Inverses and spectral radii delegate to numpy's linear algebra, with
explicit conditioning checks layered on top of the inverse. The one scalar
root finder, a Newton method kept inside a bracket, is self-contained so
its convergence and failure behaviour stays under our control.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NonFiniteError, SingularMatrixError

SINGULARITY_TOL = 1e-12
ROOT_TOL = 1e-12
ROOT_MAX_ITER = 200


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Inverse with an explicit near-singularity check.

    Real input stays real; complex input (e.g. MGF evaluation off the real
    axis) is inverted in complex arithmetic. A stack of matrices (shape
    (..., n, n)) is inverted matrix by matrix, and the check applies to each.

    Raises:
        SingularMatrixError: determinant is tiny relative to the matrix scale,
            or the inverse fails to reproduce the identity to a scaled
            residual of 1e-8.
    """
    m = np.asarray(m)
    m = m.astype(complex) if np.iscomplexobj(m) else m.astype(float)
    n = m.shape[-1]
    # a stack reduces per matrix; one matrix keeps its checks on scalars
    axes, fails = ((-2, -1), np.any) if m.ndim > 2 else (None, bool)
    scale = np.abs(m).max(axis=axes)
    if fails(scale == 0.0):
        raise SingularMatrixError("zero matrix")
    det = abs(np.linalg.det(m))
    if fails(det < SINGULARITY_TOL * scale**n):
        raise SingularMatrixError(f"near-singular matrix: |det| = {np.min(det):.3e}")
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = np.abs(m @ inv - np.eye(n)).max(axis=axes)
    # residual > 1e-8 * max(1, |inv| * scale), entrywise over the stack
    if fails((residual > 1e-8) & (residual > 1e-8 * (np.abs(inv).max(axis=axes) * scale))):
        raise SingularMatrixError(f"ill-conditioned inverse: residual = {np.max(residual):.3e}")
    return inv


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


def newton_root(f, lo: float, hi: float, x: float, tol: float = ROOT_TOL,
                max_iter: int = ROOT_MAX_ITER) -> float:
    """Root of an increasing function by Newton steps kept inside a bracket.

    ``f(x)`` returns the pair (value, slope). The value must be negative at
    lo and positive at hi; an infinite value counts as positive, so a
    function that fails beyond some point can report +inf there. The search
    starts at x; a Newton step that would leave the bracket, or a point
    where the value or slope is not finite, falls back to bisection. It
    succeeds when |f(x)| <= tol, or when the next step or the bracket
    shrinks below tol * max(1, |x|), and returns the last x at which f was
    evaluated.

    Raises:
        NonFiniteError: f returns NaN.
        ConvergenceError: iteration cap reached.
    """
    for _ in range(max_iter):
        fx, slope = f(x)
        if np.isnan(fx):
            raise NonFiniteError(f"f({x!r}) is NaN during root search")
        if abs(fx) <= tol:
            return float(x)
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
            return float(x)
        x = nxt
    raise ConvergenceError(f"Newton search did not converge in {max_iter} iterations")
