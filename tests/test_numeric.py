import math

import numpy as np
import pytest

from palinscan import ConvergenceError, NonFiniteError, SingularMatrixError
from palinscan.numeric import mat_inv, newton_root, spectral_radius, stack_inv, vec_mat

from oracles import derivative


class TestMatInv:
    def test_inverse_property(self, rng):
        m = rng.random((4, 4)) + 4.0 * np.eye(4)
        inv = mat_inv(m)
        assert np.allclose(m @ inv, np.eye(4), atol=1e-10)

    def test_singular_matrix(self):
        m = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            mat_inv(m)

    def test_near_singular_matrix(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularMatrixError):
            mat_inv(m)

    def test_scale_invariance(self):
        # a well-conditioned matrix times a tiny scalar must still invert
        m = 1e-12 * (np.eye(3) + 0.1)
        inv = mat_inv(m)
        assert np.allclose(m @ inv, np.eye(3), atol=1e-8)

    def test_stack_inverts_each_matrix(self, rng):
        stack = rng.random((5, 4, 4)) + 4.0 * np.eye(4) + 1j * rng.random((5, 4, 4))
        inv = mat_inv(stack)
        assert inv.shape == stack.shape
        for m, m_inv in zip(stack, inv):
            assert np.array_equal(m_inv, mat_inv(m))

    def test_stack_with_one_singular_member(self, rng):
        stack = rng.random((3, 3, 3)) + 3.0 * np.eye(3)
        stack[1] = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            mat_inv(stack)


def entries_first(stack):
    """A stack of matrices (N, n, n) laid out entries-first, (n, n, N)."""
    return np.moveaxis(np.asarray(stack), 0, -1)


class TestStackInv:
    """The entries-first Gauss-Jordan inverse, mode by mode as mat_inv."""

    def test_matches_numpy_inverse(self, rng):
        stack = rng.random((7, 4, 4)) + 4.0 * np.eye(4) + 1j * rng.random((7, 4, 4))
        inv = stack_inv(entries_first(stack))
        assert inv.shape == (4, 4, 7)
        assert np.allclose(entries_first(np.linalg.inv(stack)), inv, rtol=1e-13, atol=1e-15)

    def test_h_matrix_without_pivoting(self, rng):
        # I - Q for complex Q with |Q| of spectral radius 0.95, as in the
        # MGF kernel: an H-matrix, on which elimination needs no pivoting
        q = rng.random((5, 4, 4)) * np.exp(2j * np.pi * rng.random((5, 4, 4)))
        q *= 0.95 / np.abs(np.linalg.eigvals(np.abs(q))).max(axis=1)[:, None, None]
        m = np.eye(4) - q
        inv = stack_inv(entries_first(m))
        assert np.allclose(entries_first(np.linalg.inv(m)), inv, rtol=1e-12, atol=1e-14)

    def test_singular_member(self, rng):
        stack = rng.random((3, 4, 4)) + 4.0 * np.eye(4)
        stack[1] = np.ones((4, 4))
        with pytest.raises(SingularMatrixError):
            stack_inv(entries_first(stack))

    def test_near_singular_member(self, rng):
        stack = rng.random((3, 4, 4)) + 4.0 * np.eye(4)
        stack[2, 3] = stack[2, 2] * (1.0 + 1e-15)
        with pytest.raises(SingularMatrixError):
            stack_inv(entries_first(stack))

    def test_zero_member(self, rng):
        stack = rng.random((3, 4, 4)) + 4.0 * np.eye(4)
        stack[0] = 0.0
        with pytest.raises(SingularMatrixError):
            stack_inv(entries_first(stack))

    def test_scale_invariance(self):
        # a well-conditioned matrix times a tiny scalar must still invert
        stack = 1e-12 * (np.eye(4) + 0.1) * np.array([1.0, 1e-3])[:, None, None]
        inv = stack_inv(entries_first(stack))
        assert np.allclose(entries_first(np.linalg.inv(stack)), inv, rtol=1e-12)


class TestVecMat:
    def test_matches_matmul(self, rng):
        x = rng.random((3, 4)) + 1j * rng.random((3, 4))
        a = rng.random((3, 4, 5))
        got = vec_mat(x.T, entries_first(a))
        assert np.allclose(got.T, np.einsum("ni,nij->nj", x, a), rtol=1e-14)


class TestSpectralRadius:
    def test_matches_eigvals_on_random_nonnegative(self, rng):
        for _ in range(25):
            m = rng.random((4, 4))
            expected = np.abs(np.linalg.eigvals(m)).max()
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-8)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, 0.7, 0.1, 0.05])) == pytest.approx(0.7)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_nilpotent(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 2] = 1.0
        assert spectral_radius(m) == 0.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))


class TestNewtonRoot:
    def test_cubic(self):
        root = newton_root(lambda x: (x**3 - 2.0, 3.0 * x * x), 0.0, 2.0, x=1.9)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_far_start_on_convex_function(self):
        # Newton from the left of a convex root jumps past the bracket; the
        # step must fall back to bisection and still converge
        f = lambda x: (math.exp(20.0 * x) - 1e-4, 20.0 * math.exp(20.0 * x))
        root = newton_root(f, -2.0, 1.0, x=-1.9, tol=1e-13)
        assert root == pytest.approx(math.log(1e-4) / 20.0, abs=1e-12)

    def test_infinite_values_count_as_positive(self):
        # beyond 2 the function "fails"; the bracket must shrink onto [.., 2)
        f = lambda x: (x - 1.5, 1.0) if x < 2.0 else (math.inf, math.nan)
        assert newton_root(f, 0.0, 10.0, x=9.0) == pytest.approx(1.5, abs=1e-12)

    def test_nan_raises(self):
        with pytest.raises(NonFiniteError):
            newton_root(lambda x: (math.nan, 1.0), 0.0, 1.0, x=0.5)

    def test_iteration_cap(self):
        # a jump with no root and a zero slope allows bisection only
        f = lambda x: (-1.0 if x < math.pi / 10 else 1.0, 0.0)
        with pytest.raises(ConvergenceError):
            newton_root(f, 0.0, 1.0, x=0.5, tol=0.0, max_iter=20)


class TestDerivative:
    def test_first_derivative(self):
        assert derivative(math.sin, 0.3, order=1) == pytest.approx(
            math.cos(0.3), abs=1e-9
        )

    def test_second_derivative(self):
        assert derivative(math.sin, 0.3, order=2) == pytest.approx(
            -math.sin(0.3), abs=1e-6
        )

    def test_exponential_growth(self):
        assert derivative(math.exp, 2.0, order=1) == pytest.approx(
            math.exp(2.0), rel=1e-9
        )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative(math.sin, 0.0, order=3)

    def test_nonfinite_stencil(self):
        f = lambda x: math.sqrt(x)  # complex left of 0 -> ValueError -> guard
        with pytest.raises((NonFiniteError, ValueError)):
            derivative(f, 0.0, order=1)
