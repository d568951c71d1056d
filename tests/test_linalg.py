import numpy as np
import pytest

from sgcert.arrangement import Arrangement, Subspace
from sgcert.errors import DegenerateStateError, PreconditionError, SizeLimitError
from sgcert.linalg import (
    Tolerance,
    cauchy_binet_check,
    orthonormalize,
    projector,
    rank,
    spectral_norm,
)
from sgcert.scaling import make_state

TOL = Tolerance()


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_tol=1.5)
    with pytest.raises(ValueError):
        Tolerance(residual_tol=-1e-8)


def test_orthonormalize_diagonal_input():
    q = orthonormalize([[2.0, 0.0], [0.0, 3.0]])
    assert q.shape == (2, 2)
    assert np.abs(q @ q.T - np.eye(2)).max() <= 1e-12


def test_orthonormalize_rank_one():
    q = orthonormalize([[1.0, 1.0], [2.0, 2.0]])
    assert q.shape == (1, 2)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.abs(q[0] - expected).max(), np.abs(q[0] + expected).max()) < 1e-12


def test_orthonormalize_planted_rank():
    # Oracle: the planted product of 5x3 and 3x8 factors has exactly 3
    # nonzero singular values.
    rng = np.random.default_rng(42)
    m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 8))
    s = np.linalg.svd(m, compute_uv=False)
    assert np.count_nonzero(s >= 1e-9 * s[0]) == 3
    assert orthonormalize(m).shape == (3, 8)


def test_orthonormalize_zero_input():
    q = orthonormalize(np.zeros((3, 4)))
    assert q.shape == (0, 4)


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((4, 6))
        q1 = orthonormalize(m)
        q2 = orthonormalize(q1)
        assert q1.shape == q2.shape
        assert rank(np.vstack([q1, q2])) == q1.shape[0]


def test_rank_examples():
    assert rank(np.eye(4)) == 4
    assert rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert rank(np.zeros((0, 5))) == 0
    assert rank(np.zeros((3, 3))) == 0


def test_rank_grid_counterexample_spans_r3():
    # The three coordinate-pair planes in R^3 jointly span e1, e2, e3.
    v12 = np.eye(3)[[0, 1]]
    v13 = np.eye(3)[[0, 2]]
    v23 = np.eye(3)[[1, 2]]
    assert rank(np.vstack([v12, v13, v23])) == 3


def test_rank_matches_orthonormalize():
    rng = np.random.default_rng(7)
    for _ in range(25):
        r = rng.integers(0, 5)
        m = rng.standard_normal((6, r)) @ rng.standard_normal((r, 7)) if r else np.zeros((6, 7))
        assert rank(m) == orthonormalize(m).shape[0]


def test_projector_examples():
    p = projector(np.eye(3)[[0]])
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(projector(np.eye(4)), np.eye(4))
    u = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    assert np.abs(projector(u) - np.full((2, 2), 0.5)).max() < 1e-12


def test_projector_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = orthonormalize(rng.standard_normal((3, 7)))
        p = projector(u)
        assert np.abs(p - p.T).max() <= 1e-8
        assert np.abs(p @ p - p).max() <= 1e-8
        assert abs(np.trace(p) - u.shape[0]) <= 1e-8
        assert np.abs(u @ p - u).max() <= 1e-8


def test_projector_rejects_non_orthonormal():
    with pytest.raises(PreconditionError):
        projector([[1.0, 1.0]])


def inv_sqrt_factor(spaces, t):
    """M = X^{-1/2} and X of the scaling state of ``spaces`` at t (identity rotations)."""
    arr = Arrangement(spaces[0].ambient, spaces)
    state = make_state(arr, np.ones(len(spaces)), t=t)
    return state.M, state.X


def test_inv_sqrt_factor_identity_and_diagonal():
    axes = [Subspace(3, row) for row in np.eye(3)[:, None]]
    assert np.allclose(inv_sqrt_factor(axes, np.zeros(3))[0], np.eye(3))
    m, x = inv_sqrt_factor([Subspace(2, [[1.0, 0.0]]), Subspace(2, [[0.0, 1.0]])],
                           np.log([4.0, 9.0]))
    assert np.allclose(x, np.diag([4.0, 9.0]))
    assert np.allclose(m, np.diag([0.5, 1.0 / 3.0]))


def test_inv_sqrt_factor_random_spd():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spaces = [Subspace.from_spanning(rng.standard_normal((2, 5)), 5) for _ in range(4)]
        m, x = inv_sqrt_factor(spaces, rng.uniform(-1.0, 1.0, 8))
        assert np.abs(m - m.T).max() < 1e-12
        assert np.abs(m.T @ m @ x - np.eye(5)).max() < 1e-8
        assert np.abs(m @ x @ m.T - np.eye(5)).max() < 1e-8


def test_inv_sqrt_factor_rejects_non_spd():
    # spaces that leave a direction uncovered make X singular
    with pytest.raises(DegenerateStateError, match="not positive definite"):
        inv_sqrt_factor([Subspace(2, [[1.0, 0.0]])], np.zeros(1))
    with pytest.raises(DegenerateStateError, match="not positive definite"):
        inv_sqrt_factor([Subspace(3, np.eye(3)[[0, 1]]), Subspace(3, [[0.6, 0.8, 0.0]])],
                        np.zeros(3))


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-10)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0])
    assert spectral_norm(np.outer(u, v)) == pytest.approx(6.0, rel=1e-10)


def test_cauchy_binet_identity():
    lhs, rhs = cauchy_binet_check(np.eye(3), np.eye(3))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_cauchy_binet_row_times_column():
    lhs, rhs = cauchy_binet_check([[1.0, 2.0]], [[3.0], [4.0]])
    assert lhs == pytest.approx(11.0)
    assert rhs == pytest.approx(11.0)


def test_cauchy_binet_random_2x4():
    rng = np.random.default_rng(5)
    a = rng.integers(-4, 5, size=(2, 4)).astype(float)
    b = rng.integers(-4, 5, size=(4, 2)).astype(float)
    lhs, rhs = cauchy_binet_check(a, b)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_cauchy_binet_random_batch():
    # 100 integer instances with l <= 3, m <= 8; relative error <= 1e-9.
    rng = np.random.default_rng(99)
    for _ in range(100):
        l = int(rng.integers(1, 4))
        m = int(rng.integers(l, 9))
        a = rng.integers(-5, 6, size=(l, m)).astype(float)
        b = rng.integers(-5, 6, size=(m, l)).astype(float)
        lhs, rhs = cauchy_binet_check(a, b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_cauchy_binet_size_limit():
    with pytest.raises(SizeLimitError):
        cauchy_binet_check(np.ones((2, 13)), np.ones((13, 2)))


def test_nan_rejected():
    with pytest.raises(ValueError):
        rank([[np.nan, 1.0]])
