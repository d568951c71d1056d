"""Dense linear-algebra kernel: rank decisions, projectors, norms.

Every operation is a pure function on ndarrays.  Matrices are real,
row-major, with subspace bases stored as rows.  Exact-arithmetic statements
from the underlying math become threshold decisions controlled by a
:class:`Tolerance`.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PreconditionError, SizeLimitError

# Largest middle dimension accepted by cauchy_binet_check; C(12, 6) = 924
# subsets is still instant, 13 starts to be pointless.
_CAUCHY_BINET_MAX_M = 12


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by every rank/residual decision.

    rank_tol
        Singular values below ``rank_tol`` times the largest are treated
        as zero.  It decides ranks: a space's dimension, whether a pair
        intersects, and the span of a rank-deficient pair.
    residual_tol
        Threshold for membership / annihilation / orthonormality residuals;
        finite and positive.  Membership ("V_c lies in V_a + V_b") and equal
        spaces are decided by it alone.
    """

    rank_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.rank_tol < 1):
            raise ValueError(f"rank_tol must be in (0, 1), got {self.rank_tol}")
        if not (0 < self.residual_tol < np.inf):
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")


DEFAULT_TOL = Tolerance()

# Byte budget of one stacked transient: stacks of small matrices, and their
# products, are processed in chunks of about this size, so that the
# transients of one step stay well under 1 MB.
CHUNK_BYTES = 1 << 17


def chunk_slices(count: int, item_bytes: int) -> list:
    """Slices cutting ``count`` items of ``item_bytes`` each into chunks of
    at most about CHUNK_BYTES (at least one item per chunk)."""
    step = max(1, CHUNK_BYTES // max(1, item_bytes))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def stacked_ranks(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ranks from stacked singular values: the rank rule of every decision.

    ``s`` has shape (..., r), each row sorted descending as returned by
    ``np.linalg.svd``; a row's rank counts its values at least ``rank_tol``
    times its largest, and an all-zero row, or r = 0, has rank 0.
    """
    top = s[..., :1]
    return np.add.reduce((s >= tol.rank_tol * top) & (top > 0.0), axis=-1)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d float array and reject non-finite entries."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values at least ``rank_tol`` times the largest.

    A matrix with no rows (or all-zero entries) has rank 0.
    """
    return int(stacked_ranks(np.linalg.svd(as_matrix(m), compute_uv=False), tol))


def orthonormalize(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span of ``m``.

    Row count of the result equals the numerical rank; an all-zero or
    0-row input yields a 0-row matrix representing the zero space.
    """
    _, s, vt = np.linalg.svd(as_matrix(m), full_matrices=False)
    return vt[:int(stacked_ranks(s, tol))].copy()


def is_orthonormal(u, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the rows of ``u`` form an orthonormal family."""
    a = as_matrix(u)
    if a.shape[0] == 0:
        return True
    gram = a @ a.T
    return bool(np.abs(gram - np.eye(a.shape[0])).max() <= tol.residual_tol)


def projector(u, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection matrix onto the row span of orthonormal ``u``.

    Returns the sum of outer products of the rows; symmetric, idempotent,
    with trace equal to the row count.  Raises if the rows are not
    orthonormal within ``residual_tol``.
    """
    a = as_matrix(u)
    if not is_orthonormal(a, tol):
        raise PreconditionError("projector requires orthonormal rows")
    if a.shape[0] == 0:
        return np.zeros((a.shape[1], a.shape[1]))
    return a.T @ a


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for empty or all-zero input."""
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def cauchy_binet_check(a, b) -> tuple[float, float]:
    """Evaluate det(AB) two ways: directly and as the sum over column subsets.

    A is l-by-m and B is m-by-l.  Returns ``(det(AB), subset_sum)`` where the
    subset sum runs over all l-element subsets I of the middle index set,
    adding det(A_I) * det(B_I).  Test utility for the determinant machinery;
    m is capped at 12 because the sum is combinatorial.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    l, m = a.shape
    mb, lb = b.shape
    if m != mb or l != lb:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    if m > _CAUCHY_BINET_MAX_M:
        raise SizeLimitError(f"middle dimension {m} exceeds limit {_CAUCHY_BINET_MAX_M}")
    lhs = float(np.linalg.det(a @ b))
    rhs = 0.0
    for idx in combinations(range(m), l):
        cols = list(idx)
        rhs += float(np.linalg.det(a[:, cols])) * float(np.linalg.det(b[cols, :]))
    return lhs, rhs
