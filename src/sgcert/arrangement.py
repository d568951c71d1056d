"""Subspace arrangements: data model, validation, generators, file format.

A subspace is stored as an orthonormal row basis; an arrangement is an
ordered list of subspaces sharing one ambient dimension.  Complex inputs
are realified here at the ingestion boundary; no complex arithmetic
survives past this module.
"""

from dataclasses import InitVar, dataclass, field
from itertools import chain

import numpy as np

from .errors import ParseError, PreconditionError, SgcertError
from .linalg import (
    CHUNK_BYTES,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    chunk_slices,
    orthonormalize,
    rank,
    spectral_norm,
    stacked_ranks,
)


class InvariantViolation(SgcertError):
    """A data-model invariant does not hold for the given content."""


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^ambient given by an orthonormal row basis.

    A 0-row basis encodes the zero space.  The rows must be orthonormal
    within ``tol.residual_tol`` (``tol`` is not stored); ``drift`` is max |B
    B^T - I| of the basis B as that check computed it (0 for the zero
    space).
    """

    ambient: int
    basis: np.ndarray
    tol: InitVar[Tolerance] = DEFAULT_TOL
    drift: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, tol):
        b = as_matrix(self.basis).reshape(-1, self.ambient) if np.asarray(self.basis).size else np.zeros((0, self.ambient))
        object.__setattr__(self, "basis", b)
        if b.shape[1] != self.ambient:
            raise InvariantViolation(
                f"basis has {b.shape[1]} columns, ambient is {self.ambient}"
            )
        if b.shape[0] > self.ambient:
            raise InvariantViolation("basis has more rows than the ambient dimension")
        err = 0.0
        if b.shape[0]:
            # huge rows overflow the Gram; an inf or NaN residual fails the test
            with np.errstate(over="ignore", invalid="ignore"):
                err = np.abs(b @ b.T - np.eye(b.shape[0])).max()
            if not err <= tol.residual_tol:
                raise InvariantViolation(
                    f"basis rows are not orthonormal (Gram residual {err:.3e})"
                )
        object.__setattr__(self, "drift", float(err))

    @classmethod
    def _checked(cls, ambient: int, basis: np.ndarray, drift: float) -> "Subspace":
        """The subspace of a finite (k, ambient) float basis, k <= ambient,
        whose orthonormality was already checked (:func:`read_arrangement`),
        with its ``drift``."""
        v = object.__new__(cls)
        object.__setattr__(v, "ambient", ambient)
        object.__setattr__(v, "basis", basis)
        object.__setattr__(v, "drift", drift)
        return v

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @staticmethod
    def from_spanning(rows, ambient: int, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Build a subspace from arbitrary spanning rows (orthonormalized)."""
        rows = np.asarray(rows, dtype=float).reshape(-1, ambient)
        return Subspace(ambient, orthonormalize(rows, tol))

    def contains(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """True iff every basis row of ``other`` lies in this subspace."""
        if other.dim == 0:
            return True
        if self.dim == 0:
            return False
        resid = other.basis - (other.basis @ self.basis.T) @ self.basis
        return bool(np.linalg.norm(resid, axis=1).max() <= tol.residual_tol)


@dataclass
class Arrangement:
    """Ordered list of subspaces of a common ambient space."""

    ambient: int
    spaces: list
    field_tag: str = "real"

    def __post_init__(self):
        for i, v in enumerate(self.spaces):
            if v.ambient != self.ambient:
                raise InvariantViolation(
                    f"space {i} has ambient {v.ambient}, arrangement has {self.ambient}"
                )

    @property
    def n(self) -> int:
        return len(self.spaces)

    def stacked_basis(self) -> np.ndarray:
        return np.concatenate([np.zeros((0, self.ambient))] + [v.basis for v in self.spaces])

    def dimension(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """dim of the sum of all subspaces (numerical rank of stacked bases)."""
        return rank(self.stacked_basis(), tol)

    def dims(self) -> list:
        return [len(v.basis) for v in self.spaces]

    def drifts(self) -> np.ndarray:
        """Each space's :attr:`Subspace.drift`."""
        return np.array([v.drift for v in self.spaces])

    def max_dim(self) -> int:
        return max((v.dim for v in self.spaces), default=0)


def _runs(rows: np.ndarray) -> tuple:
    """(order, starts): a stable lexicographic sort of ``rows`` and the first
    row of each run of equal rows in it (sorted by hand: numpy's unique
    imports numpy.ma, about 1 MB, on its first call)."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(fresh)


def _index_array(sets) -> tuple:
    """(flat, sizes): the indices of a list of index tuples, set after set,
    and each set's size."""
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
    return flat, sizes


def _set_rows(flat: np.ndarray, starts: np.ndarray, which: np.ndarray, size: int) -> np.ndarray:
    """The (len(which), size) rows of the sets ``which``, cut from ``flat`` at ``starts``."""
    return flat[starts[which][:, None] + np.arange(size)]


def _set_stacks(arr: Arrangement, sets: np.ndarray, width: int):
    """Yield (idx, stacks): the stacked bases of the sets ``sets[idx]``.

    ``sets`` is an (m, size) index array, and ``idx`` indexes its rows, not
    the spaces.  ``stacks[q]`` holds the basis rows of the members of
    ``sets[idx[q]]``, in the order the set lists them, gathered by row
    index from the arrangement's stacked basis.  Sets are grouped by their
    dimension signature (the dimensions of their members, in order) by
    sorting the signature rows with :func:`_runs`, which needs no memory
    beyond the signatures however long the sets are; within a group they
    keep their order in ``sets``.  A group's row index is its members' first
    rows, each repeated by its dimension, plus the group's row offsets within
    each member: one gather per chunk whatever the set size.  Each group is
    cut so that a float array of shape (len(idx), rows of a stack,
    ``width``) stays within CHUNK_BYTES.
    """
    if not len(sets):
        return
    dims = np.array(arr.dims(), dtype=int)
    rows, starts = arr.stacked_basis(), np.cumsum(dims) - dims
    order, runs = _runs(dims.astype(np.min_scalar_type(dims.max()))[sets])
    for members in np.split(order, runs[1:]):
        signature = dims[sets[members[0]]]
        offsets = np.arange(signature.sum()) - np.repeat(np.cumsum(signature) - signature,
                                                         signature)
        for part in chunk_slices(members.size, 8 * max(int(signature.sum()), 1) * width):
            idx = members[part]
            yield idx, rows[np.repeat(starts[sets[idx]], signature, axis=1) + offsets]


def _space_stacks(arr: Arrangement, keep=None):
    """:func:`_set_stacks` of the nonzero spaces where ``keep`` is true (all by
    default) as 1-member sets: (idx, stacks) per chunk of one dimension,
    ascending, with ``idx`` the space indices, ascending."""
    dims = np.array(arr.dims(), dtype=int)
    chosen = np.flatnonzero((dims > 0) if keep is None else (dims > 0) & keep)
    for pos, stacks in _set_stacks(arr, chosen[:, None], arr.ambient):
        yield chosen[pos], stacks


def _basis_drift(rows: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """max |B B^T - I| for the basis B of each space, as computed, by one
    stacked Gram per dimension; ``rows`` stacks the bases, of ``dims`` rows."""
    starts = np.cumsum(dims) - dims
    drift = np.zeros(len(dims))
    for d in set(dims.tolist()) - {0}:
        spaces = np.flatnonzero(dims == d)
        block = rows[starts[spaces][:, None] + np.arange(d)]
        drift[spaces] = np.abs(block @ block.transpose(0, 2, 1) - np.eye(d)).max(axis=(1, 2))
    return drift


def _subspaces(rows: np.ndarray, dims: np.ndarray, tol: Tolerance) -> list:
    """The subspaces of the bases stacked in ``rows``, of ``dims`` rows each,
    checked as :class:`Subspace` checks them, but by one stacked Gram per
    dimension (:func:`_basis_drift`).  A row sum rounds within ambient eps of
    its exact value, so a basis whose stacked Gram is within twice that of
    the bound is left to Subspace itself, as is one failing it or with a
    non-finite entry (whose drift is inf or NaN)."""
    ambient = rows.shape[1]
    margin = 2 * ambient * np.finfo(float).eps * (1 + tol.residual_tol)
    with np.errstate(invalid="ignore", over="ignore"):
        drift = _basis_drift(rows, dims)
        fit = (dims <= ambient) & (drift <= tol.residual_tol - margin)
    return [Subspace._checked(ambient, rows[e - d:e], dr) if ok
            else Subspace(ambient, rows[e - d:e], tol)
            for d, e, dr, ok in zip(dims.tolist(), np.cumsum(dims).tolist(),
                                    drift.tolist(), fit.tolist())]


def _full_rank_margin(tol: Tolerance, ambient: int, size, trace):
    """The lambda_min that proves a stack of ``size`` rows in R^ambient, whose
    Gram matrix has trace ``trace``, of full rank under the rule of
    :func:`rank`: 4 rank_tol^2 T + (l + s + 4) eps T (see
    :func:`_stacked_set_ranks`).  ``size`` and ``trace`` may be arrays."""
    return (4 * tol.rank_tol**2 + (ambient + 4 + size) * np.finfo(float).eps) * trace


def _full_rank(stacks: np.ndarray, ambient: int, tol: Tolerance) -> bool:
    """Whether one stacked Cholesky factorisation proves every stack of full
    row rank with a margin (the screen of :func:`_stacked_set_ranks`)."""
    size = stacks.shape[1]
    if not 0 < size <= ambient:
        return False
    diagonal = (slice(None), range(size), range(size))
    gram = stacks @ stacks.transpose(0, 2, 1)
    gram[diagonal] -= _full_rank_margin(tol, ambient, size,
                                        gram[diagonal].sum(axis=1, keepdims=True))
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _top_cosine2(c: np.ndarray) -> np.ndarray:
    """sigma_max^2 of each (lo, hi) block of ``c``, stacked as (lo, hi, m), lo <= hi:
    from the Gram [[p, r], [r, q]] of its rows, p for lo = 1 and (p + q +
    hypot(p - q, 2 r)) / 2 for lo = 2, and from a stacked SVD above that."""
    lo = c.shape[0]
    if lo > 2:
        return np.linalg.svd(c.transpose(2, 0, 1), compute_uv=False)[:, 0] ** 2
    if lo == 0:
        return np.zeros(c.shape[2])
    gram = np.einsum("ihm,jhm->ijm", c, c)
    if lo == 1:
        return gram[0, 0]
    p, q, r = gram[0, 0], gram[1, 1], gram[0, 1]
    return 0.5 * (p + q + np.hypot(p - q, 2 * r))


def _pair_floor(rows: np.ndarray, dims: np.ndarray, drift: np.ndarray,
                pairs: np.ndarray) -> np.ndarray:
    """A proven lower bound on lambda_min of each pair's stacked Gram matrix.

    ``rows`` stacks the bases of the spaces, of ``dims`` rows each, and
    ``drift`` holds their :attr:`Subspace.drift`; ``pairs`` is an (m, 2) index
    array.  For a row (a, b), with s = d_a + d_b, l the ambient dimension
    and eps = 2^-52, the bound is

        f = 1 - sigma - d_a drift_a - d_b drift_b - 2 (s + 1) (l + 4) eps,

    where sigma is the computed largest singular value of the computed
    cross block C = B_a B_b^T, the cosine of the smallest principal angle
    (Bjorck and Golub, Math. Comp. 1973).  The blocks are cut from products
    of the stacked basis rows, one per group of pairs of one dimension
    signature whose spaces a start within the same CHUNK_BYTES / (8 rows)
    rows, so that each product, and the blocks of distinct pairs cut from
    it, stay within about CHUNK_BYTES.  sigma^2 is read off the Gram
    [[p, r], [r, q]] of the rows of the smaller side of C: p when that side
    is 1, and (p + q + hypot(p - q, 2 r)) / 2 when it is 2, a sum of
    non-negative terms (the textbook (f + sqrt(f^2 - 4 det)) / 2, f = p +
    q, loses all accuracy to cancellation when the two singular values
    are close).  Above 2 it comes from a stacked SVD.

    Proof.  Let G = M M^T with M = [B_a; B_b], and E = diag(B_a B_a^T - I,
    B_b B_b^T - I).  G - E = [[I, C], [C^T, I]] has the eigenvalues 1 +-
    sigma_i(C), and 1, so by Weyl lambda_min(G) >= 1 - sigma_max(C) -
    |E|_2.  A symmetric d x d block has norm at most d times its largest
    entry, and drift_x is within l eps of B_x B_x^T - I entrywise (the
    rounding of the Gram, whose rows have squared norms <= 1 + drift_x; if
    drift_x > 1, f < 0 holds anyway), so |E|_2 <= sum_x d_x (drift_x + l
    eps).  The computed C is within l eps of C entrywise, so within
    sqrt(d_a d_b) l eps <= s l eps / 2 in norm.  The computed sigma is
    within 2 (l + 4) eps of sigma_max of the computed C: the closed forms
    round each Gram entry within l eps sigma^2 and add a few roundings,
    the square root one more, and the SVD's own error is a small multiple
    of its dimension times eps, as in :func:`_stacked_set_ranks`; sigma <=
    1 + drift <= 2.  The subtractions of f round within 4 eps.  These add
    up to at most 2 (s + 1) (l + 4) eps beyond the drift terms.
    """
    if not len(pairs):
        return np.zeros(0)
    starts = np.cumsum(dims) - dims
    step = max(1, CHUNK_BYTES // (8 * max(len(rows), 1)))
    # a group's key: its signature (d_a, d_b) and the block of rows where a starts
    sig = dims * (len(rows) // step + 1)
    a, b = pairs.T
    key = (sig * (dims.max() + 1) + starts // step)[a] + sig[b]
    order = np.argsort(key, kind="stable")
    key, ra, rb = key[order], starts[a[order]], starts[b[order]]
    runs = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(pairs)]
    top = np.empty(len(pairs))
    for lo, hi in zip(runs, runs[1:]):
        qa, qb, d, e = ra[lo:hi], rb[lo:hi], dims[a[order[lo]]], dims[b[order[lo]]]
        a0, b0 = qa.min(), qb.min()
        prod = rows[a0:qa.max() + d] @ rows[b0:qb.max() + e].T
        block = np.arange(prod.size).reshape(prod.shape)[:d, :e]
        top[order[lo:hi]] = _top_cosine2(prod.take((block if d <= e else block.T)[:, :, None]
                                                   + (qa - a0) * prod.shape[1] + qb - b0))
    fp = 2 * (rows.shape[1] + 4) * np.finfo(float).eps
    slack = dims * (drift + fp)
    return 1 - fp - np.sqrt(top) - slack[a] - slack[b]


def _pair_ranks(arr: Arrangement, pairs: np.ndarray, tol: Tolerance) -> np.ndarray:
    """s = d_a + d_b for each row (a, b) of ``pairs`` that :func:`_pair_floor`
    proves of full rank, and -1 for the others.  A pair is proven when its
    floor is above the :func:`_full_rank_margin` of T = sum_x d_x (1 +
    drift_x + l eps), x = a, b, a bound on the trace of its Gram matrix
    (whose diagonal entries are within drift_x + l eps of 1)."""
    rows, dims, drift = arr.stacked_basis(), np.array(arr.dims(), dtype=int), arr.drifts()
    a, b = pairs[:, 0], pairs[:, 1]
    size, trace = dims[a] + dims[b], dims * (1 + drift + arr.ambient * np.finfo(float).eps)
    margin = _full_rank_margin(tol, arr.ambient, size, trace[a] + trace[b])
    return np.where(_pair_floor(rows, dims, drift, pairs) > margin, size, -1)


def _stacked_set_ranks(arr: Arrangement, sets: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Rank of the stacked bases of each row of ``sets`` (an (m, size) index array).

    Ranks are decided under the rule of :func:`rank`.  A 2-member set that
    :func:`_pair_ranks` proves of full rank takes rank s without a
    factorisation: its floor on lambda_min clears the margin below, as a
    Cholesky factorisation that completes would.  The other sets come from
    :func:`_set_stacks` and are decided one chunk at a time.

    A chunk whose stacks have s <= l rows (l the ambient dimension) is
    first screened for full rank without an SVD (:func:`_full_rank`): with
    G the Gram matrix of a stack and T its trace, one stacked Cholesky
    factorisation of G - tau I is tried, where

        tau = 4 rank_tol^2 T + (l + s + 4) eps T    (eps = 2^-52),

    the margin of :func:`_full_rank_margin`.  The rounding of G, of the
    shift and Cholesky's backward error together perturb G by at most (l +
    s + 4) (eps / 2) T to first order (Higham, Thm 10.3: a factorisation
    that completes is exact for a perturbation bounded by (s + 1) (eps / 2)
    times the trace of its factor product), so a factorisation that
    completes proves lambda_min(G) > 4 rank_tol^2 T + (l + s + 4) (eps / 2)
    T.  As T >= lambda_max(G), that is sigma_min > max(2 rank_tol, sqrt((l
    + s + 4) eps / 2)) sigma_max, a margin far above the SVD's own error of
    a small multiple of l s (eps / 2) sigma_max: the SVD rule also counts
    all s singular values, and every set of the chunk has rank s.  If any
    factorisation fails, the chunk's ranks come from its stacked singular
    values, as do those of stacks with s > l rows.
    """
    ranks = _pair_ranks(arr, sets, tol) if sets.shape[1] == 2 else np.full(len(sets), -1)
    out, rest = np.maximum(ranks, 0), np.flatnonzero(ranks < 0)
    for idx, stacks in _set_stacks(arr, sets[rest], arr.ambient):
        if _full_rank(stacks, arr.ambient, tol):
            out[rest[idx]] = stacks.shape[1]
        elif stacks.shape[1]:
            out[rest[idx]] = stacked_ranks(np.linalg.svd(stacks, compute_uv=False), tol)
    return out


def pairwise_zero_intersection(arr: Arrangement, tol: Tolerance = DEFAULT_TOL) -> list:
    """All pairs (i, j), i < j, whose subspaces intersect nontrivially, sorted.

    An empty list certifies that every pair meets only at the origin.  Each
    pair of nonzero spaces is a 2-member set ranked by
    :func:`_stacked_set_ranks`; it meets when its rank, under the rule of
    :func:`rank`, is below dim_i + dim_j.  Most pairs are proven disjoint by
    their principal cosines alone (:func:`_pair_floor`), with no Cholesky
    factorisation or SVD; the rest are ranked as before.  The pairs are ranked in blocks
    of rows i, in lexicographic order, each block's (m, 2) pair array
    within CHUNK_BYTES: no array of all pairs is built.
    """
    dims = np.array(arr.dims(), dtype=int)
    nonzero = np.flatnonzero(dims)
    count, bad = nonzero.size, []
    for block in chunk_slices(count, 16 * count):
        i, j = np.nonzero(np.arange(block.start, block.stop)[:, None] < np.arange(count))
        pairs = np.column_stack([nonzero[i + block.start], nonzero[j]])
        bad.extend(pairs[_stacked_set_ranks(arr, pairs, tol) < dims[pairs].sum(axis=1)].tolist())
    return [tuple(p) for p in bad]


def tau_separated(v: Subspace, w: Subspace, tau: float) -> bool:
    """True iff all unit-vector inner products between v and w are <= 1 - tau.

    Decided by the largest singular value of B_v B_w^T (the cosine of the
    smallest principal angle).  A cosine exactly equal to 1 - tau counts
    as separated.
    """
    if v.ambient != w.ambient:
        raise PreconditionError("subspaces have different ambient dimensions")
    if not (0.0 < tau <= 1.0):
        raise PreconditionError(f"tau must be in (0, 1], got {tau}")
    return principal_cosine(v, w) <= 1.0 - tau


def principal_cosine(v: Subspace, w: Subspace) -> float:
    """Cosine of the smallest principal angle between two subspaces."""
    if v.dim == 0 or w.dim == 0:
        return 0.0
    return spectral_norm(v.basis @ w.basis.T)


def complex_to_real(ambient: int, bases, tol: Tolerance = DEFAULT_TOL) -> Arrangement:
    """Realify subspaces of C^ambient by the standard embedding of C^l in R^2l.

    ``bases`` holds one complex (k, ambient) array per space.  A basis row
    v = x + iy gives the two rows (x, y) and (-y, x), so a complex k-space
    becomes a real 2k-space, two spaces meet only at 0 over R exactly when
    they do over C, and a real dimension bound B gives dim_C <= floor(B/2).
    Rows dependent over C (realified rank below 2k) raise InvariantViolation.
    Each row is first scaled by the power of two that brings its largest
    modulus into [0.5, 1), exactly and without squares, so that rows of
    independent directions but far apart in norm are not taken for
    dependent by the relative rank rule; a row already there keeps its bits.
    """
    spaces = []
    for b in map(np.asarray, bases):
        shift = -np.frexp(np.abs(b).max(axis=1, initial=0.0))[1][:, None]
        re, im = np.ldexp(b.real, shift), np.ldexp(b.imag, shift)
        rows = orthonormalize(np.block([[re, im], [-im, re]]), tol)
        if len(rows) < 2 * len(b):
            raise InvariantViolation("complex basis rows are linearly dependent over C")
        spaces.append(Subspace(2 * ambient, rows, tol))
    return Arrangement(2 * ambient, spaces, field_tag="complex")


# ---------------------------------------------------------------------------
# generators


def _random_orthogonal(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _draw_spaces(frames: np.ndarray, ranks: np.ndarray, k: int, rng, tol: Tolerance,
                 disjoint: bool = False) -> list:
    """One generic k-space inside each frame, in order, as drawing them one
    at a time gives them.

    ``frames`` is an (m, r, l) array of orthonormal row frames, possibly a
    broadcast view; frame u is its first ``ranks[u]`` rows.  A space is a
    (k, ranks[u]) standard normal draw times its frame, orthonormalized.  A
    draw of rank below k is refused, and so, with ``disjoint``, is one that
    meets a space drawn before it beyond the origin; the frame then draws
    again.  100 draws of rank below k in a row, or 100 refused by pairs for
    one frame, raise SgcertError.

    The remaining frames draw at once: one normal draw of all their entries
    (the stream of one draw each), one stacked product per run of equal
    ranks, one stacked SVD, and one :func:`_stacked_set_ranks` call for
    every draw against the spaces and draws before it.  The draws are taken
    up to the first refused one; its frame and those after it draw again,
    from the normals after it.
    """
    ambient = frames.shape[2]
    spaces, head, misses, fails = [], np.zeros(0), 0, 0
    while len(spaces) < len(frames):
        done, want = len(spaces), ranks[len(spaces):]
        ends = np.cumsum(k * want)
        raw = np.concatenate([head, rng.standard_normal(ends[-1] - head.size)])
        drawn = np.empty((len(want), k, ambient))
        cuts = [0, *(np.flatnonzero(np.diff(want)) + 1).tolist(), len(want)]
        for lo, hi in zip(cuts, cuts[1:]):
            r = want[lo]
            drawn[lo:hi] = (raw[ends[lo] - k * r:ends[hi - 1]].reshape(hi - lo, k, r)
                            @ frames[done + lo:done + hi, :r])
        _, s, vt = np.linalg.svd(drawn, full_matrices=False)
        full = stacked_ranks(s, tol) == k
        count = len(full) if full.all() else int(np.argmin(full))
        cands = _subspaces(vt[:count].reshape(-1, ambient), np.full(count, k), DEFAULT_TOL)
        fits = np.ones(count, dtype=bool)
        if disjoint:
            # each draw against every space and draw before it
            cand, other = np.nonzero(np.arange(done, done + count)[:, None]
                                     > np.arange(done + count))
            pairs = np.column_stack([cand + done, other])
            fits[cand[_stacked_set_ranks(Arrangement(ambient, spaces + cands), pairs, tol)
                      != 2 * k]] = False
        for u in range(len(want)):
            if u < count and fits[u]:
                spaces.append(cands[u])
                misses = fails = 0
                continue
            if u == count:
                misses += 1
                if misses == 100:
                    raise SgcertError("failed to draw a full-dimensional subspace")
            else:
                misses, fails = 0, fails + 1
                if fails == 100:
                    raise SgcertError("could not place a block member in generic position")
            head = raw[ends[u]:]
            break
    return spaces


def generate_grouped(k: int, delta: float, n: int, ambient=None,
                     seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> Arrangement:
    """n spaces split into ceil(1/delta) blocks, each inside one 2k-space.

    Block frames are mutually orthogonal 2k-row slices of a random
    orthogonal matrix, so the total dimension is exactly 2k * ceil(1/delta)
    whenever every block is populated.  Within a block, spaces are generic
    k-subspaces with pairwise zero intersection (re-checked, not assumed),
    each block drawn in one batch (:func:`_draw_spaces`).  ``delta`` must be
    finite.
    """
    if k < 1 or n < 1 or not 0 < delta < np.inf:  # NaN fails this too
        raise PreconditionError("grouped generator needs k >= 1, n >= 1, delta > 0")
    groups = int(np.ceil(1.0 / delta - 1e-12))
    if ambient is None:
        ambient = 2 * k * groups
    if ambient < 2 * k * groups:
        raise PreconditionError(
            f"ambient {ambient} cannot hold {groups} orthogonal blocks of dimension {2 * k}"
        )
    rng = np.random.default_rng(seed)
    basis = _random_orthogonal(ambient, rng)
    sizes = [n // groups + (1 if g < n % groups else 0) for g in range(groups)]
    spaces = []
    for g, size in enumerate(sizes):
        frame = basis[2 * k * g : 2 * k * (g + 1)]
        spaces.extend(_draw_spaces(np.broadcast_to(frame, (size, *frame.shape)),
                                   np.full(size, 2 * k), k, rng, tol, disjoint=True))
    return Arrangement(ambient, spaces)


def generate_grid(ambient: int) -> Arrangement:
    """The ambient*(ambient-1)/2 coordinate-pair planes span{e_i, e_j}."""
    if ambient < 2:
        raise PreconditionError("grid generator needs ambient >= 2")
    eye = np.eye(ambient)
    spaces = [
        Subspace(ambient, eye[[i, j]])
        for i in range(ambient)
        for j in range(i + 1, ambient)
    ]
    return Arrangement(ambient, spaces)


def planted_triples(n: int, triple_count: int) -> list:
    """Index triples (a, b, c) used by the planted generators.

    Overwritten spaces c descend from n-1 so that the a, b parents are
    never themselves overwritten; parents cycle over the stable prefix.
    """
    if triple_count < 0 or n < triple_count + 2:
        raise PreconditionError(f"{triple_count} triples need n >= {triple_count + 2}")
    prefix = n - triple_count
    return [((2 * t) % prefix, (2 * t + 1) % prefix, n - 1 - t)
            for t in range(triple_count)]


def generate_random_planted(n: int, k: int, ambient: int, triple_count: int,
                            seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> Arrangement:
    """Random k-spaces with ``triple_count`` planted dependent triples.

    For each (a, b, c) from :func:`planted_triples`, space c is redrawn
    generically inside the sum of spaces a and b.  Pairwise zero
    intersection is re-checked on the output, not assumed.  The first
    spaces, and then the redrawn ones, are drawn in one batch each
    (:func:`_draw_spaces`).
    """
    if 2 * k > ambient:
        raise PreconditionError(f"need ambient >= 2k = {2 * k} for zero pairwise intersections")
    plan = planted_triples(n, triple_count)
    rng = np.random.default_rng(seed)
    a, b, c = np.array(plan, dtype=int).reshape(-1, 3).T
    eye = np.broadcast_to(np.eye(ambient), (n, ambient, ambient))
    for _ in range(100):
        spaces = _draw_spaces(eye, np.full(n, ambient), k, rng, tol)
        if plan:
            # the parents a, b are never redrawn: every pair frame comes first
            bases = np.array([v.basis for v in spaces])
            _, s, frames = np.linalg.svd(np.concatenate([bases[a], bases[b]], axis=1),
                                         full_matrices=False)
            for i, v in zip(c.tolist(), _draw_spaces(frames, stacked_ranks(s, tol), k, rng, tol)):
                spaces[i] = v
        arr = Arrangement(ambient, spaces)
        if not pairwise_zero_intersection(arr, tol):
            return arr
    raise SgcertError("could not reach generic position for planted arrangement")


def generate_complex_planted(n: int, k: int, ambient: int, triple_count: int,
                             seed: int = 0) -> list:
    """Complex analogue of the planted generator: one complex (k, ambient)
    basis per space, for :func:`complex_to_real`."""
    if 2 * k > ambient:
        raise PreconditionError(f"need ambient >= 2k = {2 * k}")
    plan = planted_triples(n, triple_count)
    rng = np.random.default_rng(seed)
    mats = [
        rng.standard_normal((k, ambient)) + 1j * rng.standard_normal((k, ambient))
        for _ in range(n)
    ]
    for a, b, c in plan:
        stacked = np.vstack([mats[a], mats[b]])
        coeff = rng.standard_normal((k, 2 * k)) + 1j * rng.standard_normal((k, 2 * k))
        mats[c] = coeff @ stacked
    return mats


def generate(kind: str, params: dict, seed: int = 0,
             tol: Tolerance = DEFAULT_TOL):
    """Dispatch to a named generator; params are keyword arguments."""
    if kind == "grouped":
        return generate_grouped(params["k"], params["delta"], params["n"],
                                params.get("ambient"), seed, tol)
    if kind == "grid":
        return generate_grid(params["ambient"])
    if kind == "random_planted":
        return generate_random_planted(params["n"], params["k"], params["ambient"],
                                       params.get("triples", 0), seed, tol)
    raise PreconditionError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# file format (line oriented, whitespace separated, UTF-8)
#
#   arrangement v1
#   field real|complex
#   ambient <l>
#   n <count>
#   space <id> dim <k>
#   <k rows of l reals, or l "re,im" pairs when complex>
#
# A complex file is realified as it is read (:func:`complex_to_real`);
# only real files are written.


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_arrangement(path, arr: Arrangement) -> None:
    lines = ["arrangement v1", "field real", f"ambient {arr.ambient}", f"n {arr.n}"]
    for idx, v in enumerate(arr.spaces):
        lines.append(f"space {idx} dim {v.dim}")
        lines.extend(" ".join(map(_fmt, row)) for row in v.basis.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path) -> list:
    """The lines of a text file; a missing or unreadable file is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _split_lines(path) -> tuple:
    """(lines, cells): the lines of a text file (:func:`_read_lines`), and the
    (line number, tokens) of each non-blank one, numbered from 1."""
    lines = _read_lines(path)
    return lines, [(no, tokens) for no, tokens in enumerate(map(str.split, lines), 1) if tokens]


def _parse_count(text, lineno) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ParseError(f"expected a non-negative integer, got {text!r}", lineno)


def _row_floats(tokens, complex_field: bool) -> list:
    """The floats of row tokens, or the complex numbers of ``re,im`` tokens
    (exactly two float parts).  Raises ValueError on a bad token."""
    if not complex_field:
        return list(map(float, tokens))
    return [complex(float(re), float(im)) for re, _, im in (c.partition(",") for c in tokens)]


def read_arrangement(path, tol: Tolerance = DEFAULT_TOL):
    """Parse an arrangement file into an Arrangement; a complex one is
    realified by :func:`complex_to_real`.

    Basis rows must be orthonormal within ``tol.residual_tol``, and only
    blank lines may follow the last declared space.  The file is read in
    one pass: one walk over the tokens of the non-blank lines stops at the
    first line out of place, and one ``float`` converts every row token
    before it (if one fails, the rows are converted again one at a time to
    name the first bad one).  The spaces whose rows all come before the
    first bad line are then built in order, so that a bad basis raises
    first, as reading line by line would; a real space is checked by one
    stacked Gram per dimension, or by :class:`Subspace` itself when within
    rounding of the bound or failing it, and a complex one by
    :func:`complex_to_real`.
    """
    lines, cells = _split_lines(path)

    def expect(at, *words):
        """(line number, tokens) of non-blank line ``at``, which must begin
        with ``words`` (None matches any token)."""
        if at == len(cells):
            raise ParseError("unexpected end of file", len(lines))
        no, parts = cells[at]
        if len(parts) < len(words) or any(p != w for p, w in zip(parts, words) if w is not None):
            raise ParseError(f"expected {' '.join(w or '<value>' for w in words)!r}, "
                             f"got {lines[no - 1].strip()!r}", no)
        return no, parts

    expect(0, "arrangement", "v1")
    no, parts = expect(1, "field", None)
    if parts[1] not in ("real", "complex"):
        raise ParseError(f"unknown field {parts[1]!r}", no)
    complex_field = parts[1] == "complex"
    no, parts = expect(2, "ambient", None)
    ambient = _parse_count(parts[1], no)
    no, parts = expect(3, "n", None)
    count = _parse_count(parts[1], no)
    # the walk: the rows up to the first line out of place, the end of each
    # whole space's rows among them, and that line's error
    rows, ends, at, error = [], [], 4, None
    try:
        for idx in range(count):
            no, parts = expect(at, "space", None, "dim", None)
            if _parse_count(parts[1], no) != idx:
                raise ParseError(f"expected space {idx}, got {parts[1]}", no)
            dim = _parse_count(parts[3], no)
            block = cells[at + 1:at + 1 + dim]
            for no, row in block:
                if len(row) != ambient:
                    raise ParseError(f"row has {len(row)} entries, ambient is {ambient}", no)
                rows.append((no, row))
            if len(block) < dim:
                raise ParseError("unexpected end of file", len(lines))
            ends.append(len(rows))
            at += 1 + dim
        if at < len(cells):
            raise ParseError("content after the last declared space", cells[at][0])
    except ParseError as exc:
        error = exc
    try:
        values = _row_floats(chain.from_iterable(row for _, row in rows), complex_field)
    except ValueError:
        for k, (no, row) in enumerate(rows):
            try:
                _row_floats(row, complex_field)
            except ValueError as exc:
                error, rows = ParseError(f"bad numeric row: {exc}", no), rows[:k]
                break
        values = _row_floats(chain.from_iterable(row for _, row in rows), complex_field)
    stacked = np.array(values).reshape(len(rows), ambient)
    ends = np.array([e for e in ends if e <= len(rows)], dtype=int)
    dims = np.diff(ends, prepend=0)
    if complex_field:
        arr = complex_to_real(ambient, [stacked[e - d:e] for d, e in
                                        zip(dims.tolist(), ends.tolist())], tol)
    else:
        arr = Arrangement(ambient, _subspaces(stacked, dims, tol))
    if error is not None:
        raise error
    return arr
