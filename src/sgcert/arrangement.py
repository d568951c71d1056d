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
    within ``tol.residual_tol`` (``tol`` is not stored).
    """

    ambient: int
    basis: np.ndarray
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol):
        b = as_matrix(self.basis).reshape(-1, self.ambient) if np.asarray(self.basis).size else np.zeros((0, self.ambient))
        object.__setattr__(self, "basis", b)
        if b.shape[1] != self.ambient:
            raise InvariantViolation(
                f"basis has {b.shape[1]} columns, ambient is {self.ambient}"
            )
        if b.shape[0] > self.ambient:
            raise InvariantViolation("basis has more rows than the ambient dimension")
        if b.shape[0]:
            # huge rows overflow the Gram; an inf or NaN residual fails the test
            with np.errstate(over="ignore", invalid="ignore"):
                err = np.abs(b @ b.T - np.eye(b.shape[0])).max()
            if not err <= tol.residual_tol:
                raise InvariantViolation(
                    f"basis rows are not orthonormal (Gram residual {err:.3e})"
                )

    @classmethod
    def _checked(cls, ambient: int, basis: np.ndarray) -> "Subspace":
        """The subspace of a finite (k, ambient) float basis, k <= ambient,
        whose orthonormality was already checked (:func:`read_arrangement`)."""
        v = object.__new__(cls)
        object.__setattr__(v, "ambient", ambient)
        object.__setattr__(v, "basis", basis)
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

    def max_dim(self) -> int:
        return max((v.dim for v in self.spaces), default=0)


@dataclass(frozen=True)
class ComplexSubspace:
    """A k-dim subspace of C^ambient with basis rows given as (re, im) parts."""

    ambient: int
    basis_re: np.ndarray
    basis_im: np.ndarray
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol):
        re = as_matrix(self.basis_re).reshape(-1, self.ambient)
        im = as_matrix(self.basis_im).reshape(-1, self.ambient)
        object.__setattr__(self, "basis_re", re)
        object.__setattr__(self, "basis_im", im)
        if re.shape != im.shape:
            raise InvariantViolation("real and imaginary parts differ in shape")
        k = re.shape[0]
        if k:
            # Rows independent over C iff the realification has rank 2k.
            realified = np.block([[re, im], [-im, re]])
            if rank(realified, tol) < 2 * k:
                raise InvariantViolation("complex basis rows are linearly dependent over C")

    @property
    def dim(self) -> int:
        return self.basis_re.shape[0]


@dataclass
class ComplexArrangement:
    ambient: int
    spaces: list = field(default_factory=list)

    def __post_init__(self):
        for i, v in enumerate(self.spaces):
            if v.ambient != self.ambient:
                raise InvariantViolation(
                    f"space {i} has ambient {v.ambient}, arrangement has {self.ambient}"
                )

    @property
    def n(self) -> int:
        return len(self.spaces)


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


def _full_rank(stacks: np.ndarray, ambient: int, tol: Tolerance) -> bool:
    """Whether one stacked Cholesky factorisation proves every stack of full
    row rank with a margin (the screen of :func:`_stacked_set_ranks`)."""
    size = stacks.shape[1]
    if not 0 < size <= ambient:
        return False
    shift = 4 * tol.rank_tol**2 + (ambient + size + 4) * np.finfo(float).eps
    diagonal = (slice(None), range(size), range(size))
    gram = stacks @ stacks.transpose(0, 2, 1)
    gram[diagonal] -= shift * gram[diagonal].sum(axis=1, keepdims=True)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _stacked_set_ranks(arr: Arrangement, sets: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Rank of the stacked bases of each row of ``sets`` (an (m, size) index array).

    The stacks come from :func:`_set_stacks` and are decided under the rule
    of :func:`rank`, one chunk at a time.

    A chunk whose stacks have s <= l rows (l the ambient dimension) is
    first screened for full rank without an SVD (:func:`_full_rank`): with
    G the Gram matrix of a stack and T its trace, one stacked Cholesky
    factorisation of G - tau I is tried, where

        tau = 4 rank_tol^2 T + (l + s + 4) eps T    (eps = 2^-52).

    The rounding of G, of the shift and Cholesky's backward error together
    perturb G by at most (l + s + 4) (eps / 2) T to first order (Higham,
    Thm 10.3: a factorisation that completes is exact for a perturbation
    bounded by (s + 1) (eps / 2) times the trace of its factor product), so
    a factorisation that completes proves lambda_min(G) > 4 rank_tol^2 T +
    (l + s + 4) (eps / 2) T.  As T >= lambda_max(G), that is sigma_min >
    max(2 rank_tol, sqrt((l + s + 4) eps / 2)) sigma_max, a margin far above
    the SVD's own error of a small multiple of l s (eps / 2) sigma_max: the
    SVD rule also counts all s singular values, and every set of the chunk
    has rank s.  If any factorisation fails, the chunk's ranks come from
    its stacked singular values, as do those of stacks with s > l rows.
    """
    out = np.zeros(len(sets), dtype=int)
    for idx, stacks in _set_stacks(arr, sets, arr.ambient):
        if _full_rank(stacks, arr.ambient, tol):
            out[idx] = stacks.shape[1]
        elif stacks.shape[1]:
            out[idx] = stacked_ranks(np.linalg.svd(stacks, compute_uv=False), tol)
    return out


def pairwise_zero_intersection(arr: Arrangement, tol: Tolerance = DEFAULT_TOL) -> list:
    """All pairs (i, j), i < j, whose subspaces intersect nontrivially, sorted.

    An empty list certifies that every pair meets only at the origin.  Each
    pair of nonzero spaces is a 2-member set ranked by
    :func:`_stacked_set_ranks`; it meets when its rank, under the rule of
    :func:`rank`, is below dim_i + dim_j.  The pairs are ranked in blocks
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


def complex_to_real(spaces, tol: Tolerance = DEFAULT_TOL) -> Arrangement:
    """Realify complex subspaces: each image is the span of all re/im parts.

    Image dimensions are at most twice the complex dimension, and any
    containment V_a in V_b + V_c over C is preserved over R.
    """
    spaces = list(spaces)
    if not spaces:
        raise PreconditionError("empty complex space list")
    ambient = spaces[0].ambient
    out = []
    for v in spaces:
        if v.ambient != ambient:
            raise PreconditionError("complex spaces have mixed ambient dimensions")
        rows = np.vstack([v.basis_re, v.basis_im]) if v.dim else np.zeros((0, ambient))
        out.append(Subspace(ambient, orthonormalize(rows, tol)))
    return Arrangement(ambient, out, field_tag="complex")


# ---------------------------------------------------------------------------
# generators


def _random_orthogonal(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _draw_inside(frame: np.ndarray, k: int, rng, tol: Tolerance) -> Subspace:
    ambient = frame.shape[1]
    for _ in range(100):
        rows = rng.standard_normal((k, frame.shape[0])) @ frame
        q = orthonormalize(rows, tol)
        if q.shape[0] == k:
            return Subspace(ambient, q)
    raise SgcertError("failed to draw a full-dimensional subspace")


def generate_grouped(k: int, delta: float, n: int, ambient=None,
                     seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> Arrangement:
    """n spaces split into ceil(1/delta) blocks, each inside one 2k-space.

    Block frames are mutually orthogonal 2k-row slices of a random
    orthogonal matrix, so the total dimension is exactly 2k * ceil(1/delta)
    whenever every block is populated.  Within a block, spaces are generic
    k-subspaces with pairwise zero intersection (re-checked, not assumed).
    ``delta`` must be finite.
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
        block = []
        for _ in range(size):
            for _ in range(100):
                cand = _draw_inside(frame, k, rng, tol)
                # each pair (cand, member) of the block in one call
                pairs = np.column_stack([np.full(len(block), len(block)),
                                         np.arange(len(block))])
                if (_stacked_set_ranks(Arrangement(ambient, block + [cand]), pairs, tol)
                        == 2 * k).all():
                    block.append(cand)
                    break
            else:
                raise SgcertError("could not place a block member in generic position")
        spaces.extend(block)
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
    intersection is re-checked on the output, not assumed.
    """
    if 2 * k > ambient:
        raise PreconditionError(f"need ambient >= 2k = {2 * k} for zero pairwise intersections")
    plan = planted_triples(n, triple_count)
    rng = np.random.default_rng(seed)
    eye = np.eye(ambient)
    for _ in range(100):
        spaces = [_draw_inside(eye, k, rng, tol) for _ in range(n)]
        for a, b, c in plan:
            pair_frame = orthonormalize(
                np.vstack([spaces[a].basis, spaces[b].basis]), tol
            )
            spaces[c] = _draw_inside(pair_frame, k, rng, tol)
        arr = Arrangement(ambient, spaces)
        if not pairwise_zero_intersection(arr, tol):
            return arr
    raise SgcertError("could not reach generic position for planted arrangement")


def generate_complex_planted(n: int, k: int, ambient: int, triple_count: int,
                             seed: int = 0) -> ComplexArrangement:
    """Complex analogue of the planted generator, for the realification path."""
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
    spaces = [ComplexSubspace(ambient, m.real.copy(), m.imag.copy()) for m in mats]
    return ComplexArrangement(ambient, spaces)


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_arrangement(path, arr) -> None:
    complex_mode = isinstance(arr, ComplexArrangement)
    lines = ["arrangement v1",
             f"field {'complex' if complex_mode else 'real'}",
             f"ambient {arr.ambient}",
             f"n {arr.n}"]
    for idx, v in enumerate(arr.spaces):
        lines.append(f"space {idx} dim {v.dim}")
        if complex_mode:
            lines.extend(" ".join(f"{_fmt(re)},{_fmt(im)}" for re, im in zip(row_re, row_im))
                         for row_re, row_im in zip(v.basis_re.tolist(), v.basis_im.tolist()))
        else:
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
    """The floats of row tokens; of ``re,im`` tokens, every real part, then
    every imaginary part.  Raises ValueError or IndexError on a bad token."""
    if not complex_field:
        return list(map(float, tokens))
    parts = [c.split(",") for c in tokens]
    return [float(p[0]) for p in parts] + [float(p[1]) for p in parts]


def read_arrangement(path, tol: Tolerance = DEFAULT_TOL):
    """Parse an arrangement file; returns Arrangement or ComplexArrangement.

    Basis rows must be orthonormal within ``tol.residual_tol``, and only
    blank lines may follow the last declared space.  The file is read in
    one pass: one walk over the tokens of the non-blank lines stops at the
    first line out of place, and one ``float`` converts every row token
    before it (if one fails, the rows are converted again one at a time to
    name the first bad one).  The spaces whose rows all come before the
    first bad line are then built in order, so that a bad basis raises
    first, as reading line by line would; a real space is checked by one
    stacked Gram per dimension, or by :class:`Subspace` itself when within
    rounding of the bound or failing it.
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
    except (ValueError, IndexError):
        for k, (no, row) in enumerate(rows):
            try:
                _row_floats(row, complex_field)
            except (ValueError, IndexError) as exc:
                error, rows = ParseError(f"bad numeric row: {exc}", no), rows[:k]
                break
        values = _row_floats(chain.from_iterable(row for _, row in rows), complex_field)
    values = np.array(values).reshape(1 + complex_field, len(rows), ambient)
    ends = np.array([e for e in ends if e <= len(rows)], dtype=int)
    dims = np.diff(ends, prepend=0)
    if complex_field:
        re, im = values
        spaces = [ComplexSubspace(ambient, re[e - d:e], im[e - d:e], tol)
                  for d, e in zip(dims.tolist(), ends.tolist())]
    else:
        stacked = values[0]
        # a row sum rounds within ambient eps of its exact value, so a space whose
        # stacked Gram is within twice that of the bound is left to Subspace, as
        # is one with a non-finite entry (whose drift is inf or NaN)
        margin = 2 * ambient * np.finfo(float).eps * (1 + tol.residual_tol)
        with np.errstate(invalid="ignore", over="ignore"):
            fit = (dims <= ambient) & (_basis_drift(stacked, dims) <= tol.residual_tol - margin)
        spaces = [Subspace._checked(ambient, stacked[e - d:e]) if ok
                  else Subspace(ambient, stacked[e - d:e], tol)
                  for d, e, ok in zip(dims.tolist(), ends.tolist(), fit.tolist())]
    if error is not None:
        raise error
    return (ComplexArrangement if complex_field else Arrangement)(ambient, spaces)
