"""Dependent triples, special spaces, and (alpha, delta)-systems.

A system is a multiset of 2- and 3-element index sets over an arrangement:
3-sets record triples where one space lies in the sum of the other two, 2-sets
record equal spaces (these arise when a linear map kills one member of a
triple).  "Lies in" has one meaning throughout: every basis row within
``residual_tol`` of the span, as in :meth:`Subspace.contains` and the pair
scan.  Degree and counting thresholds are compared in exact rational
arithmetic so that ceil/floor decisions never flip on float noise.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice, starmap
from math import ceil, isfinite

import numpy as np

from .arrangement import (
    Arrangement,
    Subspace,
    _index_array,
    _pair_ranks,
    _runs,
    _set_rows,
    _set_stacks,
    _space_stacks,
    _split_lines,
)
from .errors import (
    InconsistentSystemError,
    ParseError,
    PreconditionError,
    SgcertError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    orthonormalize,
    stacked_ranks,
)
from .pairscan import _PairScan, _pairs


def as_fraction(x) -> Fraction:
    """Exact rational view of a threshold parameter.

    Floats are snapped to the nearest rational with denominator <= 1e9,
    which recovers every count/n ratio that occurs in practice.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**9)


class TripleSystem:
    """Multiset of dependency sets with declared parameters (alpha, delta).

    The sets are held as one index array: each set's indices ascending, set
    after set, and each set's size (:meth:`_flat`).  ``sets`` lists them as
    sorted tuples, built when first read.  Sets of any size, with repeated
    or out-of-range indices, are held as given, for :func:`validate_system`
    to report.
    """

    def __init__(self, n: int, sets, alpha: int, delta: float):
        self._init(n, *_index_array(sets), alpha, delta)

    @classmethod
    def _of_arrays(cls, n: int, flat: np.ndarray, sizes: np.ndarray, alpha: int,
                   delta: float) -> "TripleSystem":
        """The system of the sets cut from ``flat`` by ``sizes``, in any order within a set."""
        sys = cls.__new__(cls)
        sys._init(n, flat, sizes, alpha, delta)
        return sys

    def _init(self, n, flat, sizes, alpha, delta):
        self.n, self.alpha, self.delta = n, alpha, delta
        flat, self._sizes = flat.astype(np.intp, copy=False), sizes.astype(np.intp, copy=False)
        self._indices = flat[np.lexsort((flat, np.repeat(np.arange(sizes.size), sizes)))]
        self._sets = None

    def __eq__(self, other):
        if not isinstance(other, TripleSystem):
            return NotImplemented
        return ((self.n, self.alpha, self.delta) == (other.n, other.alpha, other.delta)
                and np.array_equal(self._sizes, other._sizes)
                and np.array_equal(self._indices, other._indices))

    def __repr__(self):
        return (f"TripleSystem(n={self.n!r}, sets={self.sets!r}, alpha={self.alpha!r}, "
                f"delta={self.delta!r})")

    @property
    def sets(self) -> list:
        """The sets as sorted tuples.  The list is a cache of the index
        array: edits to it are not seen by the system."""
        if self._sets is None:
            flat = iter(self._indices.tolist())
            self._sets = [tuple(islice(flat, size)) for size in self._sizes.tolist()]
        return self._sets

    @property
    def w(self) -> int:
        return self._sizes.size

    def degrees(self) -> list:
        return np.bincount(self._indices, minlength=self.n).tolist()

    def _flat(self) -> tuple:
        """(flat, sizes): each set's indices ascending, set after set, and each set's size."""
        return self._indices, self._sizes


@dataclass(frozen=True)
class SpecialSpace:
    """A pair span containing at least three arrangement members."""

    span_basis: np.ndarray
    member_indices: tuple

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass
class SystemReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def is_dependent_triple(v1: Subspace, v2: Subspace, v3: Subspace,
                        tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff one of the three spaces lies in the sum of the other two.

    Decided one triple at a time: each space is tested by
    :meth:`Subspace.contains` against :meth:`Subspace.from_spanning` of the
    other two, so every basis row must lie within ``residual_tol`` of their
    span.  For pairwise zero-intersecting spaces of equal dimension one
    containment gives the other two in exact arithmetic.
    """
    if not (v1.ambient == v2.ambient == v3.ambient):
        raise PreconditionError("triple spans different ambient spaces")
    spaces = (v1, v2, v3)
    return any(Subspace.from_spanning(np.vstack([spaces[b].basis for b in range(3) if b != a]),
                                      v1.ambient, tol).contains(spaces[a], tol)
               for a in range(3))


def _special_and_dependent(arr: Arrangement, tol: Tolerance, triples: bool = True) -> tuple:
    """Special spaces and dependent triples, read off one pass over the pair spans.

    A special space is a pair span holding >= 3 nonzero members.  The scan
    of :func:`pairscan._pair_members` stores each once, with the lexicographically
    first pair that spans it, and they are listed in the order of those
    pairs; a ``span_basis`` is computed once, at the end, by
    :func:`orthonormalize` of that pair's stacked bases.  A dependent
    triple {a, b, c} has c inside span(a, b): a zero space or one the scan
    found.  The triples come back as sorted tuples in lexicographic order,
    or as None, with no rows recorded, when ``triples`` is false.
    """
    scan, found = _PairScan(arr, tol, triples), []
    zero = np.flatnonzero(~scan.nonzero)
    for a, b, inside in scan:
        if zero.size and triples:
            inside = np.concatenate([inside, _pairs(b, zero[zero != a])])
        if len(inside):
            found.append(np.column_stack([np.full(len(inside), a), inside]))
    specials = [SpecialSpace(orthonormalize(np.vstack([arr.spaces[a].basis,
                                                       arr.spaces[b].basis]), tol),
                             tuple(members.tolist()))
                for (a, b), (members, _) in sorted(zip(scan.first, scan.found),
                                                   key=lambda f: f[0])]
    if not triples:
        return specials, None
    rows = np.sort(np.concatenate(found or [np.zeros((0, 3), dtype=int)]), axis=1)
    order, starts = _runs(rows)
    return specials, [tuple(t) for t in rows[order[starts]].tolist()]


def find_special_spaces(arr: Arrangement, k: int,
                        tol: Tolerance = DEFAULT_TOL) -> list:
    """All pair spans containing >= 3 arrangement members, deduplicated.

    Requires pairwise zero intersections so that each pair of spaces has a
    unique span of full combined dimension; raises naming the first
    offending pair otherwise.  Zero-dimensional spaces are ignored.
    """
    if any(d > k for d in arr.dims()):
        raise PreconditionError(f"arrangement is not {k}-bounded")
    return _special_and_dependent(arr, tol, triples=False)[0]


# ---------------------------------------------------------------------------
# triple family over [r]


def _idempotent_quasigroup(r: int) -> list:
    """Multiplication table of an idempotent quasigroup on {0..r-1}.

    Odd r: the modular averaging x*y = (x+y)(r+1)/2.  Even r: prolongation
    of the odd table of order r-1 along the transversal (x, x+1), with the
    displaced values rerouted through the new element r-1.
    """
    if r % 2 == 1:
        h = (r + 1) // 2
        return [[((a + b) * h) % r for b in range(r)] for a in range(r)]
    q = r - 1
    h = (q + 1) // 2
    base = [[((a + b) * h) % q for b in range(q)] for a in range(q)]
    table = [[0] * r for _ in range(r)]
    for a in range(q):
        for b in range(q):
            table[a][b] = base[a][b]
    table[q][q] = q
    for x in range(q):
        y = (x + 1) % q
        displaced = base[x][y]
        table[x][y] = q
        table[x][q] = displaced
        table[q][y] = displaced
    return table


def build_triple_family(r: int) -> list:
    """Deterministic multiset of r^2 - r triples over {0..r-1}.

    Every element appears in exactly 3(r-1) triples and every pair appears
    together in exactly 6; triples always have three distinct elements.
    Built as {x, y, x*y} over all ordered pairs of an idempotent
    quasigroup, which forces the counts; the postcondition re-verifies.
    """
    return list(map(tuple, _triple_family(r).tolist()))


def _triple_family(r: int) -> np.ndarray:
    """:func:`build_triple_family` as an (r^2 - r, 3) array, each row ascending."""
    if r < 3:
        raise PreconditionError(f"triple family needs r >= 3, got {r}")
    table = np.array(_idempotent_quasigroup(r))
    x, y = np.nonzero(~np.eye(r, dtype=bool))  # the ordered pairs x != y, row by row
    family = np.sort(np.column_stack([x, y, table[x, y]]), axis=1)
    if len(family) != r * r - r:
        raise SgcertError("triple family has wrong size")
    degenerate = np.flatnonzero((family[:, 0] == family[:, 1]) | (family[:, 1] == family[:, 2]))
    if degenerate.size:
        raise SgcertError(f"degenerate triple {tuple(family[degenerate[0]].tolist())}")
    if (np.bincount(family.ravel(), minlength=r) != 3 * (r - 1)).any():
        raise SgcertError("triple family element counts are off")
    pairs = np.concatenate([family[:, i] * r + family[:, j] for i, j in ((0, 1), (0, 2), (1, 2))])
    if (np.bincount(pairs) > 6).any():
        raise SgcertError("triple family pair multiplicity exceeds 6")
    return family


def build_sg_system(arr: Arrangement, k: int,
                    tol: Tolerance = DEFAULT_TOL) -> TripleSystem:
    """Union of triple families over every special space's member list.

    The family of each member count r is built once, as an (r^2 - r, 3)
    array, and each special space gathers its members by that array.
    Returns alpha = 6 and delta measured from the construction: the largest
    value such that every index lies in at least delta * n sets (zero when
    there are no special spaces).
    """
    specials = find_special_spaces(arr, k, tol)
    families = {r: _triple_family(r) for r in {sp.size for sp in specials}}
    rows = [np.array(sp.member_indices)[families[sp.size]] for sp in specials]
    flat = np.concatenate(rows).ravel() if rows else np.zeros(0, dtype=np.intp)
    sys = TripleSystem._of_arrays(arr.n, flat, np.full(flat.size // 3, 3), alpha=6,
                                  delta=0.0)
    if rows and arr.n:
        sys.delta = min(sys.degrees()) / arr.n
    return sys


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the non-negative ``keys``, sorted."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) > 0]


def _inside(arr: Arrangement, sets: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Whether each row of ``sets``, an (m, size) index array, has its last
    member inside the span of its other members.

    A row holds when every basis row of its last member lies within
    ``residual_tol`` of that span: the predicate of :meth:`Subspace.contains`
    and of the pair scan.  The rows are sorted by their other members, and
    each run of rows with the same ones, within a chunk of
    :func:`_set_stacks`, gets one orthonormal basis Q of their span.  Q comes
    from one stacked Householder QR when the other members are one space or
    a pair that :func:`_pair_ranks` proves of full rank; otherwise from one
    stacked SVD, keeping the rows that the rule of :func:`stacked_ranks`
    counts, as :func:`orthonormalize` does.
    """
    order = np.lexsort(sets.T[::-1])
    sets, out = sets[order], np.zeros(len(sets), dtype=bool)
    others, dims = sets[:, :-1], np.array(arr.dims(), dtype=int)
    full = (_pair_ranks(arr, others, tol) >= 0 if others.shape[1] == 2
            else np.ones(len(sets), dtype=bool))
    for rows, by_qr in ((np.flatnonzero(full), True), (np.flatnonzero(~full), False)):
        for idx, stacks in _set_stacks(arr, sets[rows], arr.ambient):
            idx = rows[idx]
            p = int(dims[others[idx[0]]].sum())
            fresh = (np.diff(others[idx], axis=0, prepend=-1) != 0).any(axis=1)
            if by_qr:
                q = np.linalg.qr(stacks[fresh, :p].transpose(0, 2, 1))[0]
            else:
                _, s, vt = np.linalg.svd(stacks[fresh, :p], full_matrices=False)
                kept = np.arange(vt.shape[1]) < stacked_ranks(s, tol)[:, None]
                q = (vt * kept[:, :, None]).transpose(0, 2, 1)
            q, x = q[np.cumsum(fresh) - 1], stacks[:, p:]
            resid = x - (x @ q) @ q.transpose(0, 2, 1)
            out[order[idx]] = (np.einsum("qsl,qsl->qs", resid, resid)
                               <= tol.residual_tol**2).all(axis=1)
    return out


def _semantics_hold(arr: Arrangement, threes: np.ndarray, twos: np.ndarray,
                    tol: Tolerance) -> tuple:
    """Whether each 3-set and each 2-set (rows of distinct in-range indices) holds.

    A 3-set {i, j, k} must be a dependent triple: one member inside the span
    of the other two (:func:`_inside`, the predicate of
    :func:`is_dependent_triple`).  A 2-set must be two equal spaces: equal
    dimension, and the second inside the first.  Each distinct 3-set and
    each distinct 2-set is decided once: they are found by sorting integer
    keys, (i n + j) n + k and i n + j, and every set reads its answer back
    from its key.  The 3-sets are tried as (i, j -> k); those still
    undecided as (i, k -> j), and then as (j, k -> i).
    """
    n = arr.n
    three_keys = (threes[:, 0] * n + threes[:, 1]) * n + threes[:, 2]
    distinct3 = _distinct(three_keys)
    ij, k = np.divmod(distinct3, n)
    i, j = np.divmod(ij, n)
    dependent = np.zeros(distinct3.size, dtype=bool)
    for cols in ((i, j, k), (i, k, j), (j, k, i)):
        rest = np.flatnonzero(~dependent)
        dependent[rest] = _inside(arr, np.column_stack(cols)[rest], tol)
    two_keys = twos[:, 0] * n + twos[:, 1]
    distinct2 = _distinct(two_keys)
    pairs = np.column_stack(np.divmod(distinct2, n))
    d = np.array(arr.dims(), dtype=int)[pairs]
    equal = (d[:, 0] == d[:, 1]) & _inside(arr, pairs, tol)
    return (dependent[np.searchsorted(distinct3, three_keys)],
            equal[np.searchsorted(distinct2, two_keys)])


def validate_system(arr: Arrangement, sys: TripleSystem,
                    tol: Tolerance = DEFAULT_TOL) -> SystemReport:
    """Check every system requirement; violations are report content.

    Covers set sizes, the containment/equality semantics of 3- and 2-sets,
    per-index degree >= delta * n, per-pair multiplicity <= alpha, and the
    counting consequences delta n^2 / 3 <= w <= alpha n^2 / 2 and
    delta/alpha <= 3/2.  The checks run on one array of all the sets'
    indices: sizes, ranges and repeats by set, degrees by one count, and
    pair multiplicities from sorted keys i n + j of the pairs of every set
    with all its indices in range (out-of-range sets are reported and left
    out of every count).  The violations of each kind come in the order of
    the per-set definitions: by set, by index, and by the pair's first
    occurrence.
    """
    report = SystemReport()
    v = report.violations
    if sys.n != arr.n:
        v.append(f"system indexes {sys.n} spaces, arrangement has {arr.n}")
        return report
    n, w = arr.n, sys.w
    flat, sizes = sys._flat()
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(w), sizes)
    in_range = np.bincount(owner[(flat < 0) | (flat >= n)], minlength=w) == 0
    # each set's indices are ascending, so a repeat is a neighbour
    repeats = np.bincount(owner[1:][(flat[1:] == flat[:-1]) & (owner[1:] == owner[:-1])],
                          minlength=w)
    well_formed = ((sizes == 2) | (sizes == 3)) & (repeats == 0)
    bad_sets = {j: f"set {j}: size must be 2 or 3 with distinct indices, got {sys.sets[j]}"
                for j in np.flatnonzero(~well_formed).tolist()}
    bad_sets.update((j, f"set {j}: index out of range in {sys.sets[j]}")
                    for j in np.flatnonzero(well_formed & ~in_range).tolist())
    checked = well_formed & in_range
    by_size = {size: np.flatnonzero(checked & (sizes == size)) for size in (2, 3)}
    dependent, equal = _semantics_hold(arr, _set_rows(flat, starts, by_size[3], 3),
                                       _set_rows(flat, starts, by_size[2], 2), tol)
    bad_sets.update((j, f"set {j}: {sys.sets[j]} is not a dependent triple")
                    for j in by_size[3][~dependent].tolist())
    bad_sets.update((j, f"set {j}: spaces {sys.sets[j][0]} and {sys.sets[j][1]} are not equal")
                    for j in by_size[2][~equal].tolist())
    v.extend(bad_sets[j] for j in sorted(bad_sets))
    delta = as_fraction(sys.delta)
    counted = in_range[owner]
    deg = np.bincount(flat[counted], minlength=n)
    # deg < delta n for an integer deg means deg < ceil(delta n)
    for i in np.flatnonzero(deg < ceil(delta * n)).tolist():
        v.append(
            f"index {i} lies in {deg[i]} sets, fewer than delta*n = {float(delta * n):g}"
        )
    v.extend(f"pair ({a},{b}) appears in {c} sets, more than alpha = {sys.alpha}"
             for a, b, c in _pairs_above(flat, starts, sizes, in_range, n, sys.alpha))
    if Fraction(3 * w) < delta * n * n:
        v.append(f"count bound failed: w = {w} < delta*n^2/3 = {float(delta * n * n / 3):g}")
    if Fraction(2 * w) > Fraction(sys.alpha) * n * n:
        v.append(f"count bound failed: w = {w} > alpha*n^2/2 = {sys.alpha * n * n / 2:g}")
    if 2 * delta > 3 * sys.alpha:
        v.append(f"delta/alpha = {float(delta) / sys.alpha:g} exceeds 3/2")
    return report


def _pairs_above(ordered: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                 counted: np.ndarray, n: int, alpha: int) -> list:
    """(a, b, count) for each pair a <= b in more than ``alpha`` counted sets.

    ``ordered`` holds each set's indices ascending, set after set from
    ``starts``; the pairs of a set are its index combinations in order.  A
    pair appears once per set and combination that gives it, and the
    pairs come in the order of their first appearance, set by set.
    """
    keys, first = [], []
    stride = int(sizes.max(initial=1)) ** 2  # above the combinations of any set
    for size in np.flatnonzero(np.bincount(sizes[counted])).tolist():
        which = np.flatnonzero(counted & (sizes == size))
        rows = _set_rows(ordered, starts, which, size)
        for c, (i, j) in enumerate(combinations(range(size), 2)):
            keys.append(rows[:, i] * n + rows[:, j])
            first.append(which * stride + c)
    if not keys:
        return []
    keys, first = np.concatenate(keys), np.concatenate(first)
    order = np.lexsort((first, keys))
    keys, first = keys[order], first[order]
    runs = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(runs, append=keys.size)
    over = np.flatnonzero(counts > alpha)
    over = over[np.argsort(first[runs[over]])]
    a, b = np.divmod(keys[runs[over]], n)
    return list(zip(a.tolist(), b.tolist(), counts[over].tolist()))


def prune_low_degree(arr: Arrangement, sys: TripleSystem, delta,
                     tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Iteratively drop spaces in fewer than delta*n/2 sets (and their sets).

    Requires w >= delta * n^2 (with requirements 1, 2, 4 assumed to hold).
    Returns (sub_arrangement, sub_system, index_map) where index_map sends
    new positions to original ones and the sub-system is a validated
    (alpha, delta/2)-system of the sub-arrangement.  Each round counts the
    degrees over the living sets' index array, compares them with the
    threshold in integers, and relabels the kept sets on the same array.
    """
    delta = as_fraction(delta)
    n = arr.n
    if Fraction(sys.w) < delta * n * n:
        raise PreconditionError(
            f"pruning needs w >= delta*n^2 = {float(delta * n * n):g}, got {sys.w}"
        )
    flat, sizes = sys._flat()
    owner = np.repeat(np.arange(sys.w), sizes)
    # deg < delta n / 2 for an integer deg means deg < ceil(delta n / 2)
    cut = ceil(delta * n / 2)
    alive, live = np.ones(n, dtype=bool), np.ones(sys.w, dtype=bool)
    while True:
        doomed = alive & (np.bincount(flat[live[owner]], minlength=n) < cut)
        if not doomed.any():
            break
        alive &= ~doomed
        # a set lives while all of its members do
        live = np.bincount(owner[~alive[flat]], minlength=sys.w) == 0
    index_map = np.flatnonzero(alive).tolist()
    if Fraction(len(index_map)) * 2 * sys.alpha < delta * n:
        raise InconsistentSystemError(
            "pruning kept fewer spaces than delta*n/(2*alpha); input system was inconsistent"
        )
    sub_arr = Arrangement(arr.ambient, [arr.spaces[i] for i in index_map],
                          field_tag=arr.field_tag)
    # the new index of a kept space is the number of kept spaces before it
    sub_sys = TripleSystem._of_arrays(len(index_map), (np.cumsum(alive) - 1)[flat[live[owner]]],
                                      sizes[live], alpha=sys.alpha, delta=float(delta / 2))
    report = validate_system(sub_arr, sub_sys, tol)
    if not report.ok:
        raise InconsistentSystemError(
            "pruned system failed re-validation: " + "; ".join(report.violations[:3])
        )
    return sub_arr, sub_sys, index_map


def _project_spaces(arr: Arrangement, p: np.ndarray, tol: Tolerance) -> dict:
    """``{i: image basis}`` of the spaces whose image under a linear map is nonzero.

    Basis rows are unit vectors, so singular values of an image below
    rank_tol relative to max(largest, 1) are genuine zeros, not small
    surviving directions.  One stacked SVD per group of :func:`_space_stacks`;
    each image equals the one an SVD of that space's image alone gives, bit
    for bit.
    """
    images = {}
    for idx, stack in _space_stacks(arr):
        _, s, vt = np.linalg.svd(stack @ p.T, full_matrices=False)
        ranks = np.count_nonzero(s >= tol.rank_tol * np.maximum(s[:, :1], 1.0), axis=1)
        for i, r, v in zip(idx.tolist(), ranks.tolist(), vt):
            if r:
                images[i] = v[:r].copy()
    return images


def map_and_clean(arr: Arrangement, sys: TripleSystem, p,
                  tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Apply a linear map, drop zero images, and relabel the system.

    3-sets that lose exactly one member demote to 2-sets of equal spaces;
    sets losing all members are dropped.  A 3-set losing exactly two
    members (or a 2-set losing exactly one) contradicts the system
    semantics and raises, for the first such set.  The sets are relabeled
    on one array of all their indices.  Returns (arrangement, system,
    delta_prime) with delta_prime = delta * n / n'.
    """
    p = as_matrix(p)
    if p.shape != (arr.ambient, arr.ambient):
        raise PreconditionError(
            f"map must be {arr.ambient}x{arr.ambient}, got {p.shape}"
        )
    images = _project_spaces(arr, p, tol)
    n_prime = len(images)
    if n_prime == 0:
        raise PreconditionError("the map killed every space in the arrangement")
    kept = [Subspace(arr.ambient, images[i]) for i in sorted(images)]
    survives = np.zeros(arr.n, dtype=bool)
    survives[list(images)] = True
    flat, sizes = sys._flat()
    owner = np.repeat(np.arange(len(sizes)), sizes)
    in_range = (flat >= 0) & (flat < arr.n)
    alive = np.zeros(flat.size, dtype=bool)
    alive[in_range] = survives[flat[in_range]]
    count = np.bincount(owner[alive], minlength=len(sizes))
    broken = np.flatnonzero((count == 1) & ((sizes == 2) | (sizes == 3)))
    if broken.size:
        j = int(broken[0])
        if sizes[j] == 3:
            raise InconsistentSystemError(
                f"set {j}: two members of a dependent triple were killed but the "
                "third survived, contradicting the containment"
            )
        raise InconsistentSystemError(
            f"set {j}: one of two equal spaces was killed but not the other"
        )
    # the new index of a surviving space is the number of survivors before it
    relabeled = (np.cumsum(survives) - 1)[flat[alive & (count[owner] >= 2)]]
    delta = as_fraction(sys.delta)
    delta_prime = delta * sys.n / n_prime
    new_arr = Arrangement(arr.ambient, kept, field_tag=arr.field_tag)
    new_sys = TripleSystem._of_arrays(n_prime, relabeled, count[count >= 2],
                                      alpha=sys.alpha, delta=float(delta_prime))
    report = validate_system(new_arr, new_sys, tol)
    if not report.ok:
        raise InconsistentSystemError(
            "mapped system failed re-validation: " + "; ".join(report.violations[:3])
        )
    return new_arr, new_sys, float(delta_prime)


# ---------------------------------------------------------------------------
# system file format
#
#   system v1
#   n <n> alpha <a> delta <d>
#   3 i j k | 2 i j          (0-based indices, one set per line)


def write_system(path, sys: TripleSystem) -> None:
    """Write a system file; each set's line is formatted from the index array,
    one format per set size, and the lines are joined once."""
    flat, sizes = sys._flat()
    starts = np.cumsum(sizes) - sizes
    lines = np.empty(sizes.size, dtype=object)
    for size in set(sizes.tolist()):
        which = np.flatnonzero(sizes == size)
        line = f"{size} " + " ".join(["{}"] * size)
        lines[which] = list(starmap(line.format, _set_rows(flat, starts, which, size).tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["system v1", f"n {sys.n} alpha {sys.alpha} delta {sys.delta:.17g}",
                            *lines.tolist()]) + "\n")


def read_system(path) -> TripleSystem:
    """Parse a system file.

    The set lines are parsed in bulk: the tokens of each non-blank line
    (:func:`_split_lines`), one integer conversion of all of theirs, and
    array checks of each line's size, token count and index range.  A file
    that fails any of these is parsed again one line at a time, which
    raises the ParseError of its first bad line.
    """
    lines, cells = _split_lines(path)
    if not cells or lines[cells[0][0] - 1].strip() != "system v1":
        raise ParseError("expected 'system v1' header", cells[0][0] if cells else 1)
    if len(cells) < 2:
        raise ParseError("missing parameter line", 2)
    no, parts = cells[1]
    params = lines[no - 1].strip()
    if len(parts) != 6 or parts[0] != "n" or parts[2] != "alpha" or parts[4] != "delta":
        raise ParseError(f"bad parameter line {params!r}", no)
    try:
        n, alpha, delta = int(parts[1]), int(parts[3]), float(parts[5])
    except ValueError as exc:
        raise ParseError(str(exc), no) from None
    if n < 0 or alpha < 1 or not (isfinite(delta) and delta >= 0):
        raise ParseError(f"need n >= 0, alpha >= 1 and a finite delta >= 0 in {params!r}", no)
    cells = cells[2:]
    tokens = list(chain.from_iterable(parts for _, parts in cells))
    digits = "".join(tokens)
    # tokens of ASCII digits only read the same in C as under int(); a value
    # that overflows reads as the largest int64, and is sent on below
    if digits.isascii() and digits.isdigit():
        values = np.fromstring(" ".join(tokens), dtype=np.int64, sep=" ")
        counts = np.fromiter((len(parts) for _, parts in cells), dtype=np.intp, count=len(cells))
        starts = np.cumsum(counts) - counts
        sizes = values[starts]
        idx = np.delete(values, starts)
        if (((sizes == 2) | (sizes == 3)) & (counts == sizes + 1)).all() \
                and (idx < min(n, np.iinfo(np.int64).max)).all():
            return TripleSystem._of_arrays(n, idx, sizes, alpha=alpha, delta=delta)
    sets = []
    for no, parts in cells:  # the set lines, one at a time
        try:
            size = int(parts[0])
            idx = [int(c) for c in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"bad set line: {exc}", no) from None
        if size not in (2, 3) or len(idx) != size:
            raise ParseError(f"set line declares size {size} but has {len(idx)} indices", no)
        if any(i < 0 or i >= n for i in idx):
            raise ParseError(f"set index out of range [0, {n}) in {lines[no - 1].strip()!r}", no)
        sets.append(tuple(idx))
    return TripleSystem(n, sets, alpha=alpha, delta=delta)
