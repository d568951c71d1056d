"""Frame scaling for subspace arrangements.

Given subspaces V_1..V_n and weights p in the convex hull of admissible
basis indicators, find an invertible map M with

    || sum_i p_i Proj_{M(V_i)} - I ||  <=  eps.

The functional f(t, R_1..R_n) = <gamma, t> - ln det(sum_s e^{t_s} x_s x_s^T)
is maximized by alternating two moves that never decrease f: a
closed-form normalisation that resets every weighted space's t and R to
the maximizer of f's tangent lower bound (operator / Sinkhorn scaling),
and a damped Newton step on each space's whole weight block
A_i = R_i diag(e^{t_i}) R_i^T, which moves t and R together (after the
operator-scaling Newton methods of Allen-Zhu, Garg, Li, Oliveira and
Wigderson, STOC 2018).  At a stationary point the map
M = X^{-1/2} satisfies the conclusion; divergence of t is reported as an
obstruction diagnostic instead of a map, unless the map reached on the way
already meets the target gap.
"""

from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .arrangement import (Arrangement, Subspace, _index_array, _runs, _space_stacks,
                          _stacked_set_ranks)
from .errors import (
    DegenerateStateError,
    OptimizeTimeoutError,
    PreconditionError,
    SgcertError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    orthonormalize,
    spectral_norm,
    stacked_ranks,
)

# Floor of the smallest residual singular value treated as "clear of the
# current span" by the greedy sampler and the basis extension (see
# _eligible_min_sv); far above eigensolver noise, far below generic
# clearances.  The admissibility of every emitted set is re-verified with
# the exact integer rank equation.
_ELIGIBLE_MIN_SV = 1e-7

# Trials the greedy sampler scans together: at most _TRIAL_BLOCK, and as
# many as keep a block's working state (span, window and random order of
# each trial) within _BLOCK_BYTES.  Each scanned position costs a fixed
# number of numpy calls per block, so the budget sits where a larger block
# stops saving time, not where a block fits in cache.  The sampled sets
# depend on neither.
_TRIAL_BLOCK = 1024
_BLOCK_BYTES = 3 << 20

# Spaces of its random order a trial projects on its span in one product.
_SCAN_WINDOW = 4

# Largest diagonal (t) and off-diagonal (rotation) entry of a Newton step.
_STEP_CAP, _ROT_CAP = 4.0, 1.0


# ---------------------------------------------------------------------------
# sampling admissible sets


class AdmissibleSample:
    """Greedy-to-maximality samples: per-trial pick sequences and frequencies.

    Row t of ``picks`` holds the picks of trial t in pick order, each index
    plus one, padded with zeros: an unsigned array as narrow as the indices
    allow.  ``sets`` lists the same picks as tuples of indices; it is built
    when first read, and a sample made from ``sets`` takes its ``picks``
    from them.  A sample of :class:`_SampleStream` also carries the stream's
    distinct sets and their counts (``_runs``, see :func:`_set_runs`), each
    of them verified admissible, with the arrangement and tolerance it was
    verified on (``_verified_on``); a sample made by hand has neither.
    """

    def __init__(self, sets=None, p_hat=None, trials=None, seed=None, picks=None):
        self._sets = sets
        self.picks = _pick_rows(sets) if picks is None else picks
        self.p_hat, self.trials, self.seed = p_hat, trials, seed
        self._runs = self._verified_on = None

    @property
    def sets(self) -> list:
        if self._sets is None:
            self._sets = _pick_tuples(self.picks)
        return self._sets


def _pick_rows(sets) -> np.ndarray:
    """The ``picks`` array of a list of index tuples (see AdmissibleSample)."""
    tags, sizes = _index_array(sets)
    tags += 1
    return _padded(tags, sizes, int(sizes.max(initial=1)),
                   np.min_scalar_type(tags.max(initial=0)))


def _padded(tags: np.ndarray, sizes: np.ndarray, width: int, dtype) -> np.ndarray:
    """Rows of ``width`` zero-padded entries; row t holds the next ``sizes[t]`` tags."""
    rows = np.zeros((sizes.size, width), dtype=dtype)
    rows[np.arange(width) < sizes[:, None]] = tags
    return rows


def _pick_tuples(picks: np.ndarray) -> list:
    """The rows of a ``picks`` array as tuples of indices, in row order."""
    flat = iter((picks[picks > 0] - 1).tolist())
    return [tuple(islice(flat, size)) for size in np.count_nonzero(picks, axis=1).tolist()]


def _set_runs(picks: np.ndarray) -> tuple:
    """(keys, order, starts): the sets of the rows of ``picks``, grouped.

    Row q of ``keys`` is row ``order[q]`` of ``picks`` sorted ascending with
    its zero padding last; ``order`` sorts the keys lexicographically and is
    stable, so equal sets keep their trial order, and ``starts`` are the
    first rows of the runs of equal keys.  With the padding last, that is
    the order of the sets as sorted tuples.
    """
    keys = np.sort(picks - 1, axis=1) + 1  # the padding wraps to the top and back
    order, starts = _runs(keys)
    return keys[order], order, starts


class HullCertificate:
    """A vector p with an explicit convex combination over admissible sets.

    ``terms`` lists (sorted index tuple, weight) pairs, weights summing to
    1.  The hull also holds them as arrays: row t of ``rows`` holds the
    indices of term t plus one, zero-padded (as the rows of
    ``AdmissibleSample.picks``), and ``weights[t]`` its weight.  A hull made
    from ``terms`` builds the arrays from them; one made by
    :func:`admissible_hull_vector` builds ``terms`` from the arrays when
    first read, and keeps the arrangement and tolerance its sample's stream
    verified the terms on (``_verified_on``, see :func:`spanning_model`).
    """

    def __init__(self, p, terms):
        self.p, self._terms = p, terms
        self.rows = _pick_rows([h for h, _ in terms])
        self.weights = np.fromiter((q for _, q in terms), dtype=float, count=len(terms))
        self._verified_on = None  # see spanning_model

    @classmethod
    def _of_rows(cls, p, rows, weights, verified_on):
        hull = cls.__new__(cls)
        hull.p, hull._terms, hull.rows, hull.weights = p, None, rows, weights
        hull._verified_on = verified_on
        return hull

    @property
    def terms(self) -> list:
        if self._terms is None:
            self._terms = list(zip(_pick_tuples(self.rows), self.weights.tolist()))
        return self._terms


def _eligible_min_sv(ambient: int, tol: Tolerance) -> float:
    """Smallest residual singular value that counts as clear of a span in R^ambient.

    A stack of orthonormal bases whose dimensions sum to at most ``ambient``
    has largest singular value at most sqrt(ambient), so the rule of
    :func:`rank` may drop a singular value up to sqrt(ambient) rank_tol.  A
    residual is clear only above that, and never below _ELIGIBLE_MIN_SV,
    which the default ``rank_tol`` leaves in force for ambient < 10^4.
    """
    return max(_ELIGIBLE_MIN_SV, float(np.sqrt(ambient)) * tol.rank_tol)


def _clear(res: np.ndarray, pad: np.ndarray, which: np.ndarray, cutoff: float) -> tuple:
    """(clear, a): True where a residual block is still clear of the span,
    and the squared norm of each block's first row.

    ``res`` is (m, kmax, l), the residuals of the spaces ``which``, with zero
    rows past each space's dimension; row ``which[t]`` of ``pad`` (n, kmax)
    is 1 on those rows, which the Gram diagonal then counts as clear.  The
    smallest Gram eigenvalue is ``a`` itself for kmax = 1 (no space has
    padding, so ``pad`` is not read), the closed form for kmax = 2 and
    batched ``eigvalsh`` above; it must exceed ``cutoff**2``.
    """
    k = res.shape[1]
    r0 = res[:, 0]
    a = np.einsum("ml,ml->m", r0, r0)  # a space's first row is never padding
    if k == 1:
        lam = a
    elif k == 2:
        r1 = res[:, 1]
        c = np.einsum("ml,ml->m", r0, r1)
        d = np.einsum("ml,ml->m", r1, r1) + pad[which, 1]
        lam = (a + d) / 2.0 - np.hypot((a - d) / 2.0, c)
    else:
        gram = res @ res.transpose(0, 2, 1)
        gram[:, range(k), range(k)] += pad[which]
        lam = np.linalg.eigvalsh(gram)[:, 0]
    return lam > cutoff**2, a


def _greedy_block(bases, dims, order, ambient, cutoff):
    """Greedy-to-maximality runs for a block of trials, one random order each.

    ``bases`` (n, kmax, l) holds the nonzero spaces of R^l (l = ``ambient``,
    the dimension the trials scan) zero-padded to kmax rows, and trial t
    scans them in the order ``order[t]``, keeping each one whose residual
    off its span is still clear of it (smallest singular value above
    ``cutoff``).  A window of the order is projected on the span in one
    stacked product, on the span's first rows up to the longest live
    trial's (the rows past a trial's own are zero).  A kept residual's first
    row is divided by the norm :func:`_clear` took, its further rows are
    orthonormalized by Gram-Schmidt applied twice; it is appended to the
    span and projected off the rest of the window, if any.  The trials of
    the block scan in step; one whose span fills R^l leaves at the end of
    the window, a live trial from the end of the block moving into its slot,
    so no span is copied whole; the rest stop when their orders run out.
    Returns the (b, n) mask of the kept positions of ``order``.
    """
    b, n = order.shape
    kmax = bases.shape[1]
    pad = (np.arange(kmax) >= dims[:, None]).astype(float)
    # rows past a trial's own stay zero; kmax spare rows take the zero
    # padding of a pick that fills R^l, and any pick that a span which lost
    # orthogonality lets through once full: the row count stops at l, and
    # such a trial's set, whose dimensions sum past l, fails in _SampleStream
    span = np.zeros((b, ambient + kmax, ambient))
    rows = np.zeros(b, dtype=np.intp)
    kept = np.zeros((b, n), dtype=bool)
    live = np.arange(b)
    slots = np.arange(kmax)
    m = b  # the live trials hold the first m slots of span, rows and live
    for start in range(0, n, _SCAN_WINDOW):
        cand = order[live[:m], start:start + _SCAN_WINDOW]
        res = np.take(bases, cand, axis=0)
        top = rows[:m].max()
        if top:  # the rows past every trial's own are zero
            flat = res.reshape(m, -1, ambient)
            flat -= (flat @ span[:m, :top].transpose(0, 2, 1)) @ span[:m, :top]
        last = cand.shape[1] - 1
        hits = np.zeros(cand.shape, dtype=bool)
        for j in range(last + 1):
            clear, a = _clear(res[:, j], pad, cand[:, j], cutoff)
            hits[:, j] = clear
            sel = clear.nonzero()[0]
            if not sel.size:
                continue
            q = res[sel, j]
            q[:, 0] /= np.sqrt(a[sel])[:, None]
            for i in range(1, kmax):
                v, prev = q[:, i], q[:, :i]
                for _ in range(2):
                    v -= np.einsum("sh,shl->sl", np.einsum("shl,sl->sh", prev, v), prev)
                norm = np.sqrt(np.einsum("sl,sl->s", v, v))[:, None]
                np.divide(v, norm, out=v, where=norm > 0.0)  # padded rows stay zero
            at = rows[sel]
            span[sel[:, None], at[:, None] + slots] = q
            rows[sel] = np.minimum(at + dims[cand[:, j][sel]], ambient)
            if j < last:
                rest = res[sel, j + 1:]
                flat = rest.reshape(sel.size, -1, ambient)
                flat -= (flat @ q.transpose(0, 2, 1)) @ q
                res[sel, j + 1:] = rest
        kept[live[:m], start:start + cand.shape[1]] = hits
        full = rows[:m] >= ambient
        if full.any():
            m -= int(np.count_nonzero(full))
            # the live trials past the new end move into the slots left below it
            holes, movers = full[:m].nonzero()[0], m + (~full[m:]).nonzero()[0]
            span[holes], rows[holes], live[holes] = span[movers], rows[movers], live[movers]
            if not m:
                break
    return kept


class _SampleStream:
    """A resumable run of the greedy sampler on one arrangement and seed.

    ``extend(total)`` scans only the trials not drawn yet, so a stream
    grown in pieces holds the sets one call for the whole count gives: the
    keys of each block of trials are the generator's next rows, drawn in
    trial order.  The trials scan the isometric images of the spaces in
    R^d, d the dimension of their sum (coordinates on the orthonormal
    ``span_rows`` of the sum), so a trial leaves as soon as its span has d
    rows; the clearance cutoff stays the one of R^l.  ``span`` is the pair
    (span_rows, images of :func:`_orthonormal_images`), never without the
    images; :func:`spanning_model` reuses both.  The picks are kept as the
    rows of ``picks`` (see :class:`AdmissibleSample`), with the distinct
    sets so far and their counts (:meth:`_merge`); each distinct set is
    re-verified once against the original arrangement, by stacked ranks,
    when it first occurs.  Every sample the stream returns carries the
    distinct sets, for :func:`admissible_hull_vector`.
    """

    def __init__(self, arr: Arrangement, seed: int, tol: Tolerance, span_rows=None):
        _check_seed(seed)
        if span_rows is None:
            span_rows = orthonormalize(arr.stacked_basis(), tol)
        dim, images = span_rows.shape[0], _orthonormal_images(arr, span_rows, tol)
        self.nonzero = np.array([i for i in sorted(images) if len(images[i])], dtype=np.intp)
        self.dims = np.array([len(images[i]) for i in self.nonzero], dtype=np.intp)
        kmax, n = int(self.dims.max(initial=0)), self.nonzero.size
        self.bases = np.zeros((n, kmax, dim))
        for p, i in enumerate(self.nonzero):
            self.bases[p, :self.dims[p]] = images[i]
        self.index_type = np.min_scalar_type(max(n - 1, 0))
        item = self.index_type.itemsize
        # per trial, live while a block is scanned: the span with its kmax
        # spare rows, a window with two product temporaries, the order, the
        # kept mask, the window's candidates, the trial's slot and row count;
        # the keys and their argsort (16 n) live only before the scan.  The
        # stream's bases and their images take their share of _BLOCK_BYTES.
        scan = (8 * ((dim + kmax) + 3 * _SCAN_WINDOW * kmax) * dim
                + (item + 1) * n + _SCAN_WINDOW * item + 16)
        free = _BLOCK_BYTES - 2 * self.bases.nbytes
        self.block = int(np.clip(free // max(scan, 16 * n, 1), 1, _TRIAL_BLOCK))
        self.cutoff = _eligible_min_sv(arr.ambient, tol)
        # each pick adds at least the smallest dimension to a span of at most dim rows
        self.width = min(n, dim // int(self.dims.min())) if n else 1
        self.tags = (self.nonzero + 1).astype(np.min_scalar_type(arr.n))
        self.arr, self.dim, self.span = arr, dim, (span_rows, images)
        self.all_dims = np.array(arr.dims(), dtype=np.intp)
        self.seed, self.tol = seed, tol
        self.gen = np.random.default_rng(seed)
        self.picks = np.zeros((0, self.width), dtype=self.tags.dtype)
        self.counts = np.zeros(arr.n, dtype=np.intp)
        # the distinct sets so far, as the keys of _set_runs in ascending
        # order, and how many trials drew each
        self.distinct = self.picks
        self.occurrences = np.zeros(0, dtype=np.intp)

    def extend(self, total: int) -> AdmissibleSample:
        """Draw trials up to ``total`` in all and return the sample so far."""
        if total < 1:
            raise PreconditionError("trials must be >= 1")
        first = drawn = len(self.picks)
        blocks = [self.picks]
        while drawn < total:
            blocks.append(self._scan(min(self.block, total - drawn)))
            drawn += len(blocks[-1])
        self.picks = np.concatenate(blocks)
        if drawn > first:
            self._merge(first)
            self.counts += np.bincount(self.picks[first:].ravel(), minlength=self.arr.n + 1)[1:]
        sample = AdmissibleSample(picks=self.picks, p_hat=self.counts / drawn,
                                  trials=drawn, seed=self.seed)
        sample._runs = self.distinct, self.occurrences
        sample._verified_on = self.arr, self.tol
        return sample

    def _scan(self, size: int) -> np.ndarray:
        """The ``picks`` rows of the next ``size`` trials, scanned as one block."""
        # the keys are freed once their order exists
        order = (self.gen.random((size, self.nonzero.size))
                 .argsort(axis=1).astype(self.index_type))
        kept = _greedy_block(self.bases, self.dims, order, self.dim, self.cutoff)
        sizes = kept.sum(axis=1)
        over = np.flatnonzero(sizes > self.width)
        if over.size:  # more spaces than fit in R^d, kept past a full span
            bad = tuple(self.nonzero[order[over[0]][kept[over[0]]]].tolist())
            raise SgcertError(f"sampled set {bad} failed the admissibility equation")
        return _padded(self.tags[order[kept]], sizes, self.width, self.tags.dtype)

    def _merge(self, first: int) -> None:
        """Add the sets of trials ``first`` on to the distinct sets, checking
        ``dim(sum) = sum(dim)`` on the unseen ones.

        Only the new trials are sorted (:func:`_set_runs`); their distinct
        sets are then sorted together with the known ones, which come first
        among equals, so a set is unseen when its run starts with a new one.
        The nonempty unseen sets are ranked in the order of their first
        occurrences.
        """
        keys, order, starts = _set_runs(self.picks[first:])
        known = len(self.distinct)
        both = np.concatenate([self.distinct, keys[starts]])
        merged, runs = _runs(both)
        heads = merged[runs]
        counts = np.concatenate([self.occurrences, np.diff(starts, append=len(keys))])
        self.distinct = both[heads]
        self.occurrences = np.add.reduceat(counts[merged], runs)
        fresh = heads[heads >= known] - known
        fresh = fresh[keys[starts[fresh], 0] > 0]
        occurs = order[starts[fresh]]  # the first trial of each, counted from first
        by_trial = np.argsort(occurs)
        fresh, occurs = fresh[by_trial], occurs[by_trial]
        sizes = np.count_nonzero(keys[starts[fresh]], axis=1)
        for size in np.flatnonzero(np.bincount(sizes)):
            which = sizes == size
            chosen = keys[starts[fresh[which]], :size] - 1
            short = np.flatnonzero(_stacked_set_ranks(self.arr, chosen, self.tol)
                                   != self.all_dims[chosen].sum(axis=1))
            if short.size:
                (bad,) = _pick_tuples(self.picks[first + occurs[which][short[:1]]])
                raise SgcertError(f"sampled set {bad} failed the admissibility equation")


def sample_admissible(arr: Arrangement, trials: int, seed: int = 0,
                      tol: Tolerance = DEFAULT_TOL) -> AdmissibleSample:
    """Run the greedy admissible-set sampler ``trials`` times.

    Each run starts empty and repeatedly picks, uniformly at random, a
    space meeting the current span only at the origin, until no eligible
    space remains.  As eligibility is lost for good once the span grows,
    that is a scan of a uniformly random order of the nonzero spaces that
    keeps each one still clear of the span; zero-dimensional spaces are
    never picked.  All orders come from one generator seeded by ``seed``,
    one row of keys per trial, argsorted, and drawn in trial order; blocks
    of trials sized by _BLOCK_BYTES (at most _TRIAL_BLOCK) are scanned
    together.  So the sets depend only on the seed, and the first ``a``
    trials of any count are the sets ``a`` trials give.  A residual is
    clear when its smallest singular value exceeds
    :func:`_eligible_min_sv`, so a pick keeps every row of its space under
    the rank rule of ``tol``.  The trials scan the isometric images of the
    spaces in R^d, d the dimension of their sum, and leave once their span
    has d rows, with the cutoff of R^l.  Every distinct emitted set is verified
    once against the exact admissibility equation dim(sum) = sum(dim) of
    the spaces given, by stacked ranks per dimension signature.  This is
    one extension of a fresh :class:`_SampleStream`; the seed must be >= 0.
    """
    return _SampleStream(arr, seed, tol).extend(trials)


def admissible_hull_vector(sample: AdmissibleSample) -> HullCertificate:
    """Empirical frequencies as an explicit convex combination of indicators.

    The returned p is computed as sum_H q_H 1_H over the distinct sampled
    sets with q_H = (occurrences / trials), so hull membership holds by
    construction.  The distinct sets and their counts are the ones the
    sample's stream verified (``sample._runs``), or, for a sample made by
    hand, are read off the sorted rows of ``sample.picks``.  The terms come
    as sorted tuples in ascending order, held as arrays (see
    :class:`HullCertificate`), and each p_i adds its terms' weights in that
    order.
    """
    if sample.trials < 1:
        raise PreconditionError("sample has no trials")
    if sample._runs is None:
        keys, _, starts = _set_runs(sample.picks)
        distinct, counts = keys[starts], np.diff(starts, append=len(keys))
    else:
        distinct, counts = sample._runs
    weights = counts / sample.trials
    p = np.bincount(distinct[distinct > 0] - 1,
                    weights=np.repeat(weights, np.count_nonzero(distinct, axis=1)),
                    minlength=len(sample.p_hat))
    return HullCertificate._of_rows(p, distinct, weights, sample._verified_on)


# ---------------------------------------------------------------------------
# the scaling state


@dataclass
class ScalingState:
    """Everything derived from (t, R_1..R_n) for fixed bases and weights."""

    bases: list          # orthonormal row bases, one per space
    p: np.ndarray        # weight per space
    offsets: list        # flat start index per space
    gamma: np.ndarray    # gamma_(i,j) = p_i
    t: np.ndarray
    R: list              # orthogonal k_i x k_i factors
    groups: list         # (indices, stacked bases, x row slots), see _space_stacks
    x_rows: np.ndarray = field(default=None)  # row s = x_(i,j)
    X: np.ndarray = field(default=None)
    M: np.ndarray = field(default=None)
    f: float = 0.0
    grad: np.ndarray = field(default=None)
    cond: float = 1.0

    @property
    def m(self) -> int:
        return self.t.size

    def slots(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.bases[i].shape[0])


def _refresh(state: ScalingState, tol: Tolerance) -> ScalingState:
    """Recompute x rows, X, M = X^{-1/2}, f and the gradient from (t, R).

    The x rows R_i^T B_i come from one stacked product per space dimension
    (``state.groups``).

    Only a non-positive eigenvalue of X is rejected; extreme (but still
    positive) conditioning is tolerated: trajectories drifting toward the admissible-hull
    boundary make X nearly singular, and the optimizer needs to see that
    as a measured condition number, not an exception.
    """
    x_rows = np.empty((state.m, state.bases[0].shape[1]))
    for idx, stack, slots in state.groups:
        rot = np.stack([state.R[i] for i in idx]).transpose(0, 2, 1)
        x_rows[slots] = (rot @ stack).reshape(len(slots), -1)
    e_t = np.exp(state.t)
    x_mat = x_rows.T * e_t
    x = x_mat @ x_rows
    x = (x + x.T) / 2.0
    w, v = np.linalg.eigh(x)
    if w[0] <= 0.0:
        raise DegenerateStateError("scaling matrix X is not positive definite")
    m_factor = (v * (1.0 / np.sqrt(w))) @ v.T
    mx = x_rows @ m_factor
    state.x_rows = x_rows
    state.X = x
    state.M = m_factor
    state.cond = float(w[-1] / w[0])
    state.f = float(state.gamma @ state.t - np.log(w).sum())
    state.grad = state.gamma - e_t * np.einsum("ij,ij->i", mx, mx)
    return state


def make_state(arr: Arrangement, p, t=None, rotations=None,
               tol: Tolerance = DEFAULT_TOL) -> ScalingState:
    """Initial scaling state (t = 0 and identity rotations unless given)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (arr.n,):
        raise PreconditionError(f"p must have length {arr.n}")
    if not arr.n:
        raise PreconditionError("scaling requires at least one space")
    bases = [v.basis for v in arr.spaces]
    dims = [b.shape[0] for b in bases]
    if any(d == 0 for d in dims):
        raise PreconditionError("scaling requires every space to be nonzero")
    offsets = list(np.cumsum([0] + dims[:-1]))
    m = sum(dims)
    gamma = np.concatenate([np.full(d, p[i]) for i, d in enumerate(dims)])
    t = np.zeros(m) if t is None else np.asarray(t, dtype=float).copy()
    rotations = ([np.eye(d) for d in dims] if rotations is None
                 else [np.asarray(r, dtype=float).copy() for r in rotations])
    groups = [(idx, stack, (np.asarray(offsets)[idx, None] + np.arange(stack.shape[1])).ravel())
              for idx, stack in _space_stacks(arr)]
    state = ScalingState(bases=bases, p=p, offsets=offsets, gamma=gamma,
                         t=t, R=rotations, groups=groups)
    return _refresh(state, tol)


def _tie_classes(values: np.ndarray, tie_tol: float) -> list:
    """Partition indices into classes of (chained) nearly equal values."""
    order = np.argsort(values)
    classes = []
    current = [int(order[0])]
    for a, b in zip(order[:-1], order[1:]):
        if values[b] - values[a] <= tie_tol:
            current.append(int(b))
        else:
            classes.append(current)
            current = [int(b)]
    classes.append(current)
    return classes


def r_step(state: ScalingState, tie_tol: float = 1e-9,
           tol: Tolerance = DEFAULT_TOL) -> ScalingState:
    """Orthogonalize M x_(i,j) within every tied-t class of every space.

    Replaces R_i by R_i diag(Q_1..Q_b) where Q_r comes from the singular
    value decomposition of M L_(J_r); X, M and f are unchanged (exactly so
    for exact ties).
    """
    changed = False
    for i, basis in enumerate(state.bases):
        k = basis.shape[0]
        if k < 2:
            continue
        sl = state.slots(i)
        t_i = state.t[sl]
        for cls in _tie_classes(t_i, tie_tol):
            if len(cls) < 2:
                continue
            cols = state.M @ state.x_rows[sl][cls].T
            _, _, wt = np.linalg.svd(cols, full_matrices=False)
            q_full = np.eye(k)
            q_full[np.ix_(cls, cls)] = wt.T
            state.R[i] = state.R[i] @ q_full
            changed = True
    if changed:
        _refresh(state, tol)
    return state


def t_gradient(state: ScalingState) -> np.ndarray:
    """Closed-form partials: eps_(i,j) = p_i - e^{t_(i,j)} ||M x_(i,j)||^2."""
    if state.grad is None:
        raise DegenerateStateError("state has not been refreshed")
    return state.grad.copy()


def _orthonormal_images(arr: Arrangement, x, tol: Tolerance, keep=None) -> dict:
    """``{i: orthonormalize(arr.spaces[i].basis @ x.T, tol)}`` over the kept
    nonzero spaces, keyed by space index.

    One stacked SVD per group of :func:`_space_stacks` instead of one per
    space; each image equals the one :func:`orthonormalize` gives bit for
    bit.
    """
    images = {}
    for idx, stack in _space_stacks(arr, keep):
        _, s, vt = np.linalg.svd(as_matrix(stack @ x.T), full_matrices=False)
        for i, r, v in zip(idx.tolist(), stacked_ranks(s, tol), vt):
            images[i] = v[:r].copy()
    return images


def projector_gap(arr: Arrangement, p, m_factor, tol: Tolerance = DEFAULT_TOL) -> float:
    """Spectral norm of sum_i p_i Proj_{M(V_i)} - I, measured directly.

    The images M(V_i) of the weighted spaces are orthonormalized with one
    stacked SVD per dimension (see :func:`_orthonormal_images`), and the
    projectors are added in index order, so the gap is bit for bit the one
    a per-space loop over :func:`orthonormalize` gives.
    """
    p = np.asarray(p, dtype=float)
    images = _orthonormal_images(arr, m_factor, tol, p != 0.0)
    total = -np.eye(arr.ambient)
    for i in sorted(images):
        total += p[i] * (images[i].T @ images[i])
    return spectral_norm(total)


@dataclass
class ScalingObstruction:
    """Diagnostic for a diverging trajectory: slots at the t cap."""

    slots: list          # (space index, j, direction +1/-1)
    t_inf_norm: float

    def __str__(self):
        kinds = ", ".join(f"t[{i},{j}] -> {'+' if d > 0 else '-'}inf"
                          for i, j, d in self.slots[:6])
        return f"divergence at |t| = {self.t_inf_norm:.2f}: {kinds}"


@dataclass
class ScalingMap:
    """Result of optimize: the map, the measured gap, and diagnostics."""

    M: np.ndarray
    achieved_eps: float
    obstruction: ScalingObstruction = None
    iterations: int = 0
    f_history: list = field(default_factory=list)
    state: ScalingState = None


def _block_layout(state: ScalingState) -> tuple:
    """(blocks, order, a, b, h, same): the step entries of :func:`_newton_step`.

    ``blocks`` holds, per group of ``state.groups`` (n spaces of dimension
    k), the space indices, the slots as an (n, k) array, the positions of
    the group's entries as an (n, entries) array, and the upper triangle
    (a, b) of a k x k block.  The entries run group by group, then over the
    upper triangle, then space by space, so on lines entry s is slot s.
    ``order`` lists the slots group by group, the rows of W in
    :func:`_block_model`; entry e reads W at rows a[e] and b[e], weighted
    h[e] (1/2 on a diagonal, 1 off it), and ``same`` holds the index pairs
    (p, q) of the entries of one space."""
    blocks, entries, start, row = [], [], 0, 0
    for idx, stack, slots in state.groups:
        n, k = len(idx), stack.shape[1]
        a, b = np.triu_indices(k)
        pos = start + n * np.arange(a.size) + np.arange(n)[:, None]
        blocks.append((idx, slots.reshape(n, k), pos, a, b))
        first = row + k * np.arange(n)  # the row of W of each space's first slot
        entries.append((first + a[:, None], first + b[:, None],
                        *np.broadcast_arrays(pos[:, :, None], pos[:, None, :])))
        start, row = start + pos.size, row + n * k
    order = np.concatenate([slots for _, _, slots in state.groups])
    a, b, p, q = (np.concatenate([x.ravel() for x in column]) for column in zip(*entries))
    return blocks, order, a, b, np.where(a == b, 0.5, 1.0), (p, q)


def _move_blocks(state: ScalingState, t0, r0, layout: tuple, step) -> None:
    """Set A_i = C_i exp(E_i) C_i^T, C_i = R_i diag(e^{t0_i/2}), with E_i the
    symmetric matrix of ``step``'s entries for space i (see
    :func:`_block_layout`), and split it back into (t_i, R_i) by one stacked
    ``eigh`` per group.  A line adds its entry to t and keeps its R."""
    state.t = t0.copy()
    state.R = list(r0)
    for idx, slots, pos, a, b in layout[0]:
        if slots.shape[1] == 1:
            state.t[slots[:, 0]] = t0[slots[:, 0]] + step[pos[:, 0]]
            continue
        e = np.zeros((len(idx),) + (slots.shape[1],) * 2)
        e[:, a, b] = e[:, b, a] = step[pos]
        ev, u = np.linalg.eigh(e)
        # root root^T = C_i exp(E_i) C_i^T in the frame of R_i
        root = np.exp(t0[slots] / 2.0)[:, :, None] * u * np.exp(ev / 2.0)[:, None, :]
        lam, v = np.linalg.eigh(root @ root.transpose(0, 2, 1))
        if (lam[:, 0] <= 0.0).any():
            raise DegenerateStateError("weight block is not positive definite")
        state.t[slots] = np.log(lam)
        for i, r in zip(idx.tolist(), np.stack([r0[i] for i in idx]) @ v):
            state.R[i] = r


def _block_model(state: ScalingState, layout: tuple) -> tuple:
    """The gradient g and the Hessian H of f in the step entries of
    ``layout`` (formulas at :func:`_newton_step`), and which entries lie on
    a diagonal.

    Every term is gathered from W at the rows a and b of the entries
    (:func:`_block_layout`): rows first, then columns, the columns as rows
    of the transposed row gathers, so H is built transposed.  The weights
    2 h_p h_q are powers of two, applied as 2 h_p and h_q.  S is taken off
    the pairs of entries of one space only, summed as ((T1 + T2) + (T3 +
    T4)): it has at most two distinct nonzero terms, and four equal ones
    where all four indicators hold, which this sum adds exactly (a sum from
    the left would round 3 W_aa), so S_pq is rounded once at most.  On
    lines g is the t gradient and H = W o W - diag(diag W), bit for bit.
    """
    _, order, a, b, h, (p, q) = layout
    mx = state.x_rows[order] @ state.M
    half = np.sqrt(np.exp(state.t[order]))
    w = half[:, None] * (mx @ mx.T) * half[None, :]
    # column p of cols_a is row a[p] of W, so cols_a.take(a, 0) is W_ac transposed
    cols_a, cols_b = (np.ascontiguousarray(w.take(x, 0).T) for x in (a, b))
    h_t = cols_a.take(a, 0) * cols_b.take(b, 0)  # H transposed: row q, column p
    h_t += cols_a.take(b, 0) * cols_b.take(a, 0)
    h_t *= h[:, None]
    h_t *= 2.0 * h
    ap, bp, aq, bq = a[p], b[p], a[q], b[q]
    h_t[q, p] -= h[p] * h[q] * (((bp == aq) * w[ap, bq] + (ap == bq) * w[bp, aq])
                                + ((bp == bq) * w[ap, aq] + (ap == aq) * w[bp, bq]))
    return np.where(a == b, state.grad[order[a]], -2.0 * w[a, b]), h_t.T, a == b


def _newton_step(state: ScalingState, layout: tuple, tol: Tolerance) -> bool:
    """One ascent step on every space's whole weight block: Levenberg-damped
    Newton with line search.

    With C_i = R_i diag(e^{t_i/2}), the step moves A_i = C_i C_i^T to
    C_i exp(E_i) C_i^T for one symmetric k_i x k_i matrix E_i per space, so
    t and the rotation R_i move together.  E_i is parameterised by its
    upper-triangular entries (:func:`_block_layout`).  Let Z have the rows
    z_s = e^{t_s/2} M x_s, W = Z Z^T, and W_ij its block of spaces i and j.
    To second order f changes by

        sum_i tr(G_i E_i)
          + 1/2 [sum_ij tr(E_i W_ij E_j W_ji) - sum_i tr(E_i^2 W_ii)],

    with G_i = p_i I - W_ii, whose diagonal is the t gradient.  For the
    entries p = (a, b) and q = (c, d), weighted h = 1/2 on a diagonal and 1
    off it, the gradient is 2 h_p G_ab and the Hessian

        H_pq = h_p h_q [2 (W_ac W_bd + W_ad W_bc) - S_pq],
        S_pq = [b=c] W_ad + [a=d] W_bc + [b=d] W_ac + [a=c] W_bd,

    where S is nonzero only inside a space's block (:func:`_block_model`).
    On diagonal E_i this is the Newton step on t, with
    H = W o W - diag(diag W); on lines it is that step.  The new A_i are
    split back into (t_i, R_i) by :func:`_move_blocks`.

    H is negative semidefinite (and singular along the all-ones direction
    when the weights are balanced), so the step solves (lambda I - H) d = g
    with lambda escalated until the step passes an Armijo test.  One factor
    caps the diagonal entries at _STEP_CAP and the off-diagonal (rotation)
    entries at _ROT_CAP.  Near the optimum the predicted increase sinks below
    the evaluation noise of the log-determinant; tiny steps that do not
    measurably decrease f are then accepted so Newton contraction can
    finish the job.
    """
    g, hess, diag = _block_model(state, layout)
    scale = max(float(np.abs(np.diag(hess)).max()), 1e-12)
    eye = np.eye(g.size)
    t0, r0, f0 = state.t.copy(), list(state.R), state.f
    noise = 1e-11 * max(1.0, abs(f0))
    lam = 1e-8 * scale
    for _ in range(12):
        try:
            direction = np.linalg.solve(lam * eye - hess, g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        if not np.isfinite(direction).all():
            lam *= 10.0
            continue
        size = np.abs(direction)
        over = max(size[diag].max() / _STEP_CAP, size[~diag].max(initial=0.0) / _ROT_CAP)
        if over > 1.0:
            direction *= 1.0 / over
        sup = float(np.abs(direction).max())
        slope = float(g @ direction)
        if slope <= 0:
            lam *= 10.0
            continue
        eta = 1.0
        for _ in range(30):
            try:
                _move_blocks(state, t0, r0, layout, eta * direction)
                _refresh(state, tol)
                if state.f >= f0 + 1e-4 * eta * slope:
                    return True
                if eta * sup <= 1e-3 and state.f >= f0 - noise:
                    return True
            except DegenerateStateError:
                pass
            eta /= 2.0
        lam *= 10.0
    state.t, state.R = t0, r0
    _refresh(state, tol)
    return False


def _normalize(state: ScalingState, tol: Tolerance) -> None:
    """Closed-form minorize-maximize step on every space of positive weight.

    With A_i = R_i diag(e^{t_i}) R_i^T, f = sum_i p_i ln det A_i - ln det X
    and X = sum_i B_i^T A_i B_i.  As -ln det is convex, its tangent at the
    current X bounds f from below; that bound is maximized space by space
    by A_i = p_i (B_i X^{-1} B_i^T)^{-1}, so f never decreases.  With
    g, V the eigendecomposition of the Gram matrix of B_i M this reads
    R_i = V, t_i = ln p_i - ln g.  Zero-weight spaces are left to the
    Newton step.  A numerically singular update is undone.  The Gram matrices
    are decomposed with one stacked ``eigh`` per group of ``state.groups``.
    """
    t0, r0 = state.t.copy(), list(state.R)
    try:
        for idx, stack, _ in state.groups:
            weighted = state.p[idx] > 0.0
            bm = stack[weighted] @ state.M
            g, v = np.linalg.eigh(bm @ bm.transpose(0, 2, 1))
            if (g[:, 0] <= 0.0).any():
                raise DegenerateStateError("space collapsed under the scaling map")
            for i, gi, vi in zip(idx[weighted].tolist(), g, v):
                state.R[i] = vi
                state.t[state.slots(i)] = np.log(state.p[i]) - np.log(gi)
        _refresh(state, tol)
    except DegenerateStateError:
        state.t, state.R = t0, r0
        _refresh(state, tol)


def _check_seed(seed: int) -> None:
    """Raise PreconditionError unless the sampler seed is >= 0."""
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")


def _check_targets(eps_target: float, max_iter: int, t_cap: float) -> None:
    """Raise PreconditionError unless max_iter >= 0 and eps_target and t_cap
    are finite and positive (the budget checks of :func:`optimize`)."""
    if max_iter < 0:
        raise PreconditionError(f"max_iter must be >= 0, got {max_iter}")
    for name, value in (("eps_target", eps_target), ("t_cap", t_cap)):
        if not (0 < value < np.inf):
            raise PreconditionError(f"{name} must be finite and positive, got {value}")


def optimize(arr: Arrangement, p, eps_target: float = 1e-6,
             max_iter: int = 10000, t_cap: float = 60.0,
             tol: Tolerance = DEFAULT_TOL) -> ScalingMap:
    """Drive f to a near-stationary point and assemble M = X^{-1/2}.

    Each iteration takes the closed-form normalisation step (new t and R
    for every weighted space), then one damped Newton step on every
    space's whole weight block (:func:`_newton_step`), which moves t and
    the rotations together.  The Newton step is what converges when p
    lies on a proper face of the basis hull, what drives the t of
    zero-weight spaces down, and what removes the linear tail the
    normalisation step alone leaves in the rotations.

    Succeeds when the measured projector gap is at most eps_target, and
    either every partial |eps_(i,j)| is at most eps_target / m or the
    trajectory diverges (below); then M is returned with the measured gap
    as ``achieved_eps``.  A trajectory diverges when some t coordinate
    leaves [-t_cap, t_cap] or X becomes numerically singular, as it does
    on the way to a face of the basis hull.  A diverging trajectory whose
    measured gap is above eps_target returns an obstruction diagnostic
    instead of a guarantee (p sits on or outside the admissible hull
    boundary).  Exhausting max_iter raises OptimizeTimeoutError.
    eps_target and t_cap must be finite and positive, max_iter >= 0, the
    weights in [0, 1], and the arrangement must have a space.
    """
    _check_targets(eps_target, max_iter, t_cap)
    p = np.asarray(p, dtype=float)
    # written so that NaN fails it
    if not np.all((p >= -1e-12) & (p <= 1.0 + 1e-9)):
        raise PreconditionError("weights must lie in [0, 1]")
    if arr.dimension(tol) != arr.ambient:
        raise PreconditionError(
            "arrangement does not span its ambient space; apply spanning_model first"
        )
    state = make_state(arr, p, tol=tol)
    layout = _block_layout(state)
    target = eps_target / state.m
    history = [state.f]
    for it in range(max_iter):
        # divergence: |t| beyond the cap, or X numerically singular, both
        # witness p at (or outside) the admissible hull boundary
        diverged = np.abs(state.t).max() > t_cap or state.cond > 1e13
        if diverged or np.abs(state.grad).max() <= target:
            gap = projector_gap(arr, p, state.M, tol)
            if gap <= eps_target:
                history.append(state.f)
                return ScalingMap(M=state.M.copy(), achieved_eps=float(gap),
                                  obstruction=None, iterations=it,
                                  f_history=history, state=state)
        if diverged:
            owner = np.repeat(np.arange(len(state.bases)), np.diff(state.offsets, append=state.m))
            s = np.flatnonzero(np.abs(state.t) > max(0.8 * np.abs(state.t).max(), 1.0))
            slots = list(zip(owner[s].tolist(), (s - np.asarray(state.offsets)[owner[s]]).tolist(),
                             np.where(state.t[s] > 0, 1, -1).tolist()))
            obstruction = ScalingObstruction(slots, float(np.abs(state.t).max()))
            return ScalingMap(M=state.M.copy(), achieved_eps=float(gap), obstruction=obstruction,
                              iterations=it, f_history=history, state=state)
        _normalize(state, tol)
        moved = _newton_step(state, layout, tol)
        history.append(state.f)
        if not moved and np.abs(state.grad).max() > target:
            # no Newton step found but not converged: normalisation alone
            # must make progress; if f stalls completely we are numerically stuck
            if len(history) > 3 and abs(history[-1] - history[-3]) < 1e-15 * max(1.0, abs(history[-1])):
                break
    raise OptimizeTimeoutError(
        f"no convergence or divergence within {max_iter} iterations "
        f"(max |eps| = {np.abs(state.grad).max():.3e})",
        state=state,
    )


# ---------------------------------------------------------------------------
# the convenient form: augment, extend p, restrict to the span


@dataclass
class SpanningModel:
    """Restriction of an arrangement to its span plus auxiliary lines.

    ``arrangement`` lives in R^d (d = dim of the original sum); the first
    n_original spaces are the isometric images of the input spaces, then
    one coordinate line per span direction.  ``p`` extends the certified
    hull vector with the auxiliary weights.  ``restriction`` is the d x l
    matrix of orthonormal span rows: model coordinates = restriction @ v.
    """

    arrangement: Arrangement
    p: np.ndarray
    restriction: np.ndarray
    n_original: int

    @property
    def d(self) -> int:
        return self.arrangement.ambient


def spanning_model(arr: Arrangement, hull: HullCertificate,
                 tol: Tolerance = DEFAULT_TOL, span=None) -> SpanningModel:
    """Build the spanning model whose optimum yields the sum-of-squares <= 2 bound.

    Appends one 1-dimensional space per direction of the span, extends
    every hull term H to an admissible basis set H' = H + G by greedily
    adding auxiliary lines, and restricts everything to R^d through the
    isometry sending the span basis to coordinates.  The input p is a
    prefix of the returned p.

    The images of the input spaces are the ones the sampler scans (see
    ``span`` below).  The terms of a hull made from a sampler stream's
    sample on this very ``arr`` and an equal ``tol`` were verified by the
    stream, dim(sum) = sum(dim), on the input spaces, whose model images are
    isometric to them: such a term spans R^d exactly when its dimensions
    sum to d.  The terms of any other hull are
    ranked at once on the model arrangement by :func:`_stacked_set_ranks`,
    one group per term length: its Cholesky screen certifies a term of d
    rows that spans R^d without an SVD.  Only the terms that do not span are
    orthonormalized and extended, coordinate line by coordinate line.  The
    terms are read off the hull's ``rows`` and ``weights``, and p adds the
    weights of their members and of their extensions in one count.

    ``span`` is the ``span`` of a :class:`_SampleStream` on ``arr`` and
    ``tol``, whose span rows and images are reused; without it, both are
    computed here as the stream computes them.
    """
    if hull is None or not isinstance(hull, HullCertificate):
        raise PreconditionError("a hull certificate from admissible_hull_vector is required")
    if span is None:
        span_rows = orthonormalize(arr.stacked_basis(), tol)
        span = span_rows, _orthonormal_images(arr, span_rows, tol)
    span_rows, images = span
    d = span_rows.shape[0]
    if d == 0:
        raise PreconditionError("arrangement sum is the zero space")
    # isometric on the span
    model_spaces = [Subspace(d, images.get(i, np.zeros((0, d)))) for i in range(arr.n)]
    eye = np.eye(d)
    aux = [Subspace(d, eye[[s]]) for s in range(d)]
    model_arr = Arrangement(d, model_spaces + aux, field_tag=arr.field_tag)

    # row t of rows holds the members of term t plus one, zero-padded
    rows, weights = hull.rows, hull.weights
    lengths = np.count_nonzero(rows, axis=1)
    members = (rows[rows > 0] - 1).astype(np.intp)
    # the padding 0 reads dimension 0
    term_dims = np.concatenate([[0], model_arr.dims()])[rows].sum(axis=1)
    verified_on = hull._verified_on
    if verified_on is not None and verified_on[0] is arr and verified_on[1] == tol:
        spans = term_dims == d
    else:
        spans = np.zeros(len(rows), dtype=bool)
        for size in sorted(set(lengths.tolist()) - {0}):
            which = np.flatnonzero(lengths == size)
            sets = rows[which, :size].astype(np.intp) - 1
            spans[which] = _stacked_set_ranks(model_arr, sets, tol) == d

    def term(t):
        return (rows[t][rows[t] > 0] - 1).tolist()

    extensions = {t: _extend_to_basis(model_spaces, term(t), d, tol)
                  for t in np.flatnonzero(~spans).tolist()}
    added = np.zeros(len(rows), dtype=np.intp)
    added[list(extensions)] = [len(e) for e in extensions.values()]
    bad = np.flatnonzero(term_dims + added != d)  # each auxiliary line adds one dimension
    if bad.size:
        t = int(bad[0])
        full = term(t) + [arr.n + s for s in extensions.get(t, [])]
        raise SgcertError(f"extended set {full} is not a basis set")
    # each p_model[i] adds its terms' weights in term order: an input space
    # only from the terms' members, an auxiliary line only from the extensions
    lines = np.fromiter(chain.from_iterable(extensions.values()), dtype=np.intp,
                        count=int(added.sum())) + arr.n
    p_model = np.bincount(np.concatenate([members, lines]),
                          weights=np.concatenate([np.repeat(weights, lengths),
                                                  np.repeat(weights, added)]),
                          minlength=arr.n + d)
    if not np.allclose(p_model[: arr.n], hull.p, atol=1e-12):
        raise SgcertError("hull prefix mismatch while extending to basis sets")
    return SpanningModel(arrangement=model_arr, p=p_model,
                       restriction=span_rows, n_original=arr.n)


def _extend_to_basis(model_spaces, h, d: int, tol: Tolerance) -> list:
    """Coordinate lines s, ascending, that extend the span of set ``h`` to R^d.

    Each line is kept when its residual off the span so far exceeds
    :func:`_eligible_min_sv` of R^d.
    """
    cutoff = _eligible_min_sv(d, tol)
    span = orthonormalize(np.vstack([np.zeros((0, d))]
                                    + [model_spaces[i].basis for i in h]), tol)
    eye = np.eye(d)
    extension = []
    for s in range(d):
        if span.shape[0] == d:
            break
        resid = eye[s] - (eye[s] @ span.T) @ span
        if np.linalg.norm(resid) > cutoff:
            extension.append(s)
            span = np.vstack([span, resid / np.linalg.norm(resid)])
    if span.shape[0] != d:
        raise SgcertError(f"failed to extend admissible set {h} to a basis set")
    return extension
