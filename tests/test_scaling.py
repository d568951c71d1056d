import copy
import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from instances import far_clusters_instance, plane_and_lines

from sgcert.arrangement import Arrangement, Subspace, _stacked_set_ranks, generate_grouped
import sgcert.scaling
from sgcert.errors import PreconditionError, SgcertError
from sgcert.linalg import DEFAULT_TOL, Tolerance, orthonormalize, rank, spectral_norm
from sgcert.scaling import (
    _ELIGIBLE_MIN_SV,
    AdmissibleSample,
    _eligible_min_sv,
    _SampleStream,
    HullCertificate,
    _block_layout,
    _block_model,
    _move_blocks,
    _normalize,
    _refresh,
    admissible_hull_vector,
    spanning_model,
    make_state,
    optimize,
    projector_gap,
    r_step,
    sample_admissible,
    t_gradient,
)


def lines(ambient, directions):
    return Arrangement(ambient, [
        Subspace.from_spanning(np.asarray(d, dtype=float), ambient)
        for d in directions
    ])


def axes(ambient):
    return Arrangement(ambient, [Subspace(ambient, np.eye(ambient)[[i]])
                                 for i in range(ambient)])


def random_spanning(n, k, ambient, seed):
    """Generic k-dim spaces whose sum fills the ambient space."""
    assert n * k >= ambient
    rng = np.random.default_rng(seed)
    while True:
        arr = Arrangement(ambient, [
            Subspace(ambient, orthonormalize(rng.standard_normal((k, ambient))))
            for _ in range(n)
        ])
        if arr.dimension() == ambient:
            return arr


def frame_identity_residual(state):
    e_t = np.exp(state.t)
    mx = state.x_rows @ state.M
    total = (mx.T * e_t) @ mx - np.eye(state.M.shape[0])
    return np.abs(total).max()


# ---------------------------------------------------------------------------
# sampling


def test_sampler_independent_spaces():
    sample = sample_admissible(axes(4), trials=50, seed=0)
    assert all(sorted(h) == [0, 1, 2, 3] for h in sample.sets)
    assert np.allclose(sample.p_hat, 1.0)


def test_sampler_three_lines_in_plane():
    arr = lines(2, [[1.0, 0.1], [0.2, 1.0], [1.0, -0.9]])
    sample = sample_admissible(arr, trials=10000, seed=1)
    assert all(len(h) == 2 for h in sample.sets)
    sigma = np.sqrt((2 / 3) * (1 / 3) / 10000)
    assert np.abs(sample.p_hat - 2 / 3).max() <= 3 * sigma


def test_sampler_grouped_block():
    arr = generate_grouped(k=1, delta=1.0, n=4, seed=2)
    sample = sample_admissible(arr, trials=200, seed=3)
    assert all(len(h) == 2 for h in sample.sets)


def test_sampler_same_seed_deterministic():
    arr = random_spanning(5, 2, 6, seed=4)
    a = sample_admissible(arr, trials=64, seed=9)
    b = sample_admissible(arr, trials=64, seed=9)
    assert a.sets == b.sets
    assert np.array_equal(a.p_hat, b.p_hat)


def _greedy_run(dim_groups, rng, ambient):
    """Reference: one greedy-to-maximality run on its own, picks in order."""
    residuals = {k: mats.copy() for k, (idx, mats) in dim_groups.items()}
    alive = {k: np.ones(len(idx), dtype=bool) for k, (idx, mats) in dim_groups.items()}
    picks = []
    span_rows = 0
    while True:
        eligible = []
        for k, (idx, _) in dim_groups.items():
            r3 = residuals[k]
            if k == 1:
                minsv2 = np.einsum("ijl,ijl->i", r3, r3)
            else:
                gram = r3 @ r3.transpose(0, 2, 1)
                minsv2 = np.linalg.eigvalsh(gram)[:, 0]
            ok = alive[k] & (minsv2 > _ELIGIBLE_MIN_SV**2)
            alive[k] = ok
            eligible.extend((k, pos) for pos in np.flatnonzero(ok))
        if not eligible or span_rows >= ambient:
            break
        k, pos = eligible[rng.integers(len(eligible))]
        picks.append(dim_groups[k][0][pos])
        q = orthonormalize(residuals[k][pos])
        for kk in residuals:
            r3 = residuals[kk]
            r3 -= (r3 @ q.T) @ q
        alive[k][pos] = False
        span_rows += q.shape[0]
    return tuple(picks)


def reference_sample(arr, trials, seed):
    """Per-trial reference sampler: (sets, p_hat), one run at a time."""
    dim_groups = {}
    for i, v in enumerate(arr.spaces):
        if v.dim:
            idx, mats = dim_groups.setdefault(v.dim, ([], []))
            idx.append(i)
            mats.append(v.basis)
    dim_groups = {k: (idx, np.stack(mats)) for k, (idx, mats) in dim_groups.items()}
    sets = [_greedy_run(dim_groups, np.random.default_rng((seed, t)), arr.ambient)
            for t in range(trials)]
    counts = np.zeros(arr.n)
    for h in sets:
        counts[list(h)] += 1.0
    return sets, counts / trials


def mixed_with_zero(seed):
    """Spaces of dimensions 1, 2 and 3 in R^9, a zero space and two repeats."""
    rng = np.random.default_rng(seed)
    spaces = [Subspace(9, np.zeros((0, 9)))]
    for d in (1, 2, 3, 1, 2, 3, 2, 1):
        spaces.append(Subspace(9, orthonormalize(rng.standard_normal((d, 9)))))
    return Arrangement(9, spaces + [spaces[2], spaces[3]])


SAMPLER_CASES = {
    "zero-spaces-only": lambda: Arrangement(3, [Subspace(3, np.zeros((0, 3)))] * 2),
    "mixed-with-zero": lambda: mixed_with_zero(0),
    "duplicate-lines": lambda: lines(3, [[1.0, 0.0, 0.0]] * 4 + [[0.0, 1.0, 0.0],
                                         [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
    # a plane and three lines inside it, plus one line, in R^6: spans R^3 only
    "not-spanning": lambda: Arrangement(6, [
        Subspace(6, np.eye(6)[[0, 1]]),
        Subspace.from_spanning(np.array([[1.0, 1.0, 0, 0, 0, 0]]), 6),
        Subspace.from_spanning(np.array([[1.0, -2.0, 0, 0, 0, 0]]), 6),
        Subspace.from_spanning(np.array([[0.0, 1.0, 0, 0, 0, 0]]), 6),
        Subspace.from_spanning(np.array([[0.3, 0.0, 1.0, 0, 0, 0]]), 6),
    ]),
}


def assert_maximal_admissible(arr, h):
    """``h`` is admissible, and maximal under the sampler's own eligibility rule."""
    assert len(set(h)) == len(h) and all(arr.spaces[i].dim for i in h)
    stacked = np.concatenate([np.zeros((0, arr.ambient))] + [arr.spaces[i].basis for i in h])
    assert rank(stacked) == stacked.shape[0]
    if stacked.shape[0] >= arr.ambient:
        return
    span = orthonormalize(stacked)
    for i, v in enumerate(arr.spaces):
        if v.dim and i not in h:
            resid = v.basis - (v.basis @ span.T) @ span
            assert np.linalg.svd(resid, compute_uv=False)[-1] <= _ELIGIBLE_MIN_SV, (h, i)


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
@pytest.mark.parametrize("trials", [1, 32, 33])
@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("block", [3, None])
def test_sampler_emits_maximal_admissible_sets(case, trials, seed, block, monkeypatch):
    # small blocks retire trials and drop dead spaces at many more steps
    if block is not None:
        monkeypatch.setattr(sgcert.scaling, "_TRIAL_BLOCK", block)
    arr = SAMPLER_CASES[case]()
    sample = sample_admissible(arr, trials=trials, seed=seed)
    assert len(sample.sets) == trials
    for h in sample.sets:
        assert_maximal_admissible(arr, h)
    counts = np.zeros(arr.n)
    for h in sample.sets:
        counts[list(h)] += 1.0
    assert np.array_equal(sample.p_hat, counts / trials)


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_sampler_sets_depend_only_on_the_seed(case, seed, monkeypatch):
    # every trial scans its own row of random keys, drawn in trial order, so
    # neither the block size nor the scan window changes a set
    arr = SAMPLER_CASES[case]()
    want = sample_admissible(arr, trials=33, seed=seed).sets
    for block, window in [(3, None), (None, 1), (3, 1)]:
        with monkeypatch.context() as patch:
            if block is not None:
                patch.setattr(sgcert.scaling, "_TRIAL_BLOCK", block)
            if window is not None:
                patch.setattr(sgcert.scaling, "_SCAN_WINDOW", window)
            assert sample_admissible(arr, trials=33, seed=seed).sets == want, (block, window)


AGREEMENT_TRIALS = 4000


@functools.lru_cache(maxsize=None)
def reference_p_hat(case):
    return reference_sample(SAMPLER_CASES[case](), AGREEMENT_TRIALS, seed=11)[1]


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
@pytest.mark.parametrize("block", [3, None])
def test_sampler_frequencies_agree_with_per_trial_reference(case, block, monkeypatch):
    # each p_hat[i] is a binomial proportion over independent trials; the two
    # sides must agree within 5 sigma of the pooled difference, exactly
    # where the pooled frequency is 0 or 1
    if block is not None:
        monkeypatch.setattr(sgcert.scaling, "_TRIAL_BLOCK", block)
    arr = SAMPLER_CASES[case]()
    expected = reference_p_hat(case)
    p_hat = sample_admissible(arr, trials=AGREEMENT_TRIALS, seed=12).p_hat
    pooled = (p_hat + expected) / 2.0
    sigma = np.sqrt(pooled * (1.0 - pooled) * 2.0 / AGREEMENT_TRIALS)
    assert (np.abs(p_hat - expected) <= 5.0 * sigma).all(), (p_hat, expected)


def test_sampler_reverifies_each_distinct_set_once(monkeypatch):
    arr = mixed_with_zero(1)
    ranked = []

    def counting_ranks(a, sets, tol):
        ranked.extend(tuple(row) for row in sets.tolist())
        return _stacked_set_ranks(a, sets, tol)

    monkeypatch.setattr(sgcert.scaling, "_stacked_set_ranks", counting_ranks)
    sample = sample_admissible(arr, trials=200, seed=3)
    distinct = {tuple(sorted(h)) for h in sample.sets if h}
    assert len(distinct) < len(sample.sets)  # repeats occur, and are not re-checked
    assert sorted(ranked) == sorted(distinct)

    # a stream grown in pieces checks each distinct set once over all of them
    ranked.clear()
    stream = _SampleStream(arr, 3, DEFAULT_TOL)
    for total in (1, 8, 128, 200):
        grown = stream.extend(total)
    assert grown.sets == sample.sets
    assert sorted(ranked) == sorted(distinct)

    monkeypatch.setattr(sgcert.scaling, "_stacked_set_ranks",
                        lambda a, sets, tol: _stacked_set_ranks(a, sets, tol) - 1)
    with pytest.raises(SgcertError, match="failed the admissibility equation"):
        sample_admissible(arr, trials=4, seed=3)


@pytest.mark.parametrize("case", ["mixed-with-zero", "duplicate-lines", "not-spanning"])
@pytest.mark.parametrize("block", [1, 3, 100, None])
def test_stream_extended_in_pieces_matches_one_call(case, block, monkeypatch):
    # trial t scans row t of the generator's keys however the trials are
    # split, so every prefix of a stream is the sample of that many trials
    if block is not None:
        monkeypatch.setattr(sgcert.scaling, "_TRIAL_BLOCK", block)
    arr = SAMPLER_CASES[case]()
    stream = _SampleStream(arr, 5, DEFAULT_TOL)
    for total in (1, 8, 128, 300):
        grown = stream.extend(total)
        once = sample_admissible(arr, trials=total, seed=5)
        assert grown.trials == total
        assert grown.sets == once.sets
        assert grown.p_hat.tobytes() == once.p_hat.tobytes()


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_output_ignores_the_block_budget(case, monkeypatch):
    # one-trial blocks, and each extension in a single block, give the sets
    # and p_hat of the default budget
    arr = SAMPLER_CASES[case]()
    seeds = (0, 5, 17)
    want = [sample_admissible(arr, trials=300, seed=seed) for seed in seeds]
    for budget, cap in [(1, None), (64 << 20, 1 << 20)]:
        with monkeypatch.context() as patch:
            patch.setattr(sgcert.scaling, "_BLOCK_BYTES", budget)
            if cap is not None:
                patch.setattr(sgcert.scaling, "_TRIAL_BLOCK", cap)
            block = _SampleStream(arr, 0, DEFAULT_TOL).block
            assert block == 1 if cap is None else block >= 300
            for seed, expected in zip(seeds, want):
                got = sample_admissible(arr, trials=300, seed=seed)
                assert got.sets == expected.sets, (budget, seed)
                assert got.p_hat.tobytes() == expected.p_hat.tobytes(), (budget, seed)


def test_sampler_peak_memory_follows_the_block_budget():
    # the per-trial byte formula bounds what a block keeps live, so one
    # sampler call peaks below _BLOCK_BYTES plus its sample arrays (the
    # picks are held twice while the blocks are joined): on planes in R^16,
    # and on the 90 lines in R^22 of the far-clusters instance, where the
    # span counted once fits the most trials to a block
    for arr in (generate_grouped(k=2, delta=0.25, n=64, ambient=16, seed=0),
                far_clusters_instance()[0]):
        assert _SampleStream(arr, 0, DEFAULT_TOL).block < 4096  # several blocks
        tracemalloc.start()
        try:
            sample = sample_admissible(arr, trials=4096, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = sgcert.scaling._BLOCK_BYTES + 2 * sample.picks.nbytes + sample.p_hat.nbytes
        assert peak < limit, (arr.ambient, peak, limit)


def test_sampler_cutoff_follows_rank_tol():
    # the line (1, 0, 1e-5) clears the plane e1e2 by 1e-5, above the 1e-7
    # floor, but the rank rule with rank_tol 1e-3 merges the two: the
    # cutoff sqrt(3) * 1e-3 keeps the sampler from picking both
    line = np.array([[1.0, 0.0, 1e-5]])
    arr = Arrangement(3, [Subspace(3, np.eye(3)[[0, 1]]),
                          Subspace(3, line / np.linalg.norm(line)),
                          Subspace(3, np.eye(3)[[2]])])
    tol = Tolerance(rank_tol=1e-3)
    sample = sample_admissible(arr, 64, seed=0, tol=tol)
    assert {tuple(sorted(h)) for h in sample.sets} == {(0, 2), (1, 2)}
    for h in sample.sets:
        stacked = np.vstack([arr.spaces[i].basis for i in h])
        assert rank(stacked, tol) == stacked.shape[0]
    assert _eligible_min_sv(3, tol) == np.sqrt(3) * 1e-3
    assert all(_eligible_min_sv(l, DEFAULT_TOL) == _ELIGIBLE_MIN_SV
               for l in (1, 16, 1000, 9_999))


def reference_clear(res, pad, cutoff):
    """The clearance test of reference_greedy_block (see _clear)."""
    k = res.shape[1]
    if k == 1:
        lam = np.einsum("ml,ml->m", res[:, 0], res[:, 0])
    elif k == 2:
        r0, r1 = res[:, 0], res[:, 1]
        a, c, d = (np.einsum("ml,ml->m", x, y) for x, y in ((r0, r0), (r0, r1), (r1, r1)))
        a, d = a + pad[:, 0], d + pad[:, 1]
        lam = (a + d) / 2.0 - np.hypot((a - d) / 2.0, c)
    else:
        gram = res @ res.transpose(0, 2, 1)
        gram[:, range(k), range(k)] += pad
        lam = np.linalg.eigvalsh(gram)[:, 0]
    return lam > cutoff**2


def reference_greedy_block(bases, dims, order, ambient, cutoff):
    """The general scan step, the oracle of _greedy_block.

    Every kept residual is normalized row by row by Gram-Schmidt (the first
    row by its own norm), its padding goes to kmax spare span rows, the rest
    of the window is projected at every position, the last too, and the
    survivors' spans are copied out whenever trials leave.
    """
    b, n = order.shape
    kmax = bases.shape[1]
    pad = (np.arange(kmax) >= dims[:, None]).astype(float)
    span = np.zeros((b, ambient + kmax, ambient))
    rows = np.zeros(b, dtype=np.intp)
    kept = np.zeros((b, n), dtype=bool)
    live = np.arange(b)
    slots = np.arange(kmax)
    for start in range(0, n, sgcert.scaling._SCAN_WINDOW):
        cand = order[live, start:start + sgcert.scaling._SCAN_WINDOW]
        res = bases[cand]
        top = rows.max()
        if top:
            flat = res.reshape(live.size, -1, ambient)
            flat -= (flat @ span[:, :top].transpose(0, 2, 1)) @ span[:, :top]
        for j in range(cand.shape[1]):
            sel = np.flatnonzero(reference_clear(res[:, j], pad[cand[:, j]], cutoff))
            if not sel.size:
                continue
            q = res[sel, j]
            for i in range(kmax):
                v, prev = q[:, i], q[:, :i]
                for _ in range(2 if i else 0):
                    v -= np.einsum("sh,shl->sl", np.einsum("shl,sl->sh", prev, v), prev)
                norm = np.sqrt(np.einsum("sl,sl->s", v, v))[:, None]
                np.divide(v, norm, out=v, where=norm > 0.0)
            span[sel[:, None], rows[sel, None] + slots] = q
            rows[sel] += dims[cand[sel, j]]
            kept[live[sel], start + j] = True
            rest = res[sel, j + 1:]
            flat = rest.reshape(sel.size, -1, ambient)
            flat -= (flat @ q.transpose(0, 2, 1)) @ q
            res[sel, j + 1:] = rest
        full = rows >= ambient
        if full.any():
            live, rows, span = live[~full], rows[~full], span[~full]
            if not live.size:
                break
    return kept


def assert_scan_matches_reference(arr, tol, seed, trials=40, block=7):
    """_greedy_block keeps the masks of reference_greedy_block, bit for bit,
    in blocks of ``block`` trials (many leave in each) and in one block."""
    stream = _SampleStream(arr, 0, tol)
    order = (np.random.default_rng(seed).random((trials, stream.nonzero.size))
             .argsort(axis=1).astype(stream.index_type))
    scan = stream.bases, stream.dims
    for size in (block, trials):
        for first in range(0, trials, size):
            part = order[first:first + size]
            got = sgcert.scaling._greedy_block(*scan, part, stream.dim, stream.cutoff)
            want = reference_greedy_block(*scan, part, stream.dim, stream.cutoff)
            assert np.array_equal(got, want), (size, first)


def random_lines(seed, ambient, n, extra):
    """Lines of R^ambient embedded in R^(ambient + extra): random ones, repeats
    (some with the sign flipped) and near-dependent ones, each a mix of two
    lines plus noise of 1e-12 to 1e-2, so near both test cutoffs."""
    rng = np.random.default_rng(seed)
    rows = list(rng.standard_normal((n, ambient)))
    for _ in range(n // 2):
        kind = rng.integers(3)
        a, b = rng.integers(len(rows), size=2)
        if kind == 0:
            rows.append(rows[a] * rng.choice([-1.0, 1.0]))
        else:
            noise = 10.0 ** rng.uniform(-12, -2) * rng.standard_normal(ambient)
            rows.append(rng.standard_normal() * rows[a] + rng.standard_normal() * rows[b] + noise)
    frame = orthonormalize(rng.standard_normal((ambient, ambient + extra))) if extra else np.eye(ambient)
    return Arrangement(ambient + extra, [
        Subspace(ambient + extra, (r / np.linalg.norm(r)).reshape(1, -1) @ frame)
        for r in rows if np.linalg.norm(r) > 0.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(1, 6), n=st.integers(1, 12),
       extra=st.integers(0, 3))
def test_line_scan_keeps_the_general_masks(seed, ambient, n, extra):
    # on lines the scan divides a kept residual by the norm its clearance
    # test took, skips the rest projection at a window's last position and
    # moves trials in place when others leave; the general step, row-by-row
    # Gram-Schmidt with every copy, must keep the same positions bit for
    # bit, near the cutoff of either tolerance
    arr = random_lines(seed, ambient, n, extra)
    for tol in (DEFAULT_TOL, Tolerance(rank_tol=1e-3)):
        assert_scan_matches_reference(arr, tol, seed)


def test_lines_kept_past_a_full_span_fail_admissibility():
    # on these near-dependent lines a span loses orthogonality, and some
    # trials keep a seventh line in R^6; the sampler reports such a set as
    # inadmissible instead of failing on the padding of its picks
    arr = random_lines(213, 6, 5, 0)
    with pytest.raises(SgcertError, match=r"sampled set \(.*\) failed the admissibility equation"):
        sample_admissible(arr, trials=200, seed=0)


@pytest.mark.parametrize("case", ["mixed-with-zero", "duplicate-lines", "not-spanning",
                                  "grouped", "integer"])
@pytest.mark.parametrize("seed", [0, 3])
def test_scan_keeps_the_general_masks_on_mixed_dimensions(case, seed):
    # spaces of dimensions 1-3 take the Gram-Schmidt rows and the in-place
    # moves
    arr = {"grouped": lambda: generate_grouped(k=2, delta=0.25, n=20, ambient=16, seed=seed),
           "integer": lambda: integer_spaces(seed, 6, 9)}.get(case, SAMPLER_CASES.get(case))()
    for tol in (DEFAULT_TOL, Tolerance(rank_tol=1e-3)):
        assert_scan_matches_reference(arr, tol, seed)


# sha256 of repr(sets) + p_hat bytes, first 16 hex digits, recorded before
# the sampler kept its picks as arrays and scanned in the span of the
# spaces: 300 trials at seeds 0, 5 and 17
SAMPLER_DIGESTS = {
    "duplicate-lines": ["80c3194fd43c73b8", "09e1492258111c45", "bd25b32fd8cbcfb6"],
    "mixed-with-zero": ["16c7476e3b7585d0", "8d5093bdd48edabe", "e8fc5175ad546686"],
    "not-spanning": ["213f4fa5d851d348", "38bb7a561b85b642", "48ecd1c7e79cc787"],
    "zero-spaces-only": ["8217e0af90db481b"] * 3,
}


def sample_digest(sample):
    text = repr(sample.sets).encode() + sample.p_hat.tobytes()
    return hashlib.sha256(text).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_matches_recorded_digests(case):
    arr = SAMPLER_CASES[case]()
    got = [sample_digest(sample_admissible(arr, trials=300, seed=seed)) for seed in (0, 5, 17)]
    assert got == SAMPLER_DIGESTS[case]


def test_ci_scale_sample_matches_recorded_digest():
    # the sample behind `sgcert scale g.arr --trials 256 --seed 3` on the CI
    # instance `sgcert gen --kind grouped --k 1 --delta 0.5 --n 8 --seed 1`
    arr = generate_grouped(k=1, delta=0.5, n=8, seed=1)
    assert sample_digest(sample_admissible(arr, trials=256, seed=3)) == "3f56ccaa55969374"


def integer_spaces(seed, ambient, n):
    """Spans of rows with entries in {-1, 0, 1} (dimensions 0-3), two repeated.

    Every clearance the sampler meets is either zero, up to rounding, or an
    algebraic number of small height, far above any cutoff used here.  The
    repeats are the same spaces under another orthonormal basis.
    """
    rng = np.random.default_rng(seed)
    spaces = [Subspace(ambient, orthonormalize(
        rng.integers(-1, 2, size=(int(rng.integers(0, min(3, ambient) + 1)), ambient))))
        for _ in range(n)]
    for i in rng.integers(0, n, size=2):
        v = spaces[i]
        turn = orthonormalize(rng.standard_normal((v.dim, v.dim))) if v.dim else np.eye(0)
        spaces.append(Subspace(ambient, turn @ v.basis))
    return Arrangement(ambient, spaces)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(2, 5), n=st.integers(1, 6),
       extra=st.integers(1, 3))
def test_isometric_embedding_samples_alike(seed, ambient, n, extra):
    # the embedding never spans its ambient space, so its trials scan the
    # images in the span; the arrangement itself may span (and scan R^l)
    arr = integer_spaces(seed, ambient, n)
    frame = orthonormalize(np.random.default_rng(seed).standard_normal((ambient, ambient + extra)))
    embedded = Arrangement(ambient + extra, [Subspace(ambient + extra, v.basis @ frame)
                                             for v in arr.spaces])
    if arr.dimension():
        assert _SampleStream(embedded, 0, DEFAULT_TOL).dim == arr.dimension()
    for tol in (DEFAULT_TOL, Tolerance(rank_tol=1e-3)):
        a = sample_admissible(arr, trials=64, seed=seed, tol=tol)
        b = sample_admissible(embedded, trials=64, seed=seed, tol=tol)
        assert a.sets == b.sets
        assert a.p_hat.tobytes() == b.p_hat.tobytes()
        hull_a, hull_b = admissible_hull_vector(a), admissible_hull_vector(b)
        assert hull_a.terms == hull_b.terms
        assert hull_a.p.tobytes() == hull_b.p.tobytes()


@pytest.mark.parametrize("case, dim", [("not-spanning", 3), ("mixed-with-zero", 9)])
def test_stream_scans_the_span_of_its_spaces(case, dim, monkeypatch):
    # a trial scans R^d, d the dimension of the sum, and leaves once its span
    # has d rows; the cutoff stays the one of the input's ambient space
    arr = SAMPLER_CASES[case]()
    scanned = []
    greedy = sgcert.scaling._greedy_block

    def recording(bases, dims, order, ambient, cutoff):
        kept = greedy(bases, dims, order, ambient, cutoff)
        scanned.append((bases.shape[2], ambient, cutoff))
        return kept

    monkeypatch.setattr(sgcert.scaling, "_greedy_block", recording)
    sample = sample_admissible(arr, trials=40, seed=2, tol=Tolerance(rank_tol=1e-3))
    assert set(scanned) == {(dim, dim, _eligible_min_sv(arr.ambient, Tolerance(rank_tol=1e-3)))}
    stream = _SampleStream(arr, 2, DEFAULT_TOL)
    # the images are always there, keyed by the nonzero spaces, in R^d
    assert sorted(stream.span[1]) == [i for i, v in enumerate(arr.spaces) if v.dim]
    assert {image.shape[1] for image in stream.span[1].values()} == {dim}
    assert np.array_equal(stream.span[0], orthonormalize(arr.stacked_basis()))
    for h in sample.sets:
        assert_maximal_admissible(arr, h)


def test_sample_picks_hold_the_sets():
    # picks rows: index + 1 in pick order, zero padded, as narrow as the indices allow
    arr = SAMPLER_CASES["mixed-with-zero"]()
    sample = sample_admissible(arr, trials=50, seed=4)
    assert sample.picks.dtype == np.uint8 and sample.picks.shape[0] == 50
    rebuilt = AdmissibleSample(sets=sample.sets, p_hat=sample.p_hat, trials=50, seed=4)
    assert rebuilt.picks.dtype == np.uint8
    assert np.array_equal(rebuilt.picks, sample.picks[:, :rebuilt.picks.shape[1]])
    assert not sample.picks[:, rebuilt.picks.shape[1]:].any()
    assert rebuilt.sets is sample.sets
    by_hand = AdmissibleSample(sets=[(2, 0), (), (1,)], p_hat=np.zeros(3), trials=3, seed=0)
    assert by_hand.picks.tolist() == [[3, 1], [0, 0], [2, 0]]


def reference_hull_vector(sample):
    """The hull terms by a dict of sorted tuples, and p added term by term."""
    weights = {}
    for h in sample.sets:
        key = tuple(sorted(h))
        weights[key] = weights.get(key, 0) + 1
    terms = [(h, c / sample.trials) for h, c in sorted(weights.items())]
    p = np.zeros_like(sample.p_hat)
    for h, q in terms:
        p[list(h)] += q
    return terms, p


@pytest.mark.parametrize("case", ["duplicate-lines", "mixed-with-zero", "not-spanning",
                                  "grouped"])
def test_hull_vector_matches_per_set_reference(case):
    arr = (generate_grouped(k=2, delta=0.25, n=64, ambient=16, seed=0) if case == "grouped"
           else SAMPLER_CASES[case]())
    sample = sample_admissible(arr, trials=2000, seed=6)
    hull = admissible_hull_vector(sample)
    terms, p = reference_hull_vector(sample)
    assert hull.terms == terms
    assert hull.p.tobytes() == p.tobytes()


def test_hull_vector_single_and_disjoint():
    one = AdmissibleSample(sets=[(0, 2)], p_hat=np.array([0.5, 0.0, 0.5]),
                           trials=1, seed=0)
    cert = admissible_hull_vector(one)
    assert cert.terms == [((0, 2), 1.0)]
    assert np.allclose(cert.p, [1.0, 0.0, 1.0])
    two = AdmissibleSample(sets=[(0,), (1,)], p_hat=np.array([0.5, 0.5]),
                           trials=2, seed=0)
    cert = admissible_hull_vector(two)
    assert np.allclose(cert.p, [0.5, 0.5])
    assert sorted(q for _, q in cert.terms) == [0.5, 0.5]


def test_hull_vector_three_lines_weights():
    arr = lines(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sample = sample_admissible(arr, trials=10000, seed=5)
    cert = admissible_hull_vector(sample)
    weights = dict(cert.terms)
    assert set(weights) == {(0, 1), (0, 2), (1, 2)}
    assert np.abs(np.array(list(weights.values())) - 1 / 3).max() < 0.03
    # the combination reproduces p exactly by construction
    p = np.zeros(3)
    for h, q in cert.terms:
        p[list(h)] += q
    assert np.array_equal(p, cert.p)


# ---------------------------------------------------------------------------
# state, gradient, r-step


def test_gradient_coordinate_axes():
    arr = axes(3)
    state = make_state(arr, np.ones(3))
    assert np.abs(t_gradient(state)).max() < 1e-12
    state = make_state(arr, np.full(3, 0.5))
    assert np.allclose(t_gradient(state), -0.5)


def random_state(rng, seed):
    """A well-conditioned random scaling state (n <= 6, k <= 3, ambient <= 8).

    Conditioning is capped because the finite-difference comparison loses
    eps * cond(X) of precision in each log-det evaluation.
    """
    while True:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        ambient = int(rng.integers(k, min(n * k, 8) + 1))
        arr = random_spanning(n, k, ambient, seed=seed + 7919 * n + k)
        p = rng.uniform(0.1, 1.0, size=n)
        t = rng.uniform(-1.0, 1.0, size=n * k)
        state = make_state(arr, p, t=t)
        if state.cond < 1e4:
            return arr, p, t, state


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for trial in range(20):
        arr, p, t, state = random_state(rng, 100 + trial)
        grad = t_gradient(state)
        for s in range(state.m):
            tp, tm = t.copy(), t.copy()
            tp[s] += h
            tm[s] -= h
            fp = make_state(arr, p, t=tp).f
            fm = make_state(arr, p, t=tm).f
            assert abs(grad[s] - (fp - fm) / (2 * h)) < 1e-5


def test_r_step_identity_for_lines():
    arr = lines(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    state = make_state(arr, np.full(3, 2 / 3))
    t0, f0 = state.t.copy(), state.f
    r_step(state)
    assert np.array_equal(state.t, t0)
    assert state.f == f0


def test_r_step_orthogonalizes_tied_pair():
    rng = np.random.default_rng(11)
    for _ in range(20):
        arr = random_spanning(3, 2, 4, seed=int(rng.integers(1 << 30)))
        t = np.repeat(rng.uniform(-1, 1, size=3), 2)  # ties within spaces
        state = make_state(arr, rng.uniform(0.2, 1.0, size=3), t=t)
        f0 = state.f
        r_step(state)
        assert abs(state.f - f0) <= 1e-10 * max(1.0, abs(f0))
        mx = state.x_rows @ state.M
        for i in range(3):
            sl = state.slots(i)
            inner = mx[sl] @ mx[sl].T
            assert abs(inner[0, 1]) <= 1e-8


# ---------------------------------------------------------------------------
# optimize


def test_optimize_coordinate_axes():
    arr = axes(4)
    result = optimize(arr, np.ones(4))
    assert result.obstruction is None
    assert result.achieved_eps <= 1e-6
    # M is the identity up to an orthogonal factor: M^T M = I
    assert np.abs(result.M.T @ result.M - np.eye(4)).max() < 1e-8


def test_optimize_three_lines_tight_frame():
    arr = lines(2, [[1.0, 0.3], [-0.2, 1.0], [0.8, -0.7]])
    p = np.full(3, 2 / 3)
    result = optimize(arr, p)
    assert result.obstruction is None
    assert result.achieved_eps <= 1e-6
    total = -np.eye(2)
    for i, v in enumerate(arr.spaces):
        u = v.basis @ result.M.T
        u /= np.linalg.norm(u)
        total += p[i] * np.outer(u, u)
    assert spectral_norm(total) <= 1e-6


def test_optimize_matches_direct_maximization():
    # independent oracle: maximize f over t with a generic optimizer
    from scipy.optimize import minimize

    arr = lines(2, [[1.0, 0.3], [-0.2, 1.0], [0.8, -0.7]])
    p = np.full(3, 2 / 3)
    bases = np.vstack([v.basis for v in arr.spaces])

    def neg_f(t):
        x = (bases.T * np.exp(t)) @ bases
        return -(p @ t - np.linalg.slogdet(x)[1])

    oracle = minimize(neg_f, np.zeros(3), method="Nelder-Mead",
                      options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    result = optimize(arr, p)
    assert result.f_history[-1] == pytest.approx(-oracle.fun, abs=1e-8)


def test_optimize_ascent_and_frame_identity():
    rng = np.random.default_rng(13)
    for trial in range(5):
        n, k = 5, 2
        arr = random_spanning(n, k, 4, seed=200 + trial)
        sample = sample_admissible(arr, trials=512, seed=trial)
        result = optimize(arr, sample.p_hat)
        assert result.obstruction is None
        diffs = np.diff(np.array(result.f_history))
        assert diffs.min() >= -1e-10 * max(1.0, abs(result.f_history[-1]))
        assert frame_identity_residual(result.state) <= 1e-7
        assert projector_gap(arr, sample.p_hat, result.M) <= 1e-6


def test_optimize_obstruction_on_bad_weights():
    # the only basis set is {0, 1}, so p = (1, 0) sits outside the basis
    # hull: V2 carries the third coordinate and its weight drifts to -inf
    v1 = Subspace(3, np.eye(3)[[0, 1]])
    v2 = Subspace.from_spanning([0.0, 0.6, 0.8], 3)
    arr = Arrangement(3, [v1, v2])
    result = optimize(arr, np.array([1.0, 0.0]), max_iter=3000)
    assert result.obstruction is not None
    assert result.obstruction.t_inf_norm > 10
    assert any(i == 1 and d == -1 for i, _, d in result.obstruction.slots)


def test_optimize_obstruction_off_hull_positive_weights():
    # three lines in R^2 with total weight 3/2 < 2: p lies off the basis
    # hull although every weight is positive, so all of t drifts to -inf
    arr = lines(2, [[1.0, 0.3], [-0.2, 1.0], [0.8, -0.7]])
    result = optimize(arr, np.full(3, 0.5), max_iter=3000)
    assert result.obstruction is not None
    assert result.obstruction.t_inf_norm > 10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimize_face_of_basis_hull(seed):
    # four generic planes in R^4: p = (1, 1/3, 1/3, 1/3) is the average of
    # the basis sets {0, 1}, {0, 2}, {0, 3}, so it lies on the face where
    # every basis set contains V0, and scaling still succeeds
    rng = np.random.default_rng(seed)
    arr = Arrangement(4, [Subspace(4, orthonormalize(rng.standard_normal((2, 4))))
                          for _ in range(4)])
    p = np.array([1.0, 1 / 3, 1 / 3, 1 / 3])
    result = optimize(arr, p)
    assert result.obstruction is None
    assert result.achieved_eps <= 1e-6
    assert projector_gap(arr, p, result.M) <= 1e-6


@pytest.mark.parametrize("n, k, ambient", [(4, 2, 4), (5, 2, 4), (4, 3, 6)])
def test_optimize_faces_of_basis_hull_sweep(n, k, ambient):
    # p = (1, 1/(n-1), ...) averages the basis sets {0, j}: on this face the
    # trajectory diverges while its map already meets the target, which is
    # a success, not an obstruction
    p = np.array([1.0] + [1 / (n - 1)] * (n - 1))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        arr = Arrangement(ambient, [
            Subspace(ambient, orthonormalize(rng.standard_normal((k, ambient))))
            for _ in range(n)
        ])
        result = optimize(arr, p)
        assert result.obstruction is None, seed
        assert projector_gap(arr, p, result.M) <= 1e-6, seed


def test_optimize_rejects_nan_weights():
    with pytest.raises(PreconditionError, match=r"weights must lie in \[0, 1\]"):
        optimize(axes(2), np.array([np.nan, 1.0]))


@pytest.mark.parametrize("seed", range(20))
def test_optimize_mixed_dimensions(seed):
    # lines, planes and 3-spaces in R^6
    rng = np.random.default_rng(seed)
    arr = Arrangement(6, [Subspace(6, orthonormalize(rng.standard_normal((d, 6))))
                          for d in (1, 2, 1, 3, 1, 2, 1, 3, 1, 1)])
    sample = sample_admissible(arr, trials=2048, seed=seed)
    result = optimize(arr, sample.p_hat)
    assert result.obstruction is None
    assert result.achieved_eps <= 1e-6
    assert projector_gap(arr, sample.p_hat, result.M) <= 1e-6
    assert frame_identity_residual(result.state) <= 1e-7
    diffs = np.diff(np.array(result.f_history))
    assert diffs.min() >= -1e-10 * max(1.0, abs(result.f_history[-1]))
    # the block step moves the rotations too: no linear tail is left
    assert result.iterations <= 6


def test_optimize_zero_weight_space():
    # three generic planes and a line in R^4; p averages the basis sets
    # {0, 1} and {0, 2}, so the line's weights are driven down
    rng = np.random.default_rng(5)
    arr = Arrangement(4, [Subspace(4, orthonormalize(rng.standard_normal((d, 4))))
                          for d in (2, 2, 2, 1)])
    p = np.array([1.0, 0.5, 0.5, 0.0])
    result = optimize(arr, p)
    assert result.obstruction is None
    assert result.achieved_eps <= 1e-6
    assert projector_gap(arr, p, result.M) <= 1e-6


# instance and sampler seeds of the benchmark's scale-grouped workload at
# workload seeds 0 and 3
@pytest.mark.parametrize("instance_seed, sampler_seed", [(3964924996, 1358922860),
                                                         (457190280, 2660306227)])
def test_optimize_iterations_on_grouped_planes(instance_seed, sampler_seed):
    arr = generate_grouped(k=2, delta=0.25, n=64, ambient=16, seed=instance_seed)
    sample = sample_admissible(arr, trials=4096, seed=sampler_seed)
    result = optimize(arr, sample.p_hat)
    assert result.obstruction is None
    assert result.achieved_eps <= 1e-6
    assert result.iterations <= 5


def random_blocks(seed):
    """A mixed-dimension state at random t and rotations, and its layout."""
    rng = np.random.default_rng(seed)
    dims = (1, 2, 3, 2, 1, 3)
    arr = Arrangement(6, [Subspace(6, orthonormalize(rng.standard_normal((d, 6))))
                          for d in dims])
    p = rng.uniform(0.2, 0.9, size=arr.n)
    t = rng.uniform(-0.5, 0.5, size=sum(dims))
    rotations = [np.linalg.qr(rng.standard_normal((d, d)))[0] for d in dims]
    state = make_state(arr, p, t=t, rotations=rotations)
    return state, _block_layout(state)


def f_after_step(state, layout, step):
    """f at the blocks C_i exp(E_i) C_i^T that ``step`` moves ``state`` to."""
    moved = copy.copy(state)
    _move_blocks(moved, state.t, state.R, layout, step)
    return _refresh(moved, DEFAULT_TOL).f


@pytest.mark.parametrize("seed", [0, 1])
def test_block_model_matches_finite_differences(seed):
    state, layout = random_blocks(seed)
    g, hess, diag = _block_model(state, layout)
    size = g.size
    assert size == sum(d * (d + 1) // 2 for d in (1, 2, 3, 2, 1, 3))
    assert diag.sum() == state.m
    eye = np.eye(size)
    h = 1e-5
    numeric = [(f_after_step(state, layout, h * e) - f_after_step(state, layout, -h * e)) / (2 * h)
               for e in eye]
    assert np.abs(np.array(numeric) - g).max() <= 1e-7
    h = 1e-4
    for p in range(size):
        for q in range(p, size):
            plus, minus = eye[p] + eye[q], eye[p] - eye[q]
            second = (f_after_step(state, layout, h * plus) - f_after_step(state, layout, h * minus)
                      - f_after_step(state, layout, -h * minus)
                      + f_after_step(state, layout, -h * plus)) / (4 * h * h)
            assert abs(second - hess[p, q]) <= 1e-5, (p, q)
    assert np.abs(hess - hess.T).max() <= 1e-12
    # the quadratic model is concave: every eigenvalue is <= 0 up to rounding
    assert np.linalg.eigvalsh(hess).max() <= 1e-10


def test_block_model_on_lines_is_the_t_newton_model():
    rng = np.random.default_rng(3)
    arr = lines(5, rng.standard_normal((9, 5)))
    state = make_state(arr, np.full(9, 5 / 9), t=rng.uniform(-1, 1, size=9))
    g, hess, diag = _block_model(state, _block_layout(state))
    half = np.sqrt(np.exp(state.t))
    mx = state.x_rows @ state.M
    w = half[:, None] * (mx @ mx.T) * half[None, :]
    assert diag.all()
    assert np.array_equal(g, state.grad)
    assert np.array_equal(hess, w * w - np.diag(np.diag(w)))


def test_optimize_radial_isotropic_k1():
    # general-position lines with p = l/n reach radial isotropic position
    rng = np.random.default_rng(17)
    n, ambient = 7, 3
    arr = Arrangement(ambient, [
        Subspace.from_spanning(rng.standard_normal(ambient), ambient)
        for _ in range(n)
    ])
    p = np.full(n, ambient / n)
    result = optimize(arr, p)
    assert result.obstruction is None
    total = -np.eye(ambient)
    for v in arr.spaces:
        u = v.basis @ result.M.T
        u /= np.linalg.norm(u)
        total += (ambient / n) * np.outer(u, u)
    assert spectral_norm(total) <= 1e-6


def test_optimize_requires_spanning():
    arr = lines(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(PreconditionError):
        optimize(arr, np.array([1.0, 1.0]))


@pytest.mark.parametrize("eps_target, t_cap", [
    (0.0, 60.0), (-1.0, 60.0), (np.nan, 60.0), (np.inf, 60.0),
    (1e-6, 0.0), (1e-6, -1.0), (1e-6, np.nan), (1e-6, np.inf),
])
def test_optimize_rejects_bad_targets(eps_target, t_cap):
    with pytest.raises(PreconditionError):
        optimize(axes(2), np.array([1.0, 1.0]), eps_target=eps_target, t_cap=t_cap)


def mixed_spanning(seed):
    """Spaces of dimensions 1-3 in R^6 whose sum fills it, and a weight per space."""
    rng = np.random.default_rng(seed)
    arr = Arrangement(6, [Subspace(6, orthonormalize(rng.standard_normal((d, 6))))
                          for d in (1, 2, 3, 2, 1, 3, 1)])
    p = rng.uniform(0.1, 0.9, size=arr.n)
    p[3] = 0.0
    return arr, p


def test_projector_gap_matches_per_space_loop():
    arr, p = mixed_spanning(41)
    m_factor = np.linalg.inv(np.linalg.qr(np.random.default_rng(42).standard_normal((6, 6)))[1])
    total = -np.eye(6)
    for i, v in enumerate(arr.spaces):
        if p[i] != 0.0:
            image = orthonormalize(v.basis @ m_factor.T)
            total += p[i] * (image.T @ image)
    assert projector_gap(arr, p, m_factor) == spectral_norm(total)


def test_normalize_matches_per_space_loop():
    arr, p = mixed_spanning(43)
    state = make_state(arr, p, t=np.random.default_rng(44).normal(size=13))
    t, rotations = state.t.copy(), list(state.R)
    for i, basis in enumerate(state.bases):
        if p[i] > 0.0:
            bm = basis @ state.M
            g, rotations[i] = np.linalg.eigh(bm @ bm.T)
            t[state.slots(i)] = np.log(p[i]) - np.log(g)
    _normalize(state, sgcert.scaling.DEFAULT_TOL)
    assert np.array_equal(state.t, t)
    assert all(np.array_equal(a, b) for a, b in zip(state.R, rotations))


@pytest.mark.parametrize("chunk_bytes", [None, 1], ids=["one-chunk", "chunk-per-space"])
def test_orthonormal_images_are_keyed_by_space_index(chunk_bytes, monkeypatch):
    # dimensions 0-3 interleaved and a keep mask with gaps: each image sits
    # under its own space's index and is the per-space orthonormalize, bit
    # for bit, also when every dimension group is cut into many chunks
    if chunk_bytes is not None:
        monkeypatch.setattr(sgcert.linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(45)
    dims = (2, 0, 3, 1, 0, 2, 3, 1, 2, 0, 1, 3)
    arr = Arrangement(7, [Subspace(7, orthonormalize(rng.standard_normal((d, 7))))
                          for d in dims])
    x = rng.standard_normal((5, 7))
    keep = np.array([True, True, False, True, True, True, False, True, False, True, True, True])
    for mask in (None, keep):
        images = sgcert.scaling._orthonormal_images(arr, x, DEFAULT_TOL, mask)
        want = [i for i, d in enumerate(dims) if d and (mask is None or mask[i])]
        assert sorted(images) == want
        for i in want:
            assert images[i].tobytes() == orthonormalize(arr.spaces[i].basis @ x.T).tobytes()
            assert images[i].shape == (min(dims[i], 5), 5)


# ---------------------------------------------------------------------------
# spanning model


def test_spanning_model_spanning_bases():
    arr = lines(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sample = sample_admissible(arr, trials=200, seed=21)
    model = spanning_model(arr, admissible_hull_vector(sample))
    assert model.d == 2
    assert model.arrangement.n == 5
    assert np.allclose(model.p[3:], 0.0)  # every term already a basis set
    assert np.allclose(model.p[:3], sample.p_hat)


def test_spanning_model_plane_in_r3():
    rng = np.random.default_rng(23)
    plane = orthonormalize(rng.standard_normal((2, 3)))
    arr = Arrangement(3, [
        Subspace.from_spanning(rng.standard_normal(2) @ plane, 3)
        for _ in range(3)
    ])
    sample = sample_admissible(arr, trials=500, seed=8)
    model = spanning_model(arr, admissible_hull_vector(sample))
    assert model.d == 2
    assert model.arrangement.n == 5
    assert model.arrangement.dimension() == 2


def test_spanning_model_projection_bound():
    # after optimizing the model with eps = 1, the weighted squared
    # projections of any unit vector sum to at most 2
    rng = np.random.default_rng(29)
    plane = orthonormalize(rng.standard_normal((3, 5)))
    arr = Arrangement(5, [
        Subspace.from_spanning(rng.standard_normal(3) @ plane, 5)
        for _ in range(4)
    ])
    sample = sample_admissible(arr, trials=1000, seed=31)
    model = spanning_model(arr, admissible_hull_vector(sample))
    result = optimize(model.arrangement, model.p, eps_target=1.0)
    assert result.obstruction is None
    total = np.zeros((model.d, model.d))
    for i in range(model.n_original):
        img = orthonormalize(model.arrangement.spaces[i].basis @ result.M.T)
        total += model.p[i] * (img.T @ img)
    assert spectral_norm(total) <= 2.0 + 1e-9


def test_spanning_model_requires_certificate():
    arr = axes(2)
    with pytest.raises(PreconditionError):
        spanning_model(arr, None)


def test_spanning_model_empty_sum():
    arr = Arrangement(3, [Subspace(3, np.zeros((0, 3)))])
    cert = HullCertificate = None
    from sgcert.scaling import HullCertificate as HC

    with pytest.raises(PreconditionError):
        spanning_model(arr, HC(p=np.zeros(1), terms=[((), 1.0)]))


def per_term_model_p(arr, hull, model):
    """The hull vector of a spanning model, one orthonormalization per term."""
    d, eye = model.d, np.eye(model.d)
    p = np.zeros(arr.n + d)
    for h, q in hull.terms:
        span = orthonormalize(np.vstack([np.zeros((0, d))]
                                        + [model.arrangement.spaces[i].basis for i in h]))
        extension = []
        for s in range(d):
            if span.shape[0] == d:
                break
            resid = eye[s] - (eye[s] @ span.T) @ span
            if np.linalg.norm(resid) > _ELIGIBLE_MIN_SV:
                extension.append(s)
                span = np.vstack([span, resid / np.linalg.norm(resid)])
        p[list(h) + [arr.n + s for s in extension]] += q
    return p


@pytest.mark.parametrize("make_hull", ["sampled", "by hand"])
def test_spanning_model_matches_per_term_loop(make_hull):
    arr = plane_and_lines()
    if make_hull == "sampled":
        hull = admissible_hull_vector(sample_admissible(arr, trials=400, seed=47))
    else:
        terms = [((1,), 0.125), ((0, 2), 0.25), ((1, 2), 0.375), ((0, 3), 0.25)]
        p = np.zeros(arr.n)
        for h, q in terms:
            p[list(h)] += q
        hull = HullCertificate(p=p, terms=terms)
    spans = [rank(np.vstack([arr.spaces[i].basis for i in h])) == 3 for h, _ in hull.terms]
    assert any(spans) and not all(spans)
    model = spanning_model(arr, hull)
    assert np.array_equal(model.p, per_term_model_p(arr, hull, model))
    for v, image in zip(arr.spaces, model.arrangement.spaces):
        assert np.array_equal(image.basis, orthonormalize(v.basis @ model.restriction.T))


SPANNING_CASES = {
    "plane-and-lines": plane_and_lines,
    "duplicate-lines": SAMPLER_CASES["duplicate-lines"],
    "not-spanning": SAMPLER_CASES["not-spanning"],
    "mixed-with-zero": SAMPLER_CASES["mixed-with-zero"],
    "far-clusters": lambda: far_clusters_instance(cluster=12, groups=3)[0],
    "grouped": lambda: generate_grouped(k=2, delta=0.25, n=24, ambient=16, seed=2),
}


@pytest.mark.parametrize("case", sorted(SPANNING_CASES))
def test_stream_hull_needs_no_rerank(case, monkeypatch):
    # the stream verified dim(sum) = sum(dim) for every term of its hull, so
    # the spanning model reads which terms span off their dimensions; the
    # same terms in a hand-built hull, or from a hand-made sample, are
    # ranked, and all three give the same model bit for bit
    arr = SPANNING_CASES[case]()
    stream = _SampleStream(arr, 5, DEFAULT_TOL)
    for total in (64, 300):
        sample = stream.extend(total)
    hull = admissible_hull_vector(sample)
    by_hand = HullCertificate(hull.p, hull.terms)
    remade = admissible_hull_vector(AdmissibleSample(sets=sample.sets, p_hat=sample.p_hat,
                                                     trials=sample.trials, seed=5))
    assert remade.terms == hull.terms and remade.p.tobytes() == hull.p.tobytes()
    ranked = []

    def counting_ranks(a, sets, tol):
        ranked.append(len(sets))
        return _stacked_set_ranks(a, sets, tol)

    monkeypatch.setattr(sgcert.scaling, "_stacked_set_ranks", counting_ranks)
    want = spanning_model(arr, hull, span=stream.span)
    assert not ranked
    for other in (by_hand, remade):
        got = spanning_model(arr, other, span=stream.span)
        assert sum(ranked) == sum(1 for h, _ in hull.terms if h)
        ranked.clear()
        assert got.p.tobytes() == want.p.tobytes()
        assert got.restriction.tobytes() == want.restriction.tobytes()
        assert got.n_original == want.n_original and got.d == want.d
        assert [v.basis.tobytes() for v in got.arrangement.spaces] == \
            [v.basis.tobytes() for v in want.arrangement.spaces]
    # the stream's check holds for its own arrangement and tolerance only: on
    # an equal copy of the arrangement, or with another tolerance, the stream
    # hull is ranked too
    copy = Arrangement(arr.ambient, list(arr.spaces), field_tag=arr.field_tag)
    other_tol = Tolerance(rank_tol=DEFAULT_TOL.rank_tol, residual_tol=2 * DEFAULT_TOL.residual_tol)
    for a, tol in ((copy, DEFAULT_TOL), (arr, other_tol)):
        got = spanning_model(a, hull, tol, span=stream.span)
        assert sum(ranked) == sum(1 for h, _ in hull.terms if h)
        ranked.clear()
        assert got.p.tobytes() == want.p.tobytes()


def test_hull_terms_are_built_when_read():
    # a stream hull holds its terms as arrays and makes the tuples once
    arr = SAMPLER_CASES["mixed-with-zero"]()
    hull = admissible_hull_vector(sample_admissible(arr, trials=200, seed=9))
    assert hull._terms is None
    terms = hull.terms
    assert hull.terms is terms
    assert [h for h, _ in terms] == [tuple(int(i) - 1 for i in row if i) for row in hull.rows]
    assert [q for _, q in terms] == hull.weights.tolist()
    # a hand-built hull keeps its terms and makes the arrays from them
    by_hand = HullCertificate(np.array([0.5, 1.0, 0.5]), [((1, 0), 0.5), ((1, 2), 0.5)])
    assert by_hand.rows.tolist() == [[2, 1], [2, 3]]
    assert by_hand.weights.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("make_hull", ["by hand", "hand-made sample"])
def test_hand_built_hull_with_dependent_term_is_rejected(make_hull):
    # three lines of the plane are no admissible set, and neither are a plane
    # and a line inside it; only a sampler stream's hull skips the ranking
    arr = plane_and_lines()
    in_plane = next(i for i in range(1, arr.n)
                    if rank(np.vstack([arr.spaces[0].basis, arr.spaces[i].basis])) == 2)
    for h in [(0, in_plane), tuple(range(1, arr.n))]:
        p = np.zeros(arr.n)
        p[list(h)] = 1.0
        if make_hull == "by hand":
            hull = HullCertificate(p, [(h, 1.0)])
        else:
            hull = admissible_hull_vector(AdmissibleSample(sets=[h], p_hat=p, trials=1, seed=0))
        with pytest.raises(SgcertError, match="is not a basis set"):
            spanning_model(arr, hull)
