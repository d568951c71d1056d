import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from instances import write_complex_arrangement

from sgcert.arrangement import (
    Arrangement,
    InvariantViolation,
    Subspace,
    _pair_floor,
    _pair_ranks,
    _runs,
    _set_stacks,
    _stacked_set_ranks,
    complex_to_real,
    generate,
    generate_complex_planted,
    generate_grid,
    generate_grouped,
    generate_random_planted,
    pairwise_zero_intersection,
    planted_triples,
    principal_cosine,
    read_arrangement,
    tau_separated,
    write_arrangement,
)
import sgcert.linalg
from sgcert.dependency import _special_and_dependent
from sgcert.errors import ParseError, PreconditionError
from sgcert.linalg import DEFAULT_TOL, Tolerance, orthonormalize, rank, stacked_ranks


def line(ambient, direction):
    v = np.zeros(ambient)
    v[: len(direction)] = direction
    return Subspace.from_spanning(v, ambient)


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(InvariantViolation):
        Subspace(2, [[1.0, 1.0]])


def test_subspace_zero_space():
    z = Subspace(3, np.zeros((0, 3)))
    assert z.dim == 0
    assert Subspace(3, np.eye(3)[[0]]).contains(z)


def test_k_bounded_check():
    lines = Arrangement(3, [line(3, [1]), line(3, [0, 1])])
    assert lines.max_dim() == 1
    full = Arrangement(3, [Subspace(3, np.eye(3))])
    assert full.max_dim() == 3
    assert generate_grid(4).max_dim() == 2
    assert Arrangement(3, [Subspace(3, np.zeros((0, 3)))]).max_dim() == 0


def test_pairwise_zero_intersection_examples():
    e = np.eye(3)
    arr = Arrangement(3, [Subspace(3, e[[0]]), Subspace(3, e[[1]])])
    assert pairwise_zero_intersection(arr) == []
    dup = Arrangement(3, [Subspace(3, e[[0]]), Subspace(3, e[[0]])])
    assert pairwise_zero_intersection(dup) == [(0, 1)]
    # coordinate-pair planes sharing an axis intersect in that axis
    grid = Arrangement(3, [Subspace(3, e[[0, 1]]), Subspace(3, e[[0, 2]])])
    assert pairwise_zero_intersection(grid) == [(0, 1)]


_INT_ROWS = st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), max_size=12).map(
    lambda rows: np.array(rows, dtype=int).reshape(-1, cols)))


@settings(max_examples=200, deadline=None)
@given(rows=_INT_ROWS)
def test_runs_sort_stably_and_mark_each_run(rows):
    # oracle: Python's sort is stable, and a run starts where the row changes
    tuples = [tuple(r) for r in rows.tolist()]
    want = sorted(range(len(tuples)), key=tuples.__getitem__)
    want_starts = [q for q, i in enumerate(want)
                   if q == 0 or tuples[i] != tuples[want[q - 1]]]
    order, starts = _runs(rows)
    assert order.tolist() == want
    assert starts.tolist() == want_starts


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("chunk_bytes", [None, 600])
def test_set_stacks_match_per_member_concatenation(seed, chunk_bytes, monkeypatch):
    # sets of 1-5 members of dimensions 0-3, repeats allowed, so that many
    # signatures mix; each stack is the members' bases concatenated in set
    # order, bit for bit, and every set comes once, in order within a group
    if chunk_bytes is not None:
        monkeypatch.setattr(sgcert.linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(seed)
    arr = Arrangement(7, [Subspace(7, orthonormalize(rng.standard_normal((d, 7))))
                          for d in rng.integers(0, 4, size=12)])
    for size in range(1, 6):
        sets = rng.integers(0, arr.n, size=(40, size))
        seen = []
        for idx, stacks in _set_stacks(arr, sets, arr.ambient):
            assert np.all(np.diff(idx) > 0)
            for q, t in enumerate(idx.tolist()):
                want = np.concatenate([np.zeros((0, 7))] + [arr.spaces[i].basis for i in sets[t]])
                assert stacks[q].shape == want.shape and np.array_equal(stacks[q], want)
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(len(sets)))


def test_stacked_set_ranks_long_mixed_sets():
    # 40-space sets of dimensions 1-3 (and a zero space): many signatures,
    # some repeated, and rank deficits from duplicated spaces
    rng = np.random.default_rng(7)
    spaces = [Subspace(120, orthonormalize(rng.standard_normal((d, 120))))
              for d in rng.integers(1, 4, size=60)]
    spaces += [spaces[i] for i in rng.choice(60, size=10, replace=False)]
    arr = Arrangement(120, spaces + [Subspace(120, np.zeros((0, 120)))])
    sets = np.array([rng.choice(arr.n, size=40, replace=False) for _ in range(30)])
    sets = np.concatenate([sets, sets[:5], np.sort(sets[5:10], axis=1), [np.arange(40)]])
    ranks = _stacked_set_ranks(arr, sets, DEFAULT_TOL)
    expected = [rank(np.concatenate([arr.spaces[i].basis for i in row])) for row in sets]
    assert ranks.tolist() == expected
    rows = [sum(arr.spaces[i].dim for i in row) for row in sets]
    assert any(r < m for r, m in zip(expected, rows)) and any(r == m for r, m in zip(expected, rows))


def _near_dependent_arrangement(seed, ambient=8):
    """Spaces of dimensions 1-3 in R^ambient and sets with planted near-dependencies.

    For each planted ratio r from 1e-1 down to 1e-14, a new space of
    dimension 1-3 is added whose first row leaves the span of one or two
    earlier spaces at the angle 2 atan(r) (for two lines, exactly the
    ratio of the pair's singular values), its other rows orthogonal to
    everything else; the set is those parents and the new space.  Random
    sets of every size up to the ambient dimension, and past it, are added.
    """
    rng = np.random.default_rng(seed)
    spaces = [Subspace(ambient, orthonormalize(rng.standard_normal((d, ambient))))
              for d in rng.integers(1, 4, size=6)]
    sets = []
    for ratio in 10.0 ** -np.arange(1.0, 14.01, 0.25):
        parents = [int(i) for i in rng.choice(len(spaces), size=rng.integers(1, 3),
                                              replace=False)]
        span = np.concatenate([spaces[i].basis for i in parents])
        k = int(rng.integers(1, 4))
        if span.shape[0] + k > ambient:
            parents, span = parents[:1], spaces[parents[0]].basis
            k = min(k, ambient - span.shape[0])
        inside = rng.standard_normal(span.shape[0]) @ span
        _, _, vt = np.linalg.svd(span)
        outside = orthonormalize(rng.standard_normal((k, ambient - span.shape[0]))
                                 @ vt[span.shape[0]:])
        angle = 2.0 * np.arctan(ratio)
        first = np.cos(angle) * inside / np.linalg.norm(inside) + np.sin(angle) * outside[0]
        spaces.append(Subspace(ambient, np.vstack([first, outside[1:]])))
        sets.append(parents + [len(spaces) - 1])
    spaces.append(Subspace(ambient, np.zeros((0, ambient))))
    arr = Arrangement(ambient, spaces)
    for size in range(1, ambient + 2):
        sets.extend(rng.choice(arr.n, size=size, replace=False).tolist() for _ in range(6))
    return arr, sets


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(rank_tol=1e-3), Tolerance(rank_tol=1e-6)],
                         ids=["default", "1e-3", "1e-6"])
def test_stacked_set_ranks_match_rank_near_dependencies(seed, tol):
    # the Cholesky screen may only certify sets the SVD rule calls full rank,
    # whether a set is ranked on its own or in a stack with others
    arr, sets = _near_dependent_arrangement(seed)
    expected = [rank(np.concatenate([arr.spaces[i].basis for i in row]), tol) for row in sets]
    rows = [sum(arr.spaces[i].dim for i in row) for row in sets]
    assert any(r < m for r, m in zip(expected, rows)) and any(r == m for r, m in zip(expected, rows))
    for size in {len(row) for row in sets}:
        same = [t for t, row in enumerate(sets) if len(row) == size]
        ranks = _stacked_set_ranks(arr, np.array([sets[t] for t in same]), tol)
        assert ranks.tolist() == [expected[t] for t in same]
    alone = [int(_stacked_set_ranks(arr, np.array([row]), tol)[0]) for row in sets]
    assert alone == expected


def _pair_oracle(arr, tol):
    """Pairs i < j whose stacked bases have rank below dim_i + dim_j, one at a time."""
    return [(i, j) for i in range(arr.n) for j in range(i + 1, arr.n)
            if rank(np.vstack([arr.spaces[i].basis, arr.spaces[j].basis]), tol)
            < arr.spaces[i].dim + arr.spaces[j].dim]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(rank_tol=1e-6), Tolerance(rank_tol=1e-3)],
                         ids=["1e-9", "1e-6", "1e-3"])
def test_pairwise_zero_intersection_matches_per_pair_rank(seed, tol):
    # about half of the planted spaces nearly meet one parent, at ratios
    # 1e-1 to 1e-14; zero spaces are spread among them
    arr, _ = _near_dependent_arrangement(seed)
    rng = np.random.default_rng(seed)
    spaces = list(arr.spaces)
    for pos in rng.choice(len(spaces), size=5, replace=False):
        spaces.insert(int(pos), Subspace(arr.ambient, np.zeros((0, arr.ambient))))
    arr = Arrangement(arr.ambient, spaces)
    expected = _pair_oracle(arr, tol)
    assert pairwise_zero_intersection(arr, tol) == expected
    assert set(arr.dims()) == {0, 1, 2, 3}
    # some planted pairs sit within three decades of the threshold
    tighter = _pair_oracle(arr, Tolerance(rank_tol=tol.rank_tol * 1e-3))
    assert set(tighter) < set(expected)
    with pytest.raises(PreconditionError) as err:
        _special_and_dependent(arr, tol)
    i, j = expected[0]
    assert str(err.value).startswith(f"spaces {i} and {j} intersect")


@pytest.mark.parametrize("spaces", [[], [np.zeros((0, 3))], [np.eye(3)[[0, 2]]]],
                         ids=["n0", "n1-zero", "n1-plane"])
def test_pairwise_zero_intersection_without_pairs(spaces):
    arr = Arrangement(3, [Subspace(3, b) for b in spaces])
    assert pairwise_zero_intersection(arr) == _pair_oracle(arr, DEFAULT_TOL) == []
    assert _special_and_dependent(arr, DEFAULT_TOL)[1] == []


def _planted_pairs(rng, frames, da, db, angles, spreads, move, level):
    """Bases, (k, da, l) and (k, db, l), of k pairs of a da-space and a
    db-space of R^l, ``frames[i]`` an orthogonal l x l matrix, whose first
    min(da, db, l - da) principal angles are angles[i] * spreads[i]^j,
    moved off orthonormality by about ``level``: shrunk, or by a random
    step."""
    k, ambient = frames.shape[:2]
    m = min(da, db, ambient - da)
    theta = (angles[:, None] * spreads[:, None] ** np.arange(m))[..., None]
    planted = np.cos(theta) * frames[:, :m] + np.sin(theta) * frames[:, da:da + m]
    rows = np.concatenate([planted, rng.standard_normal((k, db - m, ambient))], axis=1)
    bases = [frames[:, :da], np.linalg.qr(rows.transpose(0, 2, 1))[0].transpose(0, 2, 1)
             if db else rows]
    if move == "shrink":
        return [b * (1 - level / 2) for b in bases]
    steps = [rng.standard_normal(b.shape) for b in bases]
    return [b + level / 2 * t / np.linalg.norm(t, axis=-1, keepdims=True) for b, t in
            zip(bases, steps)] if move == "step" else bases


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), move=st.sampled_from(["none", "shrink", "step"]),
       level=st.floats(0.0, 1e-10),
       tol=st.sampled_from([DEFAULT_TOL, Tolerance(rank_tol=1e-6), Tolerance(rank_tol=1e-3)]))
def test_pair_floor_is_below_the_svd(seed, move, level, tol):
    # pairs of spaces of dimensions 0-3 in R^1 to R^7 (d_a + d_b above and
    # below the ambient dimension), with a principal angle planted at each
    # decade from 1e-1 to 1e-14 rad, and its neighbours at the same angle,
    # within 1e-3 of it or up to twice it: the floor is never above
    # sigma_min^2 of the stacked bases, and a pair it proves has full rank.
    # Each pair has its own random frame; the pairs of one pair of
    # dimensions are drawn, and the SVD oracle run on them, in stacked calls.
    rng = np.random.default_rng(seed)
    proven = 0
    decades = np.arange(1, 15)
    for ambient in range(1, 8):
        dims = [(da, db) for da in range(min(ambient, 3) + 1) for db in range(min(ambient, 3) + 1)]
        frames = np.linalg.qr(rng.standard_normal((len(dims), decades.size, ambient, ambient)))[0]
        stacks, spaces = [], []
        for (da, db), group in zip(dims, frames):
            angles = 10.0 ** -(decades + rng.random(decades.size))
            spreads = 1 + rng.choice([0.0, 1e-3, 1.0], decades.size) * rng.random(decades.size)
            va, vb = _planted_pairs(rng, group, da, db, angles, spreads, move, level)
            stacks.append(np.concatenate([va, vb], axis=1))
            spaces += [Subspace(ambient, b) for pair in zip(va, vb) for b in pair]
        arr = Arrangement(ambient, spaces)
        pairs = np.arange(arr.n).reshape(-1, 2)
        floor = _pair_floor(arr.stacked_basis(), np.array(arr.dims()), arr.drifts(), pairs)
        ranks = _pair_ranks(arr, pairs, tol)
        for g, stacked in enumerate(stacks):
            s, k = stacked.shape[1], g * decades.size + np.arange(decades.size)
            values = np.linalg.svd(stacked, compute_uv=False)
            for (a, b), f, v, r, want in zip(pairs[k].tolist(), floor[k].tolist(), values,
                                             ranks[k].tolist(), stacked_ranks(values, tol).tolist()):
                if 0 < s <= ambient:
                    assert f <= v[-1] ** 2, (a, b, ambient)
                elif s:
                    assert f <= 0.0, (a, b, ambient)
                if r >= 0:
                    assert r == s == want, (a, b, ambient)
                    proven += 1
    assert proven


def test_tau_separated_examples():
    e = np.eye(2)
    v, w = Subspace(2, e[[0]]), Subspace(2, e[[1]])
    assert tau_separated(v, w, 0.5)
    assert not tau_separated(v, v, 1e-6)
    # lines at 60 degrees have cosine exactly 0.5; boundary counts as separated
    u = Subspace(2, np.array([[0.5, np.sqrt(3.0) / 2.0]]))
    assert principal_cosine(v, u) == pytest.approx(0.5, abs=1e-15)
    assert tau_separated(v, u, 0.5)
    assert not tau_separated(v, u, 0.5 + 1e-9)


def test_tau_separated_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = Subspace.from_spanning(rng.standard_normal((2, 5)), 5)
        w = Subspace.from_spanning(rng.standard_normal((3, 5)), 5)
        tau = float(rng.uniform(0.05, 1.0))
        assert tau_separated(v, w, tau) == tau_separated(w, v, tau)


def test_complex_to_real_real_entries_only():
    # span_C{e1, e2} in C^3 embeds as span_R{(e1, 0), (e2, 0), (0, e1), (0, e2)} in R^6
    arr = complex_to_real(3, [np.eye(3)[[0, 1]]])
    assert arr.ambient == 6 and arr.spaces[0].dim == 4
    assert rank(np.vstack([arr.spaces[0].basis, np.eye(6)[[0, 1, 3, 4]]])) == 4


def test_complex_to_real_one_complex_line_is_a_real_plane():
    # span_C{(1, i)} embeds as span_R{(1, 0, 0, 1), (0, -1, 1, 0)}, a plane of R^4
    arr = complex_to_real(2, [[[1.0, 1j]]])
    assert arr.ambient == 4 and arr.spaces[0].dim == 2
    assert rank(np.vstack([arr.spaces[0].basis, [[1, 0, 0, 1], [0, -1, 1, 0]]])) == 2
    assert arr.field_tag == "complex"


def test_complex_to_real_rejects_rows_dependent_over_c():
    # (i, -1) = i (1, i): independent over R, dependent over C
    with pytest.raises(InvariantViolation, match="linearly dependent over C"):
        complex_to_real(2, [[[1.0, 1j], [1j, -1.0]]])
    # more rows than the ambient dimension
    with pytest.raises(InvariantViolation, match="linearly dependent over C"):
        complex_to_real(1, [[[1.0], [1j]]])


def test_complex_dependent_triple_preserved():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    b = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    coeff = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    c = coeff @ np.vstack([a, b])
    arr = complex_to_real(6, [a, b, c])
    v1, v2, v3 = arr.spaces
    stacked12 = np.vstack([v1.basis, v2.basis])
    assert rank(np.vstack([stacked12, v3.basis])) == rank(stacked12)


def test_generate_grouped_dimensions():
    arr = generate_grouped(k=1, delta=0.5, n=6, seed=0)
    assert arr.n == 6
    assert arr.dimension() == 4  # 2k * ceil(1/delta)
    assert pairwise_zero_intersection(arr) == []


def test_generate_grouped_infeasible():
    with pytest.raises(PreconditionError):
        generate_grouped(k=2, delta=0.5, n=6, ambient=3)


def test_generate_grid():
    arr = generate_grid(4)
    assert arr.n == 6
    assert arr.dimension() == 4
    assert len(pairwise_zero_intersection(arr)) > 0


def test_generate_random_planted():
    arr = generate_random_planted(n=10, k=2, ambient=20, triple_count=5, seed=7)
    assert arr.n == 10
    assert pairwise_zero_intersection(arr) == []
    for a, b, c in planted_triples(10, 5):
        pair = np.vstack([arr.spaces[a].basis, arr.spaces[b].basis])
        assert rank(np.vstack([pair, arr.spaces[c].basis])) == rank(pair)


def test_generate_dispatch():
    arr = generate("grouped", {"k": 1, "delta": 0.25, "n": 8}, seed=1)
    assert arr.dimension() == 8
    with pytest.raises(PreconditionError):
        generate("nope", {})


def test_complex_planted_realification_dims():
    carr = generate_complex_planted(n=9, k=2, ambient=8, triple_count=3, seed=5)
    arr = complex_to_real(8, carr)
    assert arr.ambient == 16 and arr.dims() == [4] * 9
    # the real dimension is exactly twice the complex one
    dim_c = np.linalg.matrix_rank(np.vstack(carr), tol=1e-9)
    assert arr.dimension() == 2 * dim_c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), data=st.data())
def test_complex_embedding_keeps_dimensions_and_intersections(seed, k, data):
    # complex planted instances with 4k > l, where the old span of the real
    # and imaginary parts inside R^l made pairs meet; some with a space
    # replaced by another basis of an earlier one, so that pairs meet over C
    ambient = data.draw(st.integers(2 * k, 4 * k - 1))
    n = data.draw(st.integers(3, 8))
    bases = generate_complex_planted(n=n, k=k, ambient=ambient,
                                     triple_count=data.draw(st.integers(0, n // 3)), seed=seed)
    if data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rng = np.random.default_rng(seed)
        bases[j] = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) @ bases[i]
    arr = complex_to_real(ambient, bases)
    assert arr.ambient == 2 * ambient and arr.dims() == [2 * k] * n

    def complex_rank(m):
        return int(np.linalg.matrix_rank(m, tol=1e-9 * np.linalg.norm(m, 2)))

    assert arr.dimension() == 2 * complex_rank(np.vstack(bases))
    meet = [(a, b) for a in range(n) for b in range(a + 1, n)
            if complex_rank(np.vstack([bases[a], bases[b]])) < 2 * k]
    assert pairwise_zero_intersection(arr) == meet


def test_roundtrip_real(tmp_path):
    arr = generate_random_planted(n=6, k=2, ambient=7, triple_count=1, seed=3)
    path = tmp_path / "a.arr"
    write_arrangement(path, arr)
    back = read_arrangement(path)
    assert back.ambient == arr.ambient and back.n == arr.n
    for v, w in zip(arr.spaces, back.spaces):
        assert np.array_equal(v.basis, w.basis)
    # byte-identical rewrite
    path2 = tmp_path / "b.arr"
    write_arrangement(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_complex(tmp_path):
    # a complex file reads as the realification of the bases written to it
    carr = generate_complex_planted(n=5, k=1, ambient=4, triple_count=1, seed=9)
    path = tmp_path / "c.arr"
    write_complex_arrangement(path, 4, carr)
    back = read_arrangement(path)
    want = complex_to_real(4, carr)
    assert (back.ambient, back.field_tag) == (8, "complex")
    for v, w in zip(want.spaces, back.spaces):
        assert np.array_equal(v.basis, w.basis)


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("arrangement v2\n")
    with pytest.raises(ParseError):
        read_arrangement(path)
    path.write_text("arrangement v1\nfield real\nambient 2\nn 1\nspace 0 dim 1\n1.0\n")
    with pytest.raises(ParseError):
        read_arrangement(path)


def test_read_rejects_non_orthonormal(tmp_path):
    path = tmp_path / "skew.arr"
    path.write_text(
        "arrangement v1\nfield real\nambient 2\nn 1\nspace 0 dim 1\n1.0 1.0\n"
    )
    with pytest.raises(InvariantViolation):
        read_arrangement(path)
