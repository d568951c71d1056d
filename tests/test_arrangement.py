import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcert.arrangement import (
    Arrangement,
    ComplexSubspace,
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
from sgcert.linalg import DEFAULT_TOL, Tolerance, orthonormalize, rank


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


def _planted_pair(rng, da, db, ambient, angle, spread, move, level):
    """Bases of a da-space and a db-space of R^ambient whose first min(da, db,
    ambient - da) principal angles are angle * spread^i, moved off
    orthonormality by about ``level``: shrunk, or by a random step."""
    frame = orthonormalize(rng.standard_normal((ambient, ambient)))
    m = min(da, db, ambient - da)
    angles = angle * spread ** np.arange(m)
    planted = np.cos(angles)[:, None] * frame[:m] + np.sin(angles)[:, None] * frame[da:da + m]
    rows = np.vstack([planted, rng.standard_normal((db - m, ambient))])
    bases = [frame[:da], np.linalg.qr(rows.T)[0].T if db else rows]
    if move == "shrink":
        return [b * (1 - level / 2) for b in bases]
    steps = [rng.standard_normal(b.shape) for b in bases]
    return [b + level / 2 * t / np.linalg.norm(t, axis=1, keepdims=True) for b, t in
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
    # sigma_min^2 of the stacked bases, and a pair it proves has full rank
    rng = np.random.default_rng(seed)
    proven = 0
    for ambient in range(1, 8):
        spaces, sizes = [], []
        for da in range(min(ambient, 3) + 1):
            for db in range(min(ambient, 3) + 1):
                for decade in range(1, 15):
                    angle = 10.0 ** -(decade + rng.random())
                    spread = 1 + rng.choice([0.0, 1e-3, 1.0]) * rng.random()
                    spaces += [Subspace(ambient, b) for b in
                               _planted_pair(rng, da, db, ambient, angle, spread, move, level)]
                    sizes.append(da + db)
        arr = Arrangement(ambient, spaces)
        pairs = np.arange(arr.n).reshape(-1, 2)
        floor = _pair_floor(arr.stacked_basis(), np.array(arr.dims()), arr.drifts(), pairs)
        ranks = _pair_ranks(arr, pairs, tol)
        for (a, b), f, s, r in zip(pairs.tolist(), floor.tolist(), sizes, ranks.tolist()):
            stacked = np.vstack([arr.spaces[a].basis, arr.spaces[b].basis])
            if 0 < s <= ambient:
                assert f <= np.linalg.svd(stacked, compute_uv=False)[-1] ** 2, (a, b, ambient)
            elif s:
                assert f <= 0.0, (a, b, ambient)
            if r >= 0:
                assert r == s == rank(stacked, tol), (a, b, ambient)
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
    cs = ComplexSubspace(3, np.eye(3)[[0, 1]], np.zeros((2, 3)))
    arr = complex_to_real([cs])
    assert arr.spaces[0].dim == 2
    assert rank(np.vstack([arr.spaces[0].basis, np.eye(3)[[0, 1]]])) == 2


def test_complex_to_real_one_complex_line_fills_r2():
    # span_C{(1, i)} realifies to span_R{(1,0), (0,1)} = R^2
    cs = ComplexSubspace(2, [[1.0, 0.0]], [[0.0, 1.0]])
    arr = complex_to_real([cs])
    assert arr.spaces[0].dim == 2
    assert arr.field_tag == "complex"


def test_complex_dependent_triple_preserved():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    b = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    coeff = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    c = coeff @ np.vstack([a, b])
    arr = complex_to_real([
        ComplexSubspace(6, m.real, m.imag) for m in (a, b, c)
    ])
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
    arr = complex_to_real(carr.spaces)
    assert all(v.dim <= 4 for v in arr.spaces)
    # real span dimension dominates the complex one
    stack_c = np.vstack([s.basis_re + 1j * s.basis_im for s in carr.spaces])
    dim_c = np.linalg.matrix_rank(stack_c, tol=1e-9)
    assert arr.dimension() >= dim_c


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
    carr = generate_complex_planted(n=5, k=1, ambient=4, triple_count=1, seed=9)
    path = tmp_path / "c.arr"
    write_arrangement(path, carr)
    back = read_arrangement(path)
    for v, w in zip(carr.spaces, back.spaces):
        assert np.array_equal(v.basis_re, w.basis_re)
        assert np.array_equal(v.basis_im, w.basis_im)


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
