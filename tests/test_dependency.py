import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgcert.arrangement import (
    Arrangement,
    Subspace,
    generate_grouped,
    generate_grid,
    generate_random_planted,
    pairwise_zero_intersection,
)
from sgcert.dependency import (
    TripleSystem,
    _special_and_dependent,
    as_fraction,
    build_sg_system,
    build_triple_family,
    find_special_spaces,
    is_dependent_triple,
    map_and_clean,
    prune_low_degree,
    read_system,
    validate_system,
    write_system,
)
from sgcert.errors import InconsistentSystemError, PreconditionError
from sgcert.linalg import DEFAULT_TOL, Tolerance, orthonormalize, projector, rank
from sgcert.pairscan import _pair_members


def line(ambient, direction):
    v = np.zeros(ambient)
    v[: len(direction)] = direction
    return Subspace.from_spanning(v, ambient)


def coplanar_lines(count, ambient=2, seed=0):
    """Distinct 1-dim spaces inside a 2-plane; every triple is dependent."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, np.pi, size=count)
    spaces = []
    for t in angles:
        v = np.zeros(ambient)
        v[0], v[1] = np.cos(t), np.sin(t)
        spaces.append(Subspace(ambient, v.reshape(1, -1)))
    return Arrangement(ambient, spaces)


def test_is_dependent_triple_examples():
    v1 = line(3, [1])
    v2 = line(3, [0, 1])
    assert is_dependent_triple(v1, v2, v1)
    v3 = line(3, [0, 0, 1])
    assert not is_dependent_triple(v1, v2, v3)
    assert rank(np.vstack([v1.basis, v2.basis, v3.basis])) == 3
    assert is_dependent_triple(line(2, [1]), line(2, [0, 1]), line(2, [1, 1]))


def test_dependency_transitivity():
    # {a,b,c} and {b,c,d} dependent implies {a,b,d} detected dependent
    rng = np.random.default_rng(4)
    frame = orthonormalize(rng.standard_normal((4, 7)))
    spaces = []
    for _ in range(4):
        spaces.append(Subspace(7, orthonormalize(rng.standard_normal((2, 4)) @ frame)))
    a, b, c, d = spaces
    arr = Arrangement(7, spaces)
    from sgcert.arrangement import pairwise_zero_intersection

    assert pairwise_zero_intersection(arr) == []
    assert is_dependent_triple(a, b, c)
    assert is_dependent_triple(b, c, d)
    assert is_dependent_triple(a, b, d)


def test_find_special_spaces_group_of_four():
    arr = generate_grouped(k=1, delta=1.0, n=4, seed=3)
    specials = find_special_spaces(arr, 1)
    assert len(specials) == 1
    assert specials[0].member_indices == (0, 1, 2, 3)
    proj = projector(specials[0].span_basis)
    for v in arr.spaces:
        assert np.abs(v.basis - v.basis @ proj).max() < 1e-8


def test_find_special_spaces_generic_empty():
    arr = generate_random_planted(n=7, k=1, ambient=7, triple_count=0, seed=2)
    assert find_special_spaces(arr, 1) == []
    # oracle: exhaustive scan over all triples
    for i, j, l in combinations(range(arr.n), 3):
        assert not is_dependent_triple(arr.spaces[i], arr.spaces[j], arr.spaces[l])


def test_find_special_spaces_three_collinear():
    arr = coplanar_lines(3, seed=1)
    specials = find_special_spaces(arr, 1)
    assert len(specials) == 1
    assert specials[0].size == 3
    assert specials[0].span_basis.shape == (2, 2)


def test_find_special_spaces_requires_zero_intersections():
    arr = generate_grid(4)
    with pytest.raises(PreconditionError, match=r"spaces \d+ and \d+"):
        find_special_spaces(arr, 2)


def _special_spaces_oracle(arr):
    """Special spaces by definition: each pair span and the nonzero spaces it contains."""
    live = [i for i, v in enumerate(arr.spaces) if v.dim > 0]
    out = {}
    for a, b in combinations(live, 2):
        span = Subspace.from_spanning(
            np.vstack([arr.spaces[a].basis, arr.spaces[b].basis]), arr.ambient)
        members = tuple(i for i in live if span.contains(arr.spaces[i]))
        if len(members) >= 3:
            out.setdefault(members, span.basis)
    return out


def _mixed_planted(seed, n, ambient):
    """Spaces of dimension 0..3, one of them zero, with planted containments.

    A space redrawn inside V_a + V_b gets dimension at most min(dim a, dim b),
    so generically it meets neither parent.
    """
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(0, 4, size=n)]
    dims[int(rng.integers(n))] = 0
    bases = [orthonormalize(rng.standard_normal((d, ambient))) for d in dims]
    for c in range(2, n, 2):
        a, b = rng.choice(c, size=2, replace=False)
        pair = np.vstack([bases[a], bases[b]])
        d = min(bases[a].shape[0], bases[b].shape[0])
        bases[c] = orthonormalize(rng.standard_normal((d, pair.shape[0])) @ pair)
    return Arrangement(ambient, [Subspace(ambient, q) for q in bases])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), n=st.integers(3, 8),
       slack=st.integers(0, 3), mixed=st.booleans())
def test_pair_span_scan_matches_triple_oracle(seed, k, n, slack, mixed):
    if mixed:
        arr = _mixed_planted(seed, n, 6 + slack)
    else:
        arr = generate_random_planted(n=n, k=k, ambient=2 * k + slack,
                                      triple_count=n // 3, seed=seed)
    assume(not pairwise_zero_intersection(arr))
    oracle = [t for t in combinations(range(arr.n), 3)
              if is_dependent_triple(*(arr.spaces[i] for i in t))]
    assert _special_and_dependent(arr, DEFAULT_TOL)[1] == oracle
    specials = find_special_spaces(arr, arr.max_dim())
    want = _special_spaces_oracle(arr)
    assert [sp.member_indices for sp in specials] == list(want)
    for sp in specials:
        assert np.array_equal(sp.span_basis, want[sp.member_indices])
    if not mixed:
        # k-uniform: the dependent triples are the triples inside special spaces
        inside = {t for sp in specials for t in combinations(sp.member_indices, 3)}
        assert inside == set(oracle)


_TOLS = [DEFAULT_TOL, Tolerance(residual_tol=1e-3)]


@pytest.mark.parametrize("tol", _TOLS)
def test_pair_scan_names_first_pair_with_mixed_partner_dims(tol):
    # row 0's partners have dimensions 0, 1 and 2; the dimension-1 partner 3
    # is scanned before the dimension-2 partner 2, but (0, 2) comes first
    e = np.eye(6)
    arr = Arrangement(6, [Subspace(6, e[[0, 1]]), Subspace(6, np.zeros((0, 6))),
                          Subspace(6, e[[1, 2]]), Subspace(6, e[[0]]), Subspace(6, e[[4]])])
    assert pairwise_zero_intersection(arr, tol) == [(0, 2), (0, 3)]
    for scan in (lambda: find_special_spaces(arr, 2, tol), lambda: _special_and_dependent(arr, tol)):
        with pytest.raises(PreconditionError, match=r"^spaces 0 and 2 intersect"):
            scan()
    # row 0 clean: the same pattern in row 2
    arr = Arrangement(6, [Subspace(6, e[[5]]), Subspace(6, np.zeros((0, 6))),
                          Subspace(6, e[[1, 2]]), Subspace(6, e[[2, 3]]), Subspace(6, e[[1]])])
    assert pairwise_zero_intersection(arr, tol) == [(2, 3), (2, 4)]
    with pytest.raises(PreconditionError, match=r"^spaces 2 and 3 intersect"):
        _special_and_dependent(arr, tol)


def _scan_masks(arr, tol):
    """Each pair's mask of the spaces inside its span, rebuilt from the pair
    scan's output: a, b, the zero spaces and the spaces it reports."""
    zero = np.array([v.dim == 0 for v in arr.spaces])
    masks = {}
    for a, partners, inside in _pair_members(arr, tol):
        for b in partners.tolist():
            assert (a, b) not in masks  # every pair is covered once
            masks[a, b] = zero.copy()
            masks[a, b][[a, b]] = True
        for b, c in inside.tolist():
            assert c not in (a, b) and not masks[a, b][c], (a, b, c)
            masks[a, b][c] = True
    return masks


@pytest.mark.parametrize("tol", _TOLS)
@pytest.mark.parametrize("factor, inside", [(0.5, True), (2.0, False)])
def test_pair_scan_residual_threshold(tol, factor, inside):
    """A plane displaced from span(V_0, V_1) by factor * residual_tol."""
    rng = np.random.default_rng(11)
    frame = orthonormalize(rng.standard_normal((6, 6)))
    span, normal = frame[:4], frame[4]
    a = Subspace(6, orthonormalize(rng.standard_normal((2, 4)) @ span))
    b = Subspace(6, orthonormalize(rng.standard_normal((2, 4)) @ span))
    u = orthonormalize(rng.standard_normal((2, 4)) @ span)
    eps = factor * tol.residual_tol
    c = Subspace(6, np.vstack([u[0], (u[1] + eps * normal) / np.hypot(1.0, eps)]))
    far = Subspace(6, orthonormalize(rng.standard_normal((2, 6))))
    arr = Arrangement(6, [a, b, c, far])
    assert pairwise_zero_intersection(arr, tol) == []
    assert Subspace(6, span).contains(c, tol) == inside
    masks = _scan_masks(arr, tol)
    assert masks[0, 1].tolist() == [True, True, inside, False]
    # every pair's mask agrees with Subspace.contains
    for (i, j), row in masks.items():
        pair = Subspace.from_spanning(np.vstack([arr.spaces[i].basis, arr.spaces[j].basis]), 6)
        assert row.tolist() == [pair.contains(v, tol) for v in arr.spaces]
    assert ((0, 1, 2) in _special_and_dependent(arr, tol)[1]) == inside


def _near_degenerate_pair(rng, angle, da, db, tol, ambient=9):
    """Spaces around a pair V_a, V_b whose smallest principal angle is ``angle``.

    Returns (arrangement, (a, b), (half, double)): two planted spaces of
    dimension min(da, db) lie inside V_a + V_b except for one row displaced
    off it by 0.5 and 2 residual_tol; a generic space and two zero spaces
    complete the arrangement, in a random order.
    """
    frame = orthonormalize(rng.standard_normal((ambient, ambient)))
    span, normal = frame[:da + db], frame[da + db]
    va = frame[:da]
    first = np.cos(angle) * frame[0] + np.sin(angle) * frame[da]
    vb = np.vstack([first, frame[da + 1:da + db]])
    planted = []
    for factor in (0.5, 2.0):
        u = orthonormalize(rng.standard_normal((min(da, db), da + db)) @ span)
        eps = factor * tol.residual_tol
        u[-1] = (u[-1] + eps * normal) / np.hypot(1.0, eps)
        planted.append(u)
    far = orthonormalize(rng.standard_normal((int(rng.integers(1, 4)), ambient)))
    zero = np.zeros((0, ambient))
    bases = [va, vb, *planted, far, zero, zero]
    order = rng.permutation(len(bases))
    arr = Arrangement(ambient, [Subspace(ambient, bases[i], tol) for i in order])
    where = np.argsort(order)
    return arr, tuple(sorted(where[:2].tolist())), tuple(where[2:4].tolist())


@pytest.mark.parametrize("tol", _TOLS)
@pytest.mark.parametrize("angle", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_pair_members_match_contains_oracle_near_degenerate(tol, angle):
    rng = np.random.default_rng(int(-np.log10(angle)))
    for da, db in [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)]:
        arr, pair, (half, double) = _near_degenerate_pair(rng, angle, da, db, tol)
        assert pairwise_zero_intersection(arr, tol) == []
        masks = _scan_masks(arr, tol)
        assert sorted(masks) == list(combinations(range(arr.n), 2))
        for (i, j), row in masks.items():
            span = Subspace.from_spanning(np.vstack([arr.spaces[i].basis,
                                                     arr.spaces[j].basis]), arr.ambient)
            assert row.tolist() == [span.contains(v, tol) for v in arr.spaces], (da, db, i, j)
        assert masks[pair][half] and not masks[pair][double]


def _planted_special(rng, ambient, extra, displaced, tol):
    """Bases of a special space W: a pair spanning it and ``extra`` generic
    members inside it, of the smaller dimension; then one member each moved
    off W by factor * residual_tol for each factor in ``displaced``."""
    da, db = (int(d) for d in rng.permutation(rng.choice([(1, 1), (1, 2), (2, 2), (1, 3)])))
    frame = orthonormalize(rng.standard_normal((ambient, ambient)))
    span, normal = frame[:da + db], frame[da + db]
    bases = [span[:da], span[da:]]
    d = min(da, db)
    for factor in [0.0] * extra + list(displaced):
        u = orthonormalize(rng.standard_normal((d, da + db)) @ span)
        eps = factor * tol.residual_tol
        u[-1] = (u[-1] + eps * normal) / np.hypot(1.0, eps)
        bases.append(u)
    return bases


@pytest.mark.parametrize("tol", _TOLS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(2, 4),
       displaced=st.sampled_from([(0.5, 2.0), (0.02, 1.05)]))
def test_pair_members_inherit_only_what_the_scan_would_find(tol, seed, extra, displaced):
    # a clean special space, one with a member displaced inside (by 0.5 or
    # 0.02 residual_tol) and one outside (by 2 or 1.05), two zero spaces and
    # a generic space, in a random order: every pair's mask, inherited or
    # tested, agrees with Subspace.contains
    rng = np.random.default_rng(seed)
    ambient = 10
    clean = _planted_special(rng, ambient, extra, (), tol)
    moved = _planted_special(rng, ambient, extra, displaced, tol)
    far = orthonormalize(rng.standard_normal((int(rng.integers(1, 3)), ambient)))
    bases = clean + moved + [far, np.zeros((0, ambient)), np.zeros((0, ambient))]
    order = rng.permutation(len(bases))
    arr = Arrangement(ambient, [Subspace(ambient, bases[i], tol) for i in order])
    assume(not pairwise_zero_intersection(arr, tol))
    masks = _scan_masks(arr, tol)
    assert sorted(masks) == list(combinations(range(arr.n), 2))
    for (i, j), row in masks.items():
        span = Subspace.from_spanning(np.vstack([arr.spaces[i].basis, arr.spaces[j].basis]),
                                      arr.ambient)
        assert row.tolist() == [span.contains(v, tol) for v in arr.spaces], (i, j)


@pytest.mark.parametrize("tol", _TOLS + [Tolerance(rank_tol=1e-3)])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), slack=st.integers(0, 2),
       position=st.floats(0, 1))
def test_near_dependent_triple_gets_one_answer(tol, seed, k, slack, position):
    # V_c lies at a distance 10^U(-11, -6) off V_a + V_b (up to 10^-2 for
    # the looser tolerances), across the cuts of rank_tol and residual_tol:
    # the triple scan, the system's validation, the per-triple oracle and
    # certify agree on whether the triple is dependent
    from sgcert.certifier import CertifyBudget, certify

    rng = np.random.default_rng(seed)
    dist = 10.0 ** (-11 + position * (5 if tol == DEFAULT_TOL else 9))
    # two roundings of a residual at the cut itself may fall either side
    assume(abs(np.log10(dist / tol.residual_tol)) > 1e-6)
    ambient = 3 * k + slack
    frame = orthonormalize(rng.standard_normal((ambient, ambient)))
    span, normal = frame[:2 * k], frame[2 * k:3 * k]
    va, vb, u = (orthonormalize(rng.standard_normal((k, 2 * k)) @ span) for _ in range(3))
    bases = [va, vb, (u + dist * normal) / np.hypot(1.0, dist)]
    arr = Arrangement(ambient, [Subspace(ambient, bases[i], tol)
                                for i in rng.permutation(3)])
    assume(not pairwise_zero_intersection(arr, tol))
    listed = (0, 1, 2) in _special_and_dependent(arr, tol)[1]
    sys = build_sg_system(arr, k, tol)
    assert validate_system(arr, sys, tol).ok
    triple = TripleSystem(3, [(0, 1, 2)] * 6, alpha=6, delta=2.0)
    assert validate_system(arr, triple, tol).ok == listed
    assert is_dependent_triple(*arr.spaces, tol) == listed
    assert sys == (triple if listed else TripleSystem(3, [], alpha=6, delta=0.0))
    if listed:
        assert certify(arr, sys, tol, budget=CertifyBudget(trials=64)).sound


def test_pair_scan_tests_each_grouped_special_space_once(monkeypatch):
    # the dependency-scan benchmark's grouped instance at seed 0: four
    # special spaces of 32 planes in R^16.  One pair of each is decided by
    # its residuals; the 30 others in its chunk share its screen but take
    # its mask, and so do the other pairs of its members, untested, save the
    # few whose stacked bases are too close to singular for the margin
    from sgcert.pairscan import _PairScan

    seed = int(np.random.SeedSequence([0, 3]).generate_state(3)[1])
    arr = generate_grouped(k=2, delta=0.25, n=128, ambient=16, seed=seed)
    screened, decided = set(), set()
    tested, decide = _PairScan._tested, _PairScan._decide

    def screening(self, b, q, rows_b):
        screened.update((self.a, v) for v in b.tolist())
        return tested(self, b, q, rows_b)

    def deciding(self, b, q, coef, p, x):
        decided.update((self.a, v) for v in b[np.unique(p)].tolist())
        return decide(self, b, q, coef, p, x)

    monkeypatch.setattr(_PairScan, "_tested", screening)
    monkeypatch.setattr(_PairScan, "_decide", deciding)
    specials = find_special_spaces(arr, 2)
    assert [sp.size for sp in specials] == [32] * 4
    refused = set()
    for sp in specials:
        pairs = set(combinations(sp.member_indices, 2))
        finder = sp.member_indices[:2]
        assert finder in decided
        refused |= pairs & decided - {finder}
        first_row = {(finder[0], v) for v in sp.member_indices[1:]}
        assert pairs & screened == first_row | (pairs & decided)
    assert not decided - refused - {sp.member_indices[:2] for sp in specials}
    assert len(refused) <= 0.03 * 4 * 496
    for u, v in refused:
        stacked = np.vstack([arr.spaces[u].basis, arr.spaces[v].basis])
        assert np.linalg.svd(stacked, compute_uv=False)[-1] < 1e-2
    assert len(screened) == 128 * 127 // 2 - 4 * (496 - 31) + len(refused - {
        (sp.member_indices[0], v) for sp in specials for v in sp.member_indices})


def test_pair_floor_decides_the_grouped_pair_prepass(monkeypatch):
    # the same grouped instance: the principal-cosine floor proves at least
    # 97% of its 8,128 pairs disjoint, so they skip the Cholesky screen and
    # the SVD (every pair that does not goes through _set_stacks)
    import sgcert.arrangement

    seed = int(np.random.SeedSequence([0, 3]).generate_state(3)[1])
    arr = generate_grouped(k=2, delta=0.25, n=128, ambient=16, seed=seed)
    screened = []
    set_stacks = sgcert.arrangement._set_stacks

    def recording(a, sets, width):
        screened.append(len(sets))
        return set_stacks(a, sets, width)

    monkeypatch.setattr(sgcert.arrangement, "_set_stacks", recording)
    assert pairwise_zero_intersection(arr) == []
    assert sum(screened) <= 0.03 * 8128


def test_validate_system_ranks_each_distinct_set_once(monkeypatch):
    import sgcert.dependency

    decided = []
    inside = sgcert.dependency._inside

    def recording(a, sets, tol):
        decided.append(sets.copy())
        return inside(a, sets, tol)

    monkeypatch.setattr(sgcert.dependency, "_inside", recording)
    arr = generate_grouped(k=1, delta=0.5, n=10, seed=2)
    sys = build_sg_system(arr, 1)
    assert len(set(sys.sets)) < sys.w  # a 3-member special repeats its triple
    decided.clear()
    assert validate_system(arr, sys).ok
    assert any(len(sets) for sets in decided)
    for sets in decided:
        assert len({tuple(row) for row in sets.tolist()}) == len(sets)
    # a non-dependent triple listed twice is reported at both positions; a
    # 2-set listed twice is decided once
    arr = generate_random_planted(n=5, k=1, ambient=5, triple_count=0, seed=1)
    sys = TripleSystem(5, [(0, 1, 2), (2, 3, 4), (0, 1, 2), (3, 4), (1, 3), (4, 3)],
                       alpha=6, delta=0.0)
    decided.clear()
    violations = validate_system(arr, sys).violations
    assert violations[:3] == [f"set {j}: {s} is not a dependent triple"
                              for j, s in enumerate(sys.sets[:3])]
    assert violations[3:6] == [f"set {j}: spaces {s[0]} and {s[1]} are not equal"
                               for j, s in enumerate(sys.sets[3:], 3)]
    assert sorted(len(sets) for sets in decided if sets.shape[1] == 2) == [2]
    for sets in decided:
        assert len({tuple(row) for row in sets.tolist()}) == len(sets)


def test_build_sg_system_builds_each_family_once(monkeypatch):
    import sgcert.dependency

    sizes = []

    family = sgcert.dependency._triple_family

    def counting(r):
        sizes.append(r)
        return family(r)

    monkeypatch.setattr(sgcert.dependency, "_triple_family", counting)
    arr = generate_grouped(k=1, delta=0.25, n=18, seed=4)
    sys = build_sg_system(arr, 1)
    assert sorted(sizes) == [4, 5]
    assert sys.w == 2 * 20 + 2 * 12


def test_pair_scans_stream_pairs_in_bounded_memory():
    # 179,700 pairs: an index array of all of them alone is 2.9 MB
    rng = np.random.default_rng(0)
    arr = Arrangement(40, [Subspace(40, orthonormalize(rng.standard_normal((1, 40))))
                           for _ in range(600)])
    scans = {"pairwise_zero_intersection": pairwise_zero_intersection,
             "_special_and_dependent": lambda a: _special_and_dependent(a, DEFAULT_TOL)[1],
             "find_special_spaces": lambda a: find_special_spaces(a, 1)}
    for name, scan in scans.items():
        tracemalloc.start()
        try:
            assert scan(arr) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, (name, peak)


def _equal_copy(v, rng):
    """The same space under another orthonormal basis."""
    if v.dim == 0:
        return v
    q = orthonormalize(rng.standard_normal((v.dim, v.dim)))
    return Subspace(v.ambient, q @ v.basis)


def _set_violations_oracle(arr, sets):
    """The per-set violations of validate_system, one set at a time."""
    out = []
    for j, s in enumerate(sets):
        if len(s) not in (2, 3) or len(set(s)) != len(s):
            out.append(f"set {j}: size must be 2 or 3 with distinct indices, got {s}")
        elif any(i < 0 or i >= arr.n for i in s):
            out.append(f"set {j}: index out of range in {s}")
        elif len(s) == 3:
            if not is_dependent_triple(*(arr.spaces[i] for i in s)):
                out.append(f"set {j}: {s} is not a dependent triple")
        else:
            a, b = (arr.spaces[i] for i in s)
            if not (a.dim == b.dim and a.contains(b)):
                out.append(f"set {j}: spaces {s[0]} and {s[1]} are not equal")
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7), data=st.data())
def test_validate_system_matches_per_set_oracle(seed, n, data):
    # mixed dimensions 0..3, one zero space, planted containments, and two
    # spaces repeated under another basis (so some 2-sets are equal spaces)
    rng = np.random.default_rng(seed)
    arr = _mixed_planted(seed, n, 6)
    copies = [_equal_copy(arr.spaces[i], rng) for i in rng.choice(n, size=2, replace=False)]
    arr = Arrangement(6, arr.spaces + copies)
    live = range(arr.n)
    triples = list(combinations(live, 3))
    dependent = [t for t in triples if is_dependent_triple(*(arr.spaces[i] for i in t))]
    index = st.integers(-1, arr.n)  # -1 and n are out of range
    one_set = st.one_of(
        st.sampled_from(dependent or triples), st.sampled_from(triples),
        st.sampled_from(list(combinations(live, 2))),
        st.sampled_from([(i, arr.n - 2 + c) for c in range(2) for i in live
                         if i < arr.n - 2]),           # pairs holding a copy
        st.tuples(index, index), st.tuples(index, index, index),  # duplicates, range
        st.tuples(index), st.tuples(index, index, index, index),   # wrong sizes
    )
    sets = data.draw(st.lists(one_set, max_size=40))
    sys = TripleSystem(arr.n, sets, alpha=6, delta=0.0)
    want = _set_violations_oracle(arr, sys.sets)
    got = validate_system(arr, sys).violations
    assert got[:len(want)] == want
    assert not any(v.startswith("set ") for v in got[len(want):])


def _validate_oracle(arr, sys):
    """validate_system one set at a time: per-set checks, a Counter of pairs."""
    n = arr.n
    out = _set_violations_oracle(arr, sys.sets)
    counted = [s for s in sys.sets if all(0 <= i < n for i in s)]
    deg = [0] * n
    for s in counted:
        for i in s:
            deg[i] += 1
    delta = Fraction(sys.delta).limit_denominator(10**9)
    out += [f"index {i} lies in {deg[i]} sets, fewer than delta*n = {float(delta * n):g}"
            for i in range(n) if Fraction(deg[i]) < delta * n]
    pairs = Counter(p for s in counted for p in combinations(sorted(s), 2))
    out += [f"pair ({a},{b}) appears in {c} sets, more than alpha = {sys.alpha}"
            for (a, b), c in pairs.items() if c > sys.alpha]
    w = len(sys.sets)
    if Fraction(3 * w) < delta * n * n:
        out.append(f"count bound failed: w = {w} < delta*n^2/3 = {float(delta * n * n / 3):g}")
    if Fraction(2 * w) > Fraction(sys.alpha) * n * n:
        out.append(f"count bound failed: w = {w} > alpha*n^2/2 = {sys.alpha * n * n / 2:g}")
    if 2 * delta > 3 * sys.alpha:
        out.append(f"delta/alpha = {float(delta) / sys.alpha:g} exceeds 3/2")
    return out


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7), alpha=st.integers(1, 4),
       delta=st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5]), data=st.data())
def test_validate_system_matches_per_set_reference(seed, n, alpha, delta, data):
    # malformed systems: wrong sizes, repeated and out-of-range indices,
    # sets repeated past alpha, degrees below delta n; every message and
    # its place in the report must match the per-set reference
    arr = _mixed_planted(seed, n, 6)
    index = st.integers(-1, n)  # -1 and n are out of range
    one_set = st.one_of(
        st.sampled_from(list(combinations(range(n), 3))),
        st.sampled_from(list(combinations(range(n), 2))),
        st.tuples(index, index), st.tuples(index, index, index),
        st.lists(index, max_size=5).map(tuple),
    )
    sets = data.draw(st.lists(one_set, max_size=30))
    repeats = data.draw(st.lists(st.integers(0, max(len(sets) - 1, 0)), max_size=12))
    sets += [sets[j] for j in repeats if sets]
    sys = TripleSystem(n, sets, alpha=alpha, delta=delta)
    assert validate_system(arr, sys).violations == _validate_oracle(arr, sys)


def test_triple_family_r3():
    fam = build_triple_family(3)
    assert len(fam) == 6
    assert all(t == (0, 1, 2) for t in fam)


@pytest.mark.parametrize("r", [4, 10])
def test_triple_family_examples(r):
    fam = build_triple_family(r)
    assert len(fam) == r * r - r
    counts = [sum(1 for t in fam if e in t) for e in range(r)]
    assert counts == [3 * (r - 1)] * r


def test_triple_family_table_is_idempotent_quasigroup():
    # the counting guarantees rest on the table being a Latin square with
    # identity diagonal; check the structure directly
    from sgcert.dependency import _idempotent_quasigroup

    for r in range(3, 61):
        table = _idempotent_quasigroup(r)
        full = set(range(r))
        for a in range(r):
            assert table[a][a] == a
            assert set(table[a]) == full
            assert {table[b][a] for b in range(r)} == full


def test_triple_family_full_range():
    for r in range(3, 51):
        fam = build_triple_family(r)
        assert len(fam) == r * r - r
        total = sum(len(t) for t in fam)
        assert total == 3 * len(fam)
    with pytest.raises(PreconditionError):
        build_triple_family(2)


def test_build_sg_system_single_group():
    arr = generate_grouped(k=1, delta=1.0, n=4, seed=5)
    sys = build_sg_system(arr, 1)
    assert sys.w == 12
    assert sys.alpha == 6
    assert sys.degrees() == [9, 9, 9, 9]
    assert sys.delta == pytest.approx(9 / 4)
    assert validate_system(arr, sys).ok


def test_build_sg_system_grid_rejected():
    with pytest.raises(PreconditionError):
        build_sg_system(generate_grid(4), 2)


def test_build_sg_system_no_dependencies():
    arr = generate_random_planted(n=6, k=1, ambient=6, triple_count=0, seed=8)
    sys = build_sg_system(arr, 1)
    assert sys.w == 0 and sys.delta == 0.0
    assert validate_system(arr, sys).ok


def test_validate_system_flags_false_triple():
    arr = generate_random_planted(n=5, k=1, ambient=5, triple_count=0, seed=1)
    sys = TripleSystem(5, [(0, 1, 2)], alpha=6, delta=0.0)
    report = validate_system(arr, sys)
    assert any("not a dependent triple" in v for v in report.violations)


def test_validate_system_reports_out_of_range_index():
    # out-of-range sets are reported, not counted: index 3 keeps degree 0
    arr = coplanar_lines(4, seed=2)
    for bad in [(0, 1, 9), (0, 1, -1)]:
        sys = TripleSystem(4, [(0, 1, 2), bad], alpha=6, delta=0.25)
        report = validate_system(arr, sys)
        assert any("index out of range" in v for v in report.violations)
        assert any(v.startswith("index 3 lies in 0 sets") for v in report.violations)


def test_validate_system_flags_low_degree():
    arr = coplanar_lines(4, seed=2)
    sys = TripleSystem(4, [(0, 1, 2)], alpha=6, delta=0.25)
    report = validate_system(arr, sys)
    assert any(v.startswith("index 3") for v in report.violations)


def test_validate_build_on_planted_instances():
    # seeded planted arrangements always yield a clean (6, 3delta)-style system
    for seed in range(100):
        n = 6 + (seed % 3) * 3
        k = 1 + seed % 2
        arr = generate_random_planted(n=n, k=k, ambient=4 * k + n // 2,
                                      triple_count=n // 3, seed=seed)
        sys = build_sg_system(arr, k)
        assert validate_system(arr, sys).ok
        assert sys.alpha == 6


def test_grouped_within_group_triples_all_dependent():
    arr = generate_grouped(k=2, delta=0.5, n=8, seed=12)
    for group in (range(0, 4), range(4, 8)):
        for i, j, l in combinations(group, 3):
            assert is_dependent_triple(arr.spaces[i], arr.spaces[j], arr.spaces[l])


def test_prune_fixed_point():
    arr = coplanar_lines(3, seed=3)
    sys = TripleSystem(3, [(0, 1, 2)] * 6, alpha=6, delta=2.0)
    sub_arr, sub_sys, idx = prune_low_degree(arr, sys, Fraction(2, 3))
    assert idx == [0, 1, 2]
    assert sub_sys.w == sys.w


def test_prune_removes_isolated_space():
    arr = coplanar_lines(4, seed=4)
    sys = TripleSystem(4, [(0, 1, 2)] * 8, alpha=8, delta=0.0)
    sub_arr, sub_sys, idx = prune_low_degree(arr, sys, Fraction(1, 2))
    assert idx == [0, 1, 2]
    assert sub_sys.w == 8
    assert validate_system(sub_arr, sub_sys).ok


def test_prune_cascade_terminates():
    arr = coplanar_lines(6, seed=5)
    sets = [(0, 1, 2)] * 16 + [(3, 4, 5)] + [(2, 3, 4)]
    sys = TripleSystem(6, sets, alpha=16, delta=0.0)
    sub_arr, sub_sys, idx = prune_low_degree(arr, sys, Fraction(1, 2))
    assert idx == [0, 1, 2]
    assert sub_sys.w == 16
    # at least delta*n/(2*alpha) spaces survive
    assert len(idx) >= Fraction(1, 2) * 6 / (2 * 16)


def prune_low_degree_per_set(arr, sys, delta, tol=DEFAULT_TOL):
    """prune_low_degree by a nested loop over the sets, one round at a time."""
    delta = as_fraction(delta)
    n = arr.n
    if Fraction(sys.w) < delta * n * n:
        raise PreconditionError(
            f"pruning needs w >= delta*n^2 = {float(delta * n * n):g}, got {sys.w}")
    threshold = delta * n / 2
    alive_sets = list(range(sys.w))
    alive = [True] * n
    while True:
        deg = [0] * n
        for j in alive_sets:
            for i in sys.sets[j]:
                deg[i] += 1
        doomed = [i for i in range(n) if alive[i] and Fraction(deg[i]) < threshold]
        if not doomed:
            break
        for i in doomed:
            alive[i] = False
        alive_sets = [j for j in alive_sets if not set(doomed).intersection(sys.sets[j])]
    index_map = [i for i in range(n) if alive[i]]
    if Fraction(len(index_map)) * 2 * sys.alpha < delta * n:
        raise InconsistentSystemError(
            "pruning kept fewer spaces than delta*n/(2*alpha); input system was inconsistent")
    renum = {old: new for new, old in enumerate(index_map)}
    sub_arr = Arrangement(arr.ambient, [arr.spaces[i] for i in index_map],
                          field_tag=arr.field_tag)
    sub_sys = TripleSystem(len(index_map), [tuple(renum[i] for i in sys.sets[j])
                                            for j in alive_sets],
                           alpha=sys.alpha, delta=float(delta / 2))
    report = validate_system(sub_arr, sub_sys, tol)
    if not report.ok:
        raise InconsistentSystemError(
            "pruned system failed re-validation: " + "; ".join(report.violations[:3]))
    return sub_arr, sub_sys, index_map


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 9), alpha=st.integers(1, 12),
       scale=st.fractions(0, Fraction(5, 4), max_denominator=8), data=st.data())
def test_prune_matches_per_set_reference(n, alpha, scale, data):
    # coplanar lines, so every 3-set is a dependent triple: random multisets
    # of 3-sets in any order, most inside a core of the spaces and a few
    # reaching out of it, and delta up to 5/4 of w / n^2, so that pruning
    # cascades, stops, or is refused
    arr = coplanar_lines(n, seed=n)
    core = data.draw(st.integers(3, n))

    def triples(m, most):
        return st.lists(st.permutations(range(m)).map(lambda p: tuple(p[:3])), max_size=most)

    sets = data.draw(triples(core, 40)) + data.draw(triples(n, 3))
    sets = data.draw(st.permutations(sets))
    sys = TripleSystem(n, sets, alpha=alpha, delta=0.0)
    delta = scale * len(sets) / (n * n)
    try:
        want = prune_low_degree_per_set(arr, sys, delta)
    except (PreconditionError, InconsistentSystemError) as exc:
        with pytest.raises(type(exc)) as got:
            prune_low_degree(arr, sys, delta)
        assert str(got.value) == str(exc)
    else:
        sub_arr, sub_sys, index_map = prune_low_degree(arr, sys, delta)
        assert index_map == want[2]
        assert sub_sys == want[1]
        assert sub_arr.spaces == want[0].spaces


def test_prune_precondition():
    arr = coplanar_lines(3, seed=6)
    sys = TripleSystem(3, [(0, 1, 2)], alpha=6, delta=1.0)
    with pytest.raises(PreconditionError):
        prune_low_degree(arr, sys, 1.0)


def test_map_and_clean_identity():
    arr = coplanar_lines(3, ambient=3, seed=7)
    sys = TripleSystem(3, [(0, 1, 2)] * 3, alpha=3, delta=1.0)
    new_arr, new_sys, delta_p = map_and_clean(arr, sys, np.eye(3))
    assert new_arr.n == 3 and new_sys.w == 3
    assert delta_p == pytest.approx(1.0)


def test_map_and_clean_kills_one_triple_member():
    e = np.eye(3)
    v1, v2 = Subspace(3, e[[0]]), Subspace(3, e[[1]])
    v3 = Subspace.from_spanning([1.0, 1.0, 0.0], 3)
    arr = Arrangement(3, [v1, v2, v3])
    sys = TripleSystem(3, [(0, 1, 2)], alpha=1, delta=1 / 3)
    p = np.eye(3) - projector(v3.basis)
    new_arr, new_sys, delta_p = map_and_clean(arr, sys, p)
    assert new_arr.n == 2
    assert new_sys.sets == [(0, 1)]
    assert delta_p == pytest.approx(0.5)
    # the two survivors became the same line
    assert rank(np.vstack([new_arr.spaces[0].basis, new_arr.spaces[1].basis])) == 1


def test_map_and_clean_preserves_delta_n():
    # delta' * n' stays exactly delta * n across a killing map
    rng = np.random.default_rng(9)
    arr = generate_grouped(k=1, delta=0.5, n=8, seed=9)
    sys = build_sg_system(arr, 1)
    z = arr.spaces[0].basis
    p = np.eye(arr.ambient) - projector(z)
    new_arr, new_sys, delta_p = map_and_clean(arr, sys, p)
    lhs = Fraction(new_sys.delta).limit_denominator(10**9) * new_arr.n
    rhs = Fraction(sys.delta).limit_denominator(10**9) * arr.n
    assert lhs == rhs


def test_map_and_clean_rejects_double_kill():
    e = np.eye(4)
    v1 = Subspace(4, e[[0]])
    v2 = Subspace(4, e[[1]])
    v3 = Subspace.from_spanning([1.0, 1.0, 0.0, 0.0], 4)
    # a genuine triple, then a map whose kernel contains v1 and v2 but not v3:
    # numerically impossible for a consistent triple, so fake the system
    far = Subspace(4, e[[2]])
    arr = Arrangement(4, [v1, v2, far])
    sys = TripleSystem(3, [(0, 1, 2)], alpha=1, delta=0.0)
    p = np.zeros((4, 4))
    p[2, 2] = 1.0
    with pytest.raises(InconsistentSystemError):
        map_and_clean(arr, sys, p)


@pytest.mark.parametrize("sets, message", [
    ([(3, 4), (0, 1, 2)], "set 0: one of two equal spaces was killed but not the other"),
    ([(0, 1, 2), (3, 4)], "set 0: two members of a dependent triple were killed"),
    ([(0, 3), (0, 1, 4)], "set 1: two members of a dependent triple were killed"),
])
def test_map_and_clean_reports_the_first_broken_set(sets, message):
    # faked systems: the map keeps e2 and e4 only, so (0, 1, 2) and (0, 1, 4)
    # keep one member and (3, 4) one of its two; (0, 3) loses both
    arr = Arrangement(5, [Subspace(5, row[None]) for row in np.eye(5)])
    p = np.diag([0.0, 0.0, 1.0, 0.0, 1.0])
    with pytest.raises(InconsistentSystemError, match=re.escape(message)):
        map_and_clean(arr, TripleSystem(5, sets, alpha=1, delta=0.0), p)


def per_space_map_and_clean(arr, sys, p, tol=DEFAULT_TOL):
    """The images and sets of map_and_clean, one SVD per space and one set at a time."""
    images, phi = [], {}
    for i, v in enumerate(arr.spaces):
        if v.dim:
            _, s, vt = np.linalg.svd(v.basis @ p.T, full_matrices=False)
            r = int(np.count_nonzero(s >= tol.rank_tol * max(float(s[0]), 1.0)))
            if r:
                phi[i] = len(images)
                images.append(vt[:r].copy())
    sets = [tuple(sorted(phi[i] for i in s if i in phi)) for s in sys.sets]
    return images, [s for s in sets if len(s) >= 2]


def lines_and_planes(seed):
    """Grouped lines in R^4 and grouped planes in R^8, side by side in R^12, interleaved."""
    small = generate_grouped(k=1, delta=0.5, n=8, seed=seed)
    large = generate_grouped(k=2, delta=0.5, n=8, seed=seed + 1)
    spaces = []
    for a, b in zip(small.spaces, large.spaces):
        spaces.append(Subspace(12, np.hstack([a.basis, np.zeros((1, 8))])))
        spaces.append(Subspace(12, np.hstack([np.zeros((2, 4)), b.basis])))
    return Arrangement(12, spaces)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_map_and_clean_matches_per_space_loop(seed):
    # the map kills a line and a plane: sets through either lose one member
    # and sets of the other spaces of their blocks keep all three
    arr = lines_and_planes(seed)
    sys = build_sg_system(arr, arr.max_dim())
    p = np.eye(12) - projector(np.vstack([arr.spaces[0].basis, arr.spaces[3].basis]))
    new_arr, new_sys, _ = map_and_clean(arr, sys, p)
    images, sets = per_space_map_and_clean(arr, sys, p)
    assert new_arr.n == len(images) == arr.n - 2
    assert sorted(set(new_arr.dims())) == [1, 2]
    assert all(v.basis.tobytes() == image.tobytes() and v.basis.shape == image.shape
               for v, image in zip(new_arr.spaces, images))
    assert new_sys.sets == sets
    assert any(len(s) == 2 for s in sets) and any(len(s) == 3 for s in sets)


def test_system_roundtrip(tmp_path):
    arr = generate_grouped(k=1, delta=1.0, n=4, seed=10)
    sys = build_sg_system(arr, 1)
    path = tmp_path / "s.sys"
    write_system(path, sys)
    back = read_system(path)
    assert back.n == sys.n and back.alpha == sys.alpha
    assert back.delta == sys.delta
    assert back.sets == sys.sets


def test_system_holds_one_index_array():
    # malformed sets (sizes 0, 1 and 4, repeats, out of range) are held as
    # given, each set's indices ascending; the arrays are stored, not rebuilt
    sets = [(2, 0, 1), (5,), (), (3, 1, 3, 0), (4, -1), (1, 0)]
    sys = TripleSystem(5, sets, alpha=6, delta=0.5)
    assert sys.sets == [tuple(sorted(s)) for s in sets]
    assert sys.w == 6
    flat, sizes = sys._flat()
    assert flat.tolist() == [0, 1, 2, 5, 0, 1, 3, 3, -1, 4, 0, 1]
    assert sizes.tolist() == [3, 1, 0, 4, 2, 2]
    assert sys._flat()[0] is flat and sys._flat()[1] is sizes
    with pytest.raises(AttributeError):
        sys.sets = []
    sys.delta = 0.25
    assert sys.delta == 0.25
    assert TripleSystem(4, [(3, 1, 2), (0, 3, 1)], alpha=6, delta=0.0).degrees() == [1, 2, 1, 2]


def test_systems_compare_by_value():
    sys = TripleSystem(4, [(2, 0, 1), (3, 1)], alpha=6, delta=0.5)
    assert sys == TripleSystem(4, [(0, 1, 2), (1, 3)], alpha=6, delta=0.5)
    assert sys != TripleSystem(4, [(1, 3), (0, 1, 2)], alpha=6, delta=0.5)
    assert sys != TripleSystem(4, [(0, 1, 2), (1, 3)], alpha=6, delta=0.25)
    assert sys != TripleSystem(4, [(0, 1, 2, 3)], alpha=6, delta=0.5)
    assert repr(sys) == "TripleSystem(n=4, sets=[(0, 1, 2), (1, 3)], alpha=6, delta=0.5)"


def _off_span(rng, pair, dim, ambient, offset):
    """``dim`` orthonormal rows inside the span of the orthonormal rows ``pair``
    but for a component of norm about ``offset`` per row off it."""
    rows = rng.standard_normal((dim, pair.shape[0])) @ pair
    normal = rng.standard_normal((dim, ambient))
    normal -= normal @ pair.T @ pair
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return orthonormalize(rows + offset * normal)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8), ambient=st.integers(5, 8))
def test_triple_check_agrees_with_the_svd(seed, n, ambient):
    # spaces of dimension 0..3 (a zero space among them); some are redrawn
    # 0.1 rank_tol, 0.5 residual_tol or 2 residual_tol off the span of two
    # earlier ones, or through a row of one of them (an intersecting pair).
    # Every 3-set and 2-set must get the answer of Subspace.contains against
    # the span that Subspace.from_spanning (an SVD) gives.
    import sgcert.dependency

    rng = np.random.default_rng(seed)
    tol = DEFAULT_TOL
    dims = [int(d) for d in rng.integers(0, 4, size=n)]
    dims[int(rng.integers(n))] = 0
    bases = [orthonormalize(rng.standard_normal((d, ambient))) for d in dims]
    for c in range(2, n):
        a, b = (int(i) for i in rng.choice(c, size=2, replace=False))
        pair = orthonormalize(np.vstack([bases[a], bases[b]]))
        kind = int(rng.integers(5))
        if kind < 3 and 0 < pair.shape[0] < ambient:
            offset = (0.1 * tol.rank_tol, 0.5 * tol.residual_tol, 2 * tol.residual_tol)[kind]
            bases[c] = _off_span(rng, pair, min(dims[c], pair.shape[0]) or 1, ambient, offset)
        elif kind == 3 and bases[a].shape[0] and dims[c] >= 2:
            rows = np.vstack([bases[a][:1], rng.standard_normal((dims[c] - 1, ambient))])
            bases[c] = orthonormalize(rows)
    arr = Arrangement(ambient, [Subspace(ambient, q) for q in bases])
    threes = np.array(list(combinations(range(n), 3)))
    twos = np.array(list(combinations(range(n), 2)))
    dependent, equal = sgcert.dependency._semantics_hold(arr, threes, twos, tol)

    def spans(members, member):
        rows = np.vstack([arr.spaces[i].basis for i in members])
        return Subspace.from_spanning(rows, ambient, tol).contains(arr.spaces[member], tol)

    assert dependent.tolist() == [spans((i, j), k) or spans((i, k), j) or spans((j, k), i)
                                  for i, j, k in threes.tolist()]
    assert equal.tolist() == [arr.spaces[i].dim == arr.spaces[j].dim and spans((i,), j)
                              for i, j in twos.tolist()]


def test_triple_check_certifies_the_grouped_benchmark_system(monkeypatch):
    # the dependency-scan benchmark's grouped instance at seed 0 (k = 2,
    # n = 128 in R^16): every distinct triple is decided without an SVD
    seed = int(np.random.SeedSequence([0, 3]).generate_state(3)[1])
    arr = generate_grouped(k=2, delta=0.25, n=128, ambient=16, seed=seed)
    sys = build_sg_system(arr, 2)
    triples = np.unique(sys._flat()[0].reshape(-1, 3), axis=0)
    assert len(triples) == 2108

    def no_svd(*args, **kwargs):
        pytest.fail("validate_system took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert validate_system(arr, sys).ok
