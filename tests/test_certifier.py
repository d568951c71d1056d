from fractions import Fraction
from itertools import combinations
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import (
    boundary_cluster_instance,
    duplicate_line_instance,
    far_clusters_instance,
    mercedes_lines,
    plane_and_lines,
)
from sgcert.arrangement import (
    Arrangement,
    Subspace,
    complex_to_real,
    generate_complex_planted,
    generate_grouped,
    generate_random_planted,
    principal_cosine,
    tau_separated,
)
from sgcert import certifier
from sgcert.certifier import (
    CertifyBudget,
    _collapse_from_scaled,
    certify,
    decompose_step,
    separated_certificate,
    verify_certificate,
)
from sgcert.dependency import (
    TripleSystem,
    build_sg_system,
    build_triple_family,
    validate_system,
)
from sgcert.errors import (
    BudgetExceededError,
    MembershipError,
    PreconditionError,
)
from sgcert.linalg import DEFAULT_TOL, orthonormalize, rank, spectral_norm
from sgcert.scaling import _SampleStream, sample_admissible


def line(ambient, direction):
    v = np.asarray(direction, dtype=float)
    full = np.zeros(ambient)
    full[: v.size] = v
    return Subspace.from_spanning(full, ambient)


# ---------------------------------------------------------------------------
# coefficient expansions and separation witnesses, as separated_certificate
# makes them: a line's row of D is e_u minus u's coefficients over the
# other two lines of its set


def one_set_certificate(directions, tau):
    """The separated certificate of lines in R^2 forming the one 3-set (0, 1, 2)."""
    arr = Arrangement(2, [line(2, d) for d in directions])
    sys = TripleSystem(3, [(0, 1, 2)], alpha=1, delta=0.3)  # ceil(delta n) = 1
    return separated_certificate(arr, sys, tau=tau)


def off_diagonal_mass(d_mat):
    return (d_mat**2).sum(axis=1) - np.diag(d_mat) ** 2


def test_coefficient_expand_orthogonal():
    # u = 0.6 e0 + 0.8 e1 over the orthogonal lines e0 and e1
    cert = one_set_certificate([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]], tau=0.15)
    d_mat = cert.evidence[0].D
    assert np.allclose(np.abs(d_mat[0]), [1.0, 0.6, 0.8])
    assert off_diagonal_mass(d_mat)[0] == pytest.approx(1.0)


def test_coefficient_expand_sixty_degrees():
    # unit bisector of two lines at 60 degrees: coefficients 1/sqrt(3) each
    # (solving the 2x2 system by hand gives lam = mu = 1/sqrt(3)); the lines
    # themselves expand with mass 4 over the bisector and the other line
    t = np.deg2rad([30.0, 0.0, 60.0])
    cert = one_set_certificate(np.column_stack([np.cos(t), np.sin(t)]), tau=0.1)
    mass = off_diagonal_mass(cert.evidence[0].D)
    assert mass[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mass[1:] == pytest.approx([4.0, 4.0], abs=1e-9)
    assert mass.max() <= 1.0 / 0.1


def test_coefficient_expand_boundary_mass():
    # at inner product exactly -(1 - tau) the 1/tau bound is tight: lines at
    # 0, 60 and 120 degrees each expand with coefficients of magnitude 1
    t = np.deg2rad([60.0, 0.0, 120.0])
    cert = one_set_certificate(np.column_stack([np.cos(t), np.sin(t)]), tau=0.5)
    assert off_diagonal_mass(cert.evidence[0].D) == pytest.approx([2.0] * 3, rel=1e-9)


def test_coefficient_expand_membership_error():
    arr = Arrangement(3, [line(3, [1.0]), line(3, [0.0, 1.0]), line(3, [0.0, 0.0, 1.0])])
    sys = TripleSystem(3, [(0, 1, 2)], alpha=1, delta=0.3)
    with pytest.raises(MembershipError, match=r"^set 0: space 0 lies outside the sum"):
        separated_certificate(arr, sys, tau=0.5)


def test_coefficient_expand_requires_separation():
    with pytest.raises(PreconditionError, match=r"^set 0: spaces 0 and 1 are not 0.5-separated"):
        one_set_certificate([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], tau=0.5)


def test_separation_witness_equal_spaces():
    v = Subspace(4, np.eye(4)[[0, 1]])
    assert principal_cosine(v, v) == pytest.approx(1.0)
    assert not tau_separated(v, v, 1e-6)


def test_separation_witness_orthogonal_none():
    v = Subspace(4, np.eye(4)[[0]])
    w = Subspace(4, np.eye(4)[[1, 2]])
    assert principal_cosine(v, w) == 0.0
    assert tau_separated(v, w, 1.0)


def test_separation_witness_principal_angles():
    # plane vs a line 10 degrees off its first axis: the smallest principal
    # angle is 10 degrees, so the pair is tau-separated just up to 1 - cos 10
    v = Subspace(3, np.eye(3)[[0, 1]])
    t = np.deg2rad(10.0)
    w = line(3, [np.cos(t), 0.0, np.sin(t)])
    assert principal_cosine(v, w) == pytest.approx(np.cos(t), abs=1e-12)
    assert tau_separated(v, w, 1.0 - np.cos(t) - 1e-9)
    assert not tau_separated(v, w, 1.0 - np.cos(t) + 1e-9)


# ---------------------------------------------------------------------------
# separated certificate


def quad_lines_instance():
    """Four coplanar lines at 45-degree spacing: pairwise 0.25-separated."""
    spaces = [line(2, [np.cos(t), np.sin(t)])
              for t in np.deg2rad([0.0, 45.0, 90.0, 135.0])]
    arr = Arrangement(2, spaces)
    sets = [tuple(t) for t in build_triple_family(4)]
    sys = TripleSystem(4, sets, alpha=6, delta=9 / 4)
    return arr, sys


def test_separated_certificate_quad_lines():
    arr, sys = quad_lines_instance()
    cert = separated_certificate(arr, sys, tau=0.25)
    assert cert.kind == "bound"
    assert cert.params["measured"] == 2
    assert cert.d_bound == 10  # floor(6 * 1 / (0.25 * 2.25))
    dm = cert.evidence[0]
    assert np.abs(np.diag(dm.D) - 9).max() < 1e-9  # ceil(delta n) = 9
    scale = spectral_norm(dm.D) * spectral_norm(dm.A)
    assert spectral_norm(dm.D @ dm.A) <= 1e-6 * scale
    # the rank bound of a constant-diagonal matrix holds: rank(D) >= m - K/L^2,
    # with L = 9 its diagonal and K its off-diagonal squared mass (here the
    # bound is 4 - 324/81 = 0, so the annihilator's rank is not forced up)
    m = len(dm.D)
    k_val = np.sum(dm.D**2) - m * 9.0**2
    assert m - k_val / 9.0**2 <= np.linalg.matrix_rank(dm.D)


def test_separated_certificate_two_set_mass():
    # a 2-set of equal spaces contributes coefficient mass exactly 1
    v = line(3, [1.0, 0.0, 0.0])
    arr = Arrangement(3, [v, Subspace(3, v.basis.copy())])
    sys = TripleSystem(2, [(0, 1)], alpha=1, delta=0.5)
    cert = separated_certificate(arr, sys, tau=0.5)
    dm = cert.evidence[0]
    off = dm.D - np.diag(np.diag(dm.D))
    assert np.allclose(np.abs(off).max(axis=1), 1.0)
    assert cert.params["measured"] == 1


@pytest.mark.parametrize("tau", [0.0, float("nan"), -1.0, 2.0])
def test_separated_certificate_rejects_tau_outside_unit_interval(tau):
    # a system of 2-sets never reaches tau_separated, which checks tau too
    v = line(3, [1.0, 0.0, 0.0])
    arr = Arrangement(3, [v, Subspace(3, v.basis.copy())])
    sys = TripleSystem(2, [(0, 1)], alpha=1, delta=0.5)
    with pytest.raises(PreconditionError, match=r"tau must be in \(0, 1\]"):
        separated_certificate(arr, sys, tau=tau)


def test_separated_certificate_rejects_close_pair():
    spaces = [line(2, [np.cos(t), np.sin(t)]) for t in np.deg2rad([0, 30, 60])]
    arr = Arrangement(2, spaces)
    sys = TripleSystem(3, [tuple(t) for t in build_triple_family(3)],
                       alpha=6, delta=2.0)
    with pytest.raises(PreconditionError, match="separated"):
        separated_certificate(arr, sys, tau=0.5)


def test_separated_certificate_boundary_sixty_degrees():
    spaces = mercedes_lines(2, 0, 1)
    arr = Arrangement(2, spaces)
    sys = TripleSystem(3, [tuple(t) for t in build_triple_family(3)],
                       alpha=6, delta=2.0)
    cert = separated_certificate(arr, sys, tau=0.5)
    assert cert.params["measured"] == 2
    assert cert.d_bound == 6  # floor(6 * 1 / (0.5 * 2))


def mixed_planes_instance():
    """Planes in R^6: a separated dependent triple and a duplicated plane.

    Spaces 0 and 1 are orthogonal, space 2 lies in their sum at 45 degrees
    to both, and space 3 is space 0 under another basis; every space's
    first two sets mix a 3-set with a 2-set or another 3-set.
    """
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    spaces = [Subspace(6, q[:2]), Subspace(6, q[2:4]),
              Subspace.from_spanning(q[:2] + q[2:4], 6),
              Subspace(6, np.linalg.qr(rng.standard_normal((2, 2)))[0] @ q[:2])]
    sets = [(1, 2, 3), (0, 3), (0, 1, 2), (0, 3), (1, 2, 3), (0, 1, 2)]
    return Arrangement(6, spaces), TripleSystem(4, sets, alpha=6, delta=0.5)


def annihilator_by_rows(arr, sys):
    """D one basis row u at a time: e_u minus u's expansion over each set's others."""
    dims = arr.dims()
    starts = np.cumsum(dims) - dims
    need = ceil(Fraction(sys.delta).limit_denominator(10**9) * sys.n)
    rows = []
    for i, v in enumerate(arr.spaces):
        through = [s for s in sys.sets if i in s][:need]
        for r, u in enumerate(v.basis):
            row = np.zeros(sum(dims))
            for s in through:
                row[starts[i] + r] += 1.0
                others = [b for b in s if b != i]
                if len(others) == 2:
                    stacked = np.vstack([arr.spaces[b].basis for b in others])
                    coeff = np.linalg.lstsq(stacked.T, u, rcond=None)[0]
                    parts = np.split(coeff, [dims[others[0]]])
                else:
                    parts = (arr.spaces[others[0]].basis @ u,)
                for b, c in zip(others, parts):
                    row[starts[b]: starts[b] + dims[b]] -= c
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("make, tau", [(quad_lines_instance, 0.25),
                                       (mixed_planes_instance, 0.25)])
def test_separated_certificate_blocks_match_row_expansions(make, tau):
    arr, sys = make()
    assert validate_system(arr, sys).ok
    d_mat = separated_certificate(arr, sys, tau=tau).evidence[0].D
    reference = annihilator_by_rows(arr, sys)
    assert d_mat.shape == reference.shape
    start = 0
    for v in arr.spaces:
        block = slice(start, start + v.dim)
        assert np.abs(d_mat[block] - reference[block]).max() <= 1e-12
        start += v.dim


def test_separated_certificate_rejects_unequal_two_set():
    v, w = line(3, [1.0, 0.0, 0.0]), line(3, [0.0, 1.0, 0.0])
    sys = TripleSystem(2, [(0, 1)], alpha=1, delta=0.5)
    with pytest.raises(MembershipError, match="set 0: space 0"):
        separated_certificate(Arrangement(3, [v, w]), sys, tau=0.5)


def test_collapse_filter_tests_each_pair_once(monkeypatch):
    arr, sys = boundary_cluster_instance()
    calls, phases = [], []
    real_separated, real_certificate = certifier.tau_separated, certifier.separated_certificate

    def counting(v, w, tau):
        calls.append((id(v), id(w)))
        return real_separated(v, w, tau)

    def inner(*args, **kwargs):
        phases.append(len(calls))
        return real_certificate(*args, **kwargs)

    monkeypatch.setattr(certifier, "tau_separated", counting)
    monkeypatch.setattr(certifier, "separated_certificate", inner)
    cert = _collapse_from_scaled(arr, sys, list(arr.spaces), beta=0.5,
                                 d=arr.dimension())
    assert sorted(cert.indices) == [0, 1, 2, 3, 4, 5]
    # the filter, then the inner certificate, each test a pair at most once
    (split,) = phases
    pairs = {p for s in sys.sets for p in combinations(s, 2)}
    assert 0 < split <= len(pairs)
    for phase in (calls[:split], calls[split:]):
        assert len(phase) == len(set(phase))


# ---------------------------------------------------------------------------
# decomposition dichotomy


def test_decompose_entry_branch():
    arr = generate_grouped(k=1, delta=0.25, n=16, seed=1)
    sys = build_sg_system(arr, 1)
    cert = decompose_step(arr, sys, beta=0.5, trials=64, seed=0)
    assert cert.kind == "bound"
    assert cert.params["branch"] == "entry"
    assert cert.params["measured"] == 8
    verify_certificate(cert, arr, sys, beta=0.5)


def test_decompose_harvest_branch():
    arr, sys = duplicate_line_instance(n_dup=60, groups=4, seed=2)
    cert = decompose_step(arr, sys, beta=0.8, trials=4096, seed=3,
                          entry_check=False)
    assert cert.kind == "collapse"
    assert cert.params["branch"] == "harvest"
    # witness: the duplicated line plus the sampled prefix
    assert len(cert.indices) >= 60
    assert cert.w_dim <= int(0.8 * arr.dimension())
    verify_certificate(cert, arr, sys, beta=0.8)


def test_decompose_harvest_witness_reverifies():
    arr, sys = duplicate_line_instance(n_dup=60, groups=4, seed=5)
    cert = decompose_step(arr, sys, beta=0.8, trials=4096, seed=7,
                          entry_check=False)
    # re-verify by hand: every z vector is nonzero and inside its space
    for row, i in zip(cert.z_vectors, cert.indices):
        basis = arr.spaces[i].basis
        assert np.linalg.norm(row) > 1e-8
        assert np.linalg.norm(row - (row @ basis.T) @ basis) < 1e-8
    assert rank(cert.z_vectors) <= int(0.8 * arr.dimension())


def test_decompose_far_clusters():
    # one cluster inside a single 2k-space: its members are picked far
    # below their share, and the witness vectors live in that 2k-space
    # plus the sampled prefix
    arr, sys = far_clusters_instance(cluster=60, groups=10, seed=41)
    cert = decompose_step(arr, sys, beta=0.8, trials=4096, seed=43,
                          entry_check=False)
    assert cert.kind == "collapse"
    assert cert.params["branch"] == "harvest"
    assert len(cert.indices) >= 60
    assert cert.w_dim <= int(0.8 * arr.dimension())
    verify_certificate(cert, arr, sys, beta=0.8)


def reference_harvest(arr, sys, beta, trials, seed):
    """The harvest witness from the first runs of the full-budget sample."""
    d, k = arr.dimension(), arr.max_dim()
    beta_f, delta = Fraction(beta), Fraction(sys.delta)
    t_pref = ceil(beta_f * d / (2 * k))
    q_needed = ceil(delta * arr.n / (20 * sys.alpha))
    for run in sample_admissible(arr, trials, seed).sets[:certifier._HARVEST_RETRIES]:
        if len(run) < t_pref:
            continue
        indices, vectors = certifier._harvest_from_run(arr, run, t_pref, DEFAULT_TOL)
        if len(indices) >= q_needed and rank(vectors) <= int(beta_f * d):
            return indices, vectors, rank(vectors)
    return None


def per_space_harvest(arr, run, t_pref, tol):
    """_harvest_from_run with one SVD per space."""
    span = orthonormalize(np.vstack([arr.spaces[i].basis for i in run[:t_pref]]), tol)
    proj = span.T @ span
    indices, vectors = [], []
    for i, v in enumerate(arr.spaces):
        if v.dim:
            u_left, svals, _ = np.linalg.svd(v.basis - v.basis @ proj, full_matrices=False)
            if svals[-1] <= tol.residual_tol:
                indices.append(i)
                vectors.append(u_left[:, -1] @ v.basis)
    return indices, np.array(vectors) if vectors else np.zeros((0, arr.ambient))


@pytest.mark.parametrize("make", [lambda: duplicate_line_instance(60, 4, seed=2)[0],
                                  lambda: far_clusters_instance(60, 10, seed=2)[0],
                                  lambda: generate_grouped(k=2, delta=0.25, n=16, seed=1),
                                  plane_and_lines],
                         ids=["duplicate-line", "far-clusters", "grouped-planes",
                              "plane-and-lines"])
def test_harvest_from_run_matches_per_space_loop(make):
    # one stacked SVD per space dimension gives the per-space answers bit for
    # bit, planes that meet the span in a line included
    arr = make()
    hits = 0
    for run in sample_admissible(arr, 3, seed=5).sets:
        for t_pref in range(1, len(run) + 1, 2):
            indices, vectors = certifier._harvest_from_run(arr, run, t_pref, DEFAULT_TOL)
            want_indices, want_vectors = per_space_harvest(arr, run, t_pref, DEFAULT_TOL)
            assert indices == want_indices
            assert vectors.tobytes() == want_vectors.tobytes()
            hits += len(indices)
    assert hits


def recording_extensions(monkeypatch):
    """Record the total of every sampler-stream extension."""
    totals = []
    extend = _SampleStream.extend

    def recording(self, total):
        totals.append(total)
        return extend(self, total)

    monkeypatch.setattr(_SampleStream, "extend", recording)
    return totals


@pytest.mark.parametrize("make, args", [(duplicate_line_instance, (60, 4)),
                                        (far_clusters_instance, (60, 10))])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_decompose_harvest_decided_on_a_prefix(make, args, seed, monkeypatch):
    # the 3-sigma test passes on the first 128 trials, and the witness is
    # the one the first runs of the full budget give
    arr, sys = make(*args, seed=seed)
    totals = recording_extensions(monkeypatch)
    cert = decompose_step(arr, sys, beta=0.8, trials=2048, seed=seed + 100,
                          entry_check=False)
    assert totals == [128]
    assert cert.params["branch"] == "harvest"
    assert cert.params["trials"] == 128
    indices, vectors, w_dim = reference_harvest(arr, sys, 0.8, 2048, seed + 100)
    assert cert.indices == indices
    assert cert.z_vectors.tobytes() == vectors.tobytes()
    assert cert.w_dim == w_dim


@pytest.mark.parametrize("trials, totals", [(64, [64]), (128, [128]),
                                            (300, [128, 256, 300]),
                                            (512, [128, 256, 512])])
def test_decompose_scale_branch_sees_the_full_budget(trials, totals, monkeypatch):
    # the harvest test never passes here, so the stream doubles up to the
    # budget and the hull is built from all of its runs
    arr = generate_grouped(k=1, delta=1 / 3, n=12, seed=11)
    sys = build_sg_system(arr, 1)
    seen = recording_extensions(monkeypatch)
    hulls = []
    hull_vector = certifier.admissible_hull_vector

    def recording_hull(sample):
        hulls.append(sample)
        return hull_vector(sample)

    monkeypatch.setattr(certifier, "admissible_hull_vector", recording_hull)
    decompose_step(arr, sys, beta=0.5, trials=trials, seed=1, entry_check=False)
    assert seen == totals
    (sample,) = hulls
    full = sample_admissible(arr, trials, seed=1)
    assert sample.trials == trials
    assert sample.sets == full.sets
    assert sample.p_hat.tobytes() == full.p_hat.tobytes()


def test_decompose_failed_harvest_jumps_to_the_budget(monkeypatch):
    # a witness that fails on the first runs fails at every count: it is
    # built once, and the stream goes straight to the budget
    arr, sys = duplicate_line_instance(n_dup=60, groups=4, seed=2)
    totals = recording_extensions(monkeypatch)
    built = []
    monkeypatch.setattr(certifier, "_harvest_certificate",
                        lambda *args: built.append(args))
    cert = decompose_step(arr, sys, beta=0.8, trials=1000, seed=3, entry_check=False)
    assert totals == [128, 1000]
    assert len(built) == 1
    assert cert.params["branch"] != "harvest"


def test_collapse_from_scaled_boundary_instance():
    # scale-collapse tail on an already-scaled configuration: the two
    # boundary planes survive the separation filter, the clustered planes
    # drop out, and the witness spans 4 of 12 dimensions
    arr, sys = boundary_cluster_instance()
    cert = _collapse_from_scaled(arr, sys, list(arr.spaces), beta=0.5,
                                 d=arr.dimension())
    assert cert.kind == "collapse"
    assert cert.params["branch"] == "scale-collapse"
    assert sorted(cert.indices) == [0, 1, 2, 3, 4, 5]
    assert cert.w_dim == 4
    verify_certificate(cert, arr, sys, beta=0.5)


def test_decompose_scale_branch_falls_back_to_entry():
    # grouped blocks after scaling never keep enough separated sets at
    # desk scale; with the entry check deferred, the step must still
    # terminate with the (valid) entry bound rather than fail
    arr = generate_grouped(k=1, delta=1 / 3, n=12, seed=11)
    sys = build_sg_system(arr, 1)
    cert = decompose_step(arr, sys, beta=0.5, trials=512, seed=1,
                          entry_check=False)
    assert cert.kind == "bound"
    assert cert.params["branch"] == "entry"
    verify_certificate(cert, arr, sys, beta=0.5)


@pytest.mark.parametrize("entry_check", [True, False])
def test_decompose_requires_positive_dimension(entry_check):
    # k = 0 would divide by zero in the pick floor
    arr = Arrangement(3, [Subspace(3, np.zeros((0, 3)))] * 3)
    sys = TripleSystem(3, [(0, 1, 2)], alpha=1, delta=1 / 3)
    with pytest.raises(PreconditionError, match="positive dimension"):
        decompose_step(arr, sys, beta=0.5, entry_check=entry_check)


def test_decompose_rejects_bad_beta():
    arr = generate_grouped(k=1, delta=1.0, n=4, seed=0)
    sys = build_sg_system(arr, 1)
    with pytest.raises(PreconditionError):
        decompose_step(arr, sys, beta=1.5)


# ---------------------------------------------------------------------------
# the full recursion


def test_certify_grouped_lower_bound():
    arr = generate_grouped(k=1, delta=0.25, n=16, seed=13)
    sys = build_sg_system(arr, 1)
    result = certify(arr, sys, budget=CertifyBudget(trials=64))
    assert result.measured == 8
    assert result.final_bound >= 8
    assert result.rounds[-1].branch == "entry"
    assert result.sound


def test_certify_measures_a_round_once(monkeypatch):
    # the round's dimension and the span rows come from one orthonormalize
    # of its stacked bases; the entry bound needs no other measurement
    arr = generate_grouped(k=1, delta=0.25, n=16, seed=13)
    sys = build_sg_system(arr, 1)
    stacked = []
    measure = certifier.orthonormalize

    def recording(m, tol=DEFAULT_TOL):
        stacked.append(np.array_equal(m, arr.stacked_basis()))
        return measure(m, tol)

    monkeypatch.setattr(certifier, "orthonormalize", recording)
    monkeypatch.setattr(Arrangement, "dimension", lambda *args: pytest.fail("re-measured"))
    result = certify(arr, sys, budget=CertifyBudget(trials=64))
    assert stacked == [True]
    assert result.measured == result.rounds[0].d == 8
    assert result.rounds[0].branch == "entry"


def test_certify_single_special_space():
    arr = generate_grouped(k=2, delta=1.0, n=5, seed=17)
    sys = build_sg_system(arr, 2)
    result = certify(arr, sys, budget=CertifyBudget(trials=64))
    assert result.measured == 4  # one 2k-dimensional space
    assert result.final_bound >= 4
    assert len(result.rounds) == 1


def test_certify_recursion_on_duplicates():
    arr, sys = duplicate_line_instance(n_dup=60, groups=4, seed=19)
    result = certify(arr, sys, beta=0.8, entry_check=False,
                     budget=CertifyBudget(trials=4096, seed=23))
    assert result.sound
    assert result.rounds[0].branch == "harvest"
    assert len(result.rounds) >= 2
    assert result.rounds[-1].loss == 0  # terminating round is a bound
    # delta_t * n_t conserved exactly across rounds
    base = (Fraction(result.rounds[0].delta).limit_denominator(10**9)
            * result.rounds[0].n)
    for rec in result.rounds[1:]:
        assert (Fraction(rec.delta).limit_denominator(10**9) * rec.n) == base
    # dimension loss accounting: measured d drops by the kernel size
    for a, b in zip(result.rounds[:-1], result.rounds[1:]):
        assert b.d >= a.d - a.loss


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), grouped=st.booleans(),
       size=st.integers(3, 8), recurse=st.booleans())
def test_certify_conserves_delta_n(seed, k, grouped, size, recurse):
    # delta_t n_t is kept in rational arithmetic, so every round carries the
    # input's value exactly, and the final bound covers the measured dimension
    if grouped:
        groups = 1 + seed % 4
        arr = generate_grouped(k=k, delta=1 / groups, n=3 * groups + size, seed=seed)
    else:  # every index inside one of ``size`` planted triples
        arr = generate_random_planted(n=3 * size, k=k, ambient=3 * k + 1 + seed % 4,
                                      triple_count=size, seed=seed)
    sys = build_sg_system(arr, k)
    kwargs = {"beta": 0.8, "entry_check": False} if recurse else {}
    result = certify(arr, sys, budget=CertifyBudget(trials=64, seed=seed % 97), **kwargs)
    assert result.measured <= result.final_bound
    base = Fraction(sys.delta).limit_denominator(10**9) * sys.n
    assert [Fraction(rec.delta).limit_denominator(10**9) * rec.n
            for rec in result.rounds] == [base] * len(result.rounds)


def test_certify_complex_reduction_path():
    carr = generate_complex_planted(n=9, k=2, ambient=10, triple_count=3, seed=29)
    arr = complex_to_real(10, carr)
    sys = build_sg_system(arr, 4)
    result = certify(arr, sys, budget=CertifyBudget(trials=64))
    assert result.sound
    dim_c = int(np.linalg.matrix_rank(np.vstack(carr), tol=1e-9))
    assert 2 * dim_c == result.measured <= result.final_bound


def test_certify_budget_exhaustion():
    arr, sys = duplicate_line_instance(n_dup=60, groups=4, seed=31)
    with pytest.raises(BudgetExceededError):
        certify(arr, sys, beta=0.8, entry_check=False,
                budget=CertifyBudget(trials=4096, max_rounds=1))


def test_certify_requires_positive_delta():
    arr = generate_grouped(k=1, delta=0.5, n=6, seed=37)
    sys = TripleSystem(arr.n, [], alpha=6, delta=0.0)
    with pytest.raises(PreconditionError):
        certify(arr, sys)
