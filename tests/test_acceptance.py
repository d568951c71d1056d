"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else; every expected value is either
an exact integer consequence of the construction or checked against an
independently computed quantity.
"""

import functools
import time
from fractions import Fraction

import numpy as np
import pytest

from instances import duplicate_line_instance
from sgcert.arrangement import (
    Arrangement,
    Subspace,
    complex_to_real,
    generate_complex_planted,
    generate_grid,
    generate_grouped,
    generate_random_planted,
    pairwise_zero_intersection,
    planted_triples,
)
from sgcert.certifier import CertifyBudget, certify, separated_certificate
from sgcert.dependency import (
    TripleSystem,
    build_sg_system,
    build_triple_family,
    is_dependent_triple,
    validate_system,
)
from sgcert.errors import PreconditionError
from sgcert.linalg import cauchy_binet_check, orthonormalize, rank, spectral_norm
from sgcert.scaling import (
    make_state,
    optimize,
    projector_gap,
    r_step,
    sample_admissible,
    t_gradient,
)

_frac = lambda x: Fraction(x).limit_denominator(10**9)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} {name}: FAIL ({time.time() - start:.1f}s)")
                raise
            print(f"ACCEPTANCE {num:2d} {name}: PASS ({time.time() - start:.1f}s)")
        return run
    return wrap


_certified = []  # (result, alpha, k, delta) pool checked by criterion 10


def _certify_and_pool(arr, sys, **kwargs):
    result = certify(arr, sys, **kwargs)
    k = max(v.dim for v in arr.spaces)
    _certified.append((result, sys.alpha, k, _frac(sys.delta)))
    return result


@criterion(1, "lower-bound construction")
def test_criterion_1_lower_bound_construction():
    for k, delta in [(1, 1 / 4), (2, 1 / 5), (3, 1 / 8)]:
        start = time.time()
        arr = generate_grouped(k=k, delta=delta, n=40, seed=k)
        groups = int(np.ceil(1 / delta))
        assert arr.dimension() == 2 * k * groups  # exact integer rank
        sys = build_sg_system(arr, k)
        result = _certify_and_pool(arr, sys, budget=CertifyBudget(trials=64))
        assert result.final_bound >= result.measured == 2 * k * groups
        assert time.time() - start < 10.0


@criterion(2, "grid counterexample rejected")
def test_criterion_2_grid_counterexample():
    start = time.time()
    arr = generate_grid(10)
    assert arr.n == 45
    assert arr.dimension() == 10
    assert 10 > np.sqrt(45)
    with pytest.raises(PreconditionError, match=r"spaces \d+ and \d+"):
        build_sg_system(arr, 2)
    assert time.time() - start < 5.0


@criterion(3, "triple family counts")
def test_criterion_3_triple_family():
    start = time.time()
    for r in range(3, 51):
        fam = build_triple_family(r)
        assert len(fam) == r * r - r
        deg = [0] * r
        pairs = {}
        for t in fam:
            assert len(set(t)) == 3
            for e in t:
                deg[e] += 1
            for a in range(3):
                for b in range(a + 1, 3):
                    pairs[(t[a], t[b])] = pairs.get((t[a], t[b]), 0) + 1
        assert deg == [3 * (r - 1)] * r
        assert max(pairs.values()) <= 6
    assert time.time() - start < 5.0


@criterion(4, "system construction on planted arrangements")
def test_criterion_4_system_construction():
    start = time.time()
    for seed in range(50):
        k = 1 + seed % 3
        n = 3 * (3 + seed % 8)  # 9..30, every index inside a planted triple
        ambient = 2 * k + 4 + seed % 5
        arr = generate_random_planted(n=n, k=k, ambient=ambient,
                                      triple_count=n // 3, seed=seed)
        sys = build_sg_system(arr, k)
        assert sys.alpha == 6
        report = validate_system(arr, sys)
        assert report.ok, report.violations[:3]
        # counting bounds with the measured parameters, exactly
        delta, n_, w = _frac(sys.delta), sys.n, sys.w
        assert delta * n_ * n_ <= 3 * w
        assert 2 * w <= sys.alpha * n_ * n_
        assert 2 * delta <= 3 * sys.alpha
    assert time.time() - start < 30.0


@criterion(5, "scaling reaches the identity")
def test_criterion_5_scaling():
    start = time.time()
    cases = [(6, 1, 4), (8, 1, 6), (10, 1, 8), (5, 2, 4), (7, 2, 6),
             (6, 2, 8), (4, 3, 6), (5, 3, 6)]
    rng = np.random.default_rng(1234)
    done = 0
    while done < 25:
        n, k, ambient = cases[done % len(cases)]
        seed = int(rng.integers(1 << 30))
        arr_rng = np.random.default_rng(seed)
        arr = Arrangement(ambient, [
            Subspace(ambient, orthonormalize(arr_rng.standard_normal((k, ambient))))
            for _ in range(n)
        ])
        if arr.dimension() != ambient:
            continue
        sample = sample_admissible(arr, trials=4096, seed=seed)
        result = optimize(arr, sample.p_hat)
        assert result.obstruction is None
        assert result.achieved_eps <= 1e-6
        assert projector_gap(arr, sample.p_hat, result.M) <= 1e-6
        st = result.state
        identity = (st.x_rows @ st.M).T * np.exp(st.t) @ (st.x_rows @ st.M)
        assert np.abs(identity - np.eye(ambient)).max() <= 1e-7
        done += 1
    assert time.time() - start < 60.0


def test_criterion_5_iteration_counts():
    # criterion 5's 25 instances, in its order: the block Newton step takes
    # at most 10 iterations on planes and 3-spaces; on lines it is the
    # Newton step on t, whose counts are pinned
    cases = [(6, 1, 4), (8, 1, 6), (10, 1, 8), (5, 2, 4), (7, 2, 6),
             (6, 2, 8), (4, 3, 6), (5, 3, 6)]
    line_counts = iter([4, 5, 4, 4, 4, 4, 3, 5, 4, 4])
    rng = np.random.default_rng(1234)
    done = 0
    while done < 25:
        n, k, ambient = cases[done % len(cases)]
        seed = int(rng.integers(1 << 30))
        arr_rng = np.random.default_rng(seed)
        arr = Arrangement(ambient, [
            Subspace(ambient, orthonormalize(arr_rng.standard_normal((k, ambient))))
            for _ in range(n)
        ])
        if arr.dimension() != ambient:
            continue
        result = optimize(arr, sample_admissible(arr, trials=4096, seed=seed).p_hat)
        if k == 1:
            assert result.iterations == next(line_counts), done
        else:
            assert result.iterations <= 10, done
        done += 1
    assert next(line_counts, None) is None


def _random_state(rng, seed_base):
    while True:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        ambient = int(rng.integers(k, min(n * k, 8) + 1))
        arr_rng = np.random.default_rng(seed_base + 31 * n + k)
        arr = Arrangement(ambient, [
            Subspace(ambient, orthonormalize(arr_rng.standard_normal((k, ambient))))
            for _ in range(n)
        ])
        if arr.dimension() != ambient:
            seed_base += 1
            continue
        p = rng.uniform(0.1, 1.0, size=n)
        t = rng.uniform(-1.0, 1.0, size=n * k)
        state = make_state(arr, p, t=t)
        if state.cond < 1e4:
            return arr, p, t, state
        seed_base += 1


@criterion(6, "gradient matches finite differences")
def test_criterion_6_gradient_fidelity():
    start = time.time()
    rng = np.random.default_rng(6)
    h = 1e-5
    for trial in range(100):
        arr, p, t, state = _random_state(rng, 1000 + trial)
        grad = t_gradient(state)
        for s in range(state.m):
            tp, tm = t.copy(), t.copy()
            tp[s] += h
            tm[s] -= h
            fd = (make_state(arr, p, t=tp).f - make_state(arr, p, t=tm).f) / (2 * h)
            assert abs(grad[s] - fd) <= 1e-5
    assert time.time() - start < 10.0


@criterion(7, "rotation step stationarity")
def test_criterion_7_r_step():
    start = time.time()
    rng = np.random.default_rng(7)
    for trial in range(100):
        arr, p, t, _ = _random_state(rng, 2000 + trial)
        dims = [v.dim for v in arr.spaces]
        # force exact ties inside every space
        tied = np.concatenate([
            np.full(d, rng.uniform(-1.0, 1.0)) for d in dims
        ])
        state = make_state(arr, p, t=tied)
        f0 = state.f
        r_step(state)
        assert abs(state.f - f0) <= 1e-10 * max(1.0, abs(f0))
        mx = state.x_rows @ state.M
        for i, d in enumerate(dims):
            if d < 2:
                continue
            sl = state.slots(i)
            gram = mx[sl] @ mx[sl].T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-8
    assert time.time() - start < 10.0


@criterion(8, "determinant subset-sum identity")
def test_criterion_8_cauchy_binet():
    start = time.time()
    rng = np.random.default_rng(8)
    for _ in range(100):
        l = int(rng.integers(1, 4))
        m = int(rng.integers(l, 9))
        a = rng.integers(-5, 6, size=(l, m)).astype(float)
        b = rng.integers(-5, 6, size=(m, l)).astype(float)
        lhs, rhs = cauchy_binet_check(a, b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
    assert time.time() - start < 5.0


def _separated_instance(seed):
    """Blocks of four coplanar spaces at 45-degree spacing: 0.25-separated."""
    rng = np.random.default_rng(seed)
    k = 1 + seed % 2
    blocks = 2 + seed % 3
    ambient = 4 * k * blocks
    spaces, sets = [], []
    for g in range(blocks):
        base_axis = 4 * k * g
        offset = rng.uniform(0.0, np.pi / 8)
        base = len(spaces)
        for j in range(4):
            theta = offset + j * np.pi / 4
            rows = np.zeros((k, ambient))
            for r in range(k):
                rows[r, base_axis + r] = np.cos(theta)
                rows[r, base_axis + 2 * k + r] = np.sin(theta)
            spaces.append(Subspace(ambient, rows))
        for tri in build_triple_family(4):
            sets.append(tuple(base + e for e in tri))
    arr = Arrangement(ambient, spaces)
    sys = TripleSystem(arr.n, sets, alpha=6, delta=0.0)
    sys.delta = min(sys.degrees()) / arr.n
    return arr, sys


@criterion(9, "separated rank certificate")
def test_criterion_9_rank_certificate():
    start = time.time()
    tau = 0.25
    for seed in range(20):
        arr, sys = _separated_instance(seed)
        cert = separated_certificate(arr, sys, tau=tau)
        dm = cert.evidence[0]
        scale = spectral_norm(dm.D) * spectral_norm(dm.A)
        assert spectral_norm(dm.D @ dm.A) <= 1e-6 * scale
        need = -((-_frac(sys.delta) * sys.n).numerator
                 // (_frac(sys.delta) * sys.n).denominator)
        assert np.array_equal(np.diag(dm.D), np.full(dm.D.shape[0], float(need)))
        k = max(v.dim for v in arr.spaces)
        off_rows = (dm.D**2).sum(axis=1) - np.diag(dm.D) ** 2
        assert off_rows.max() <= sys.alpha * need / tau * (1 + 1e-6)
        bound = int(Fraction(sys.alpha) * k / (_frac(tau) * _frac(sys.delta)))
        assert rank(dm.A) <= bound
        assert cert.d_bound == bound
    assert time.time() - start < 60.0


@criterion(10, "end-to-end soundness and conservation")
def test_criterion_10_soundness():
    # one genuinely recursive run joins the pool of every certify result
    arr, sys = duplicate_line_instance(n_dup=60, groups=4, seed=101)
    result = _certify_and_pool(arr, sys, beta=0.8, entry_check=False,
                               budget=CertifyBudget(trials=4096, seed=3))
    assert result.rounds[0].branch == "harvest"
    assert len(result.rounds) >= 2

    carr = generate_complex_planted(n=9, k=2, ambient=10, triple_count=3, seed=10)
    real = complex_to_real(10, carr)
    _certify_and_pool(real, build_sg_system(real, 4),
                      budget=CertifyBudget(trials=64))

    assert _certified, "no certify runs pooled"
    for result, alpha, k, delta in _certified:
        assert result.measured <= result.final_bound
        beta_rule = min(Fraction(1, 2), delta / (alpha * k))
        limit = Fraction(4) ** 20 * Fraction(400 * alpha * k**3) / (beta_rule * delta)
        assert result.final_bound <= limit
        base = _frac(result.rounds[0].delta) * result.rounds[0].n
        for rec in result.rounds:
            assert _frac(rec.delta) * rec.n == base  # exact conservation


@criterion(11, "complex reduction preserves dependencies")
def test_criterion_11_complex_reduction():
    start = time.time()
    for seed in range(20):
        k = 1 + seed % 3
        n = 3 * (2 + seed % 3)
        ambient = 2 * k + 3 + seed % 4
        carr = generate_complex_planted(n=n, k=k, ambient=ambient,
                                        triple_count=n // 3, seed=seed)
        arr = complex_to_real(ambient, carr)
        assert arr.dims() == [2 * k] * n
        assert pairwise_zero_intersection(arr) == []
        for a, b, c in planted_triples(n, n // 3):
            assert is_dependent_triple(arr.spaces[a], arr.spaces[b], arr.spaces[c])
        dim_c = int(np.linalg.matrix_rank(np.vstack(carr), tol=1e-9))
        assert arr.dimension() == 2 * dim_c
    assert time.time() - start < 30.0


@criterion(12, "sampler exactness")
def test_criterion_12_sampler():
    start = time.time()
    arr = Arrangement(2, [
        Subspace.from_spanning([1.0, 0.15], 2),
        Subspace.from_spanning([0.3, 1.0], 2),
        Subspace.from_spanning([1.0, -0.8], 2),
    ])
    sample = sample_admissible(arr, trials=10000, seed=12)
    sigma = np.sqrt((2 / 3) * (1 / 3) / 10000)
    assert np.abs(sample.p_hat - 2 / 3).max() <= 3 * sigma
    for h in sample.sets:
        stacked = np.vstack([arr.spaces[i].basis for i in h])
        assert rank(stacked) == sum(arr.spaces[i].dim for i in h)
    assert time.time() - start < 10.0
