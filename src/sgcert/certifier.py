"""Dimension certification for arrangements carrying dependency systems.

Three layers:

* separated_certificate: the well-separated path: build the stacked basis
  matrix A and an explicit annihilator D with constant diagonal ceil(delta n)
  and bounded off-diagonal mass, which forces rank(A) <= alpha k / (tau delta).
* decompose_step: the dichotomy: either the dimension is already below the
  theorem threshold, or a sublist of spaces admits nonzero vectors spanning
  at most beta d dimensions (found via sampling statistics or via scaling,
  bad-pair removal, pruning and the separated certificate).
* certify: the recursion: each collapse witness becomes the kernel of an
  orthogonal projection, the system is mapped and cleaned, and delta_t n_t
  is conserved exactly until a bound certificate terminates the loop.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, floor, isnan

import numpy as np

from .arrangement import Arrangement, Subspace, _space_stacks, tau_separated
from .dependency import (
    TripleSystem,
    as_fraction,
    map_and_clean,
    prune_low_degree,
    validate_system,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    InconclusiveError,
    MembershipError,
    PreconditionError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    orthonormalize,
    projector,
    rank,
    spectral_norm,
)
from .scaling import (
    _check_seed,
    _orthonormal_images,
    _pick_tuples,
    _SampleStream,
    admissible_hull_vector,
    optimize,
    spanning_model,
)


# the harvest branch takes its prefix from at most this many sampled runs
_HARVEST_RETRIES = 8

# decompose_step first samples this many trials, then doubles the count up
# to its budget until the harvest test passes
_FIRST_TRIALS = 128


@dataclass
class DependencyMatrix:
    """Annihilator evidence: D A = 0 with constant diagonal ceil(delta n)."""

    A: np.ndarray
    D: np.ndarray


@dataclass
class Certificate:
    """Outcome of one decomposition step.

    kind "bound": rank(A) <= d_bound, with annihilator evidence when the
    separated path produced it.  kind "collapse": q spaces indexed by
    ``indices`` carry nonzero vectors (rows of z_vectors, one per space)
    spanning at most beta d dimensions (w_dim is the measured span).
    """

    kind: str
    params: dict = field(default_factory=dict)
    d_bound: int = None
    evidence: list = field(default_factory=list)
    indices: list = None
    z_vectors: np.ndarray = None
    w_dim: int = None


def _unseparated_pairs(spaces: list, sets, tau: float):
    """Yield each set's first pair of members that is not tau-separated, or None.

    Each distinct pair is tested once over all the sets.
    """
    separated = cache(lambda a, b: tau_separated(spaces[a], spaces[b], tau))
    for s in sets:
        yield next((pair for pair in combinations(s, 2) if not separated(*pair)), None)


def separated_certificate(arr: Arrangement, sys: TripleSystem, tau: float,
                          tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Rank certificate: d <= alpha k / (tau delta) for separated systems.

    Every pair inside a 3-set must be tau-separated (2-sets pair equal
    spaces).  Each space's rows of D take one least-squares expansion of
    its basis over the other members of each of the first ceil(delta n)
    sets through it; the expansions' residuals and masses, D A = 0, the
    diagonal and off-diagonal budgets and the measured rank of A against
    the bound are re-verified.
    Expects a system that already passed :func:`validate_system`.
    """
    # checked here too: tau_separated only runs on the pairs of 3-sets
    if not (0.0 < tau <= 1.0):
        raise PreconditionError(f"tau must be in (0, 1], got {tau}")
    three_sets = (s if len(s) == 3 else () for s in sys.sets)
    for j, bad in enumerate(_unseparated_pairs(arr.spaces, three_sets, tau)):
        if bad is not None:
            raise PreconditionError(
                f"set {j}: spaces {bad[0]} and {bad[1]} are not {tau}-separated"
            )
    n = arr.n
    delta = as_fraction(sys.delta)
    if delta <= 0:
        raise PreconditionError("separated certificate needs delta > 0")
    need = ceil(delta * n)
    a_mat = arr.stacked_basis()
    index = np.split(np.arange(len(a_mat)), np.cumsum(arr.dims())[:-1])
    sets_by_index = [[] for _ in range(n)]
    for j, s in enumerate(sys.sets):
        for i in s:
            sets_by_index[i].append(j)
    d_mat = np.zeros((len(a_mat), len(a_mat)))
    for i, v in enumerate(arr.spaces):
        if not v.dim:
            continue
        through = sets_by_index[i]
        if len(through) < need:
            raise PreconditionError(
                f"index {i} lies in {len(through)} sets, fewer than ceil(delta n) = {need}"
            )
        for j in through[:need]:
            others = [b for b in sys.sets[j] if b != i]
            stacked = np.vstack([arr.spaces[b].basis for b in others])
            coeff, *_ = np.linalg.lstsq(stacked.T, v.basis.T, rcond=None)
            resid = float(np.linalg.norm(v.basis - coeff.T @ stacked, axis=1).max())
            if resid > tol.residual_tol:
                raise MembershipError(
                    f"set {j}: space {i} lies outside the sum of the others "
                    f"(residual {resid:.3e})"
                )
            mass = float(np.einsum("rd,rd->d", coeff, coeff).max())
            if mass > 1.0 / tau + 1e-9 * max(1.0, 1.0 / tau):
                raise CertificationError(
                    f"set {j}: coefficient mass {mass:.6f} exceeds 1/tau = {1.0 / tau:.6f}"
                )
            d_mat[index[i], index[i]] += 1.0  # e_u for each basis row u of space i
            d_mat[np.ix_(index[i], np.concatenate([index[b] for b in others]))] -= coeff.T
    # re-verify the construction
    da = spectral_norm(d_mat @ a_mat)
    scale = spectral_norm(d_mat) * spectral_norm(a_mat)
    if da > 1e-6 * max(scale, 1.0):
        raise CertificationError(f"annihilation failed: |DA| = {da:.3e}")
    if np.abs(np.diag(d_mat) - need).max() > 1e-9 * need:
        raise CertificationError("annihilator diagonal is not ceil(delta n)")
    off_sq = d_mat**2 - np.diag(np.diag(d_mat)) ** 2
    row_budget = sys.alpha * need / tau
    worst_row = float(off_sq.sum(axis=1).max())
    if worst_row > row_budget * (1 + 1e-6) + 1e-9:
        raise CertificationError(
            f"off-diagonal row mass {worst_row:.3f} exceeds alpha ceil(delta n)/tau = {row_budget:.3f}"
        )
    k_bound = max(v.dim for v in arr.spaces)
    tau_frac = as_fraction(tau)
    bound = floor(Fraction(sys.alpha) * k_bound / (tau_frac * delta))
    measured = rank(a_mat, tol)
    if measured > bound:
        raise CertificationError(
            f"measured rank {measured} exceeds certified bound {bound}"
        )
    return Certificate(kind="bound", d_bound=bound,
                       evidence=[DependencyMatrix(A=a_mat, D=d_mat)],
                       params={"alpha": sys.alpha, "delta": float(delta),
                               "tau": tau, "k": k_bound, "n": n,
                               "branch": "separated", "measured": measured})


def verify_certificate(cert: Certificate, arr: Arrangement, sys: TripleSystem,
                       beta: float, tol: Tolerance = DEFAULT_TOL) -> None:
    """Re-verify a certificate against its arrangement; raises on failure."""
    d = arr.dimension(tol)
    if cert.kind == "bound":
        if d > cert.d_bound:
            raise CertificationError(
                f"bound certificate claims {cert.d_bound} but dimension is {d}"
            )
        return
    delta = as_fraction(sys.delta)
    q_needed = ceil(delta * arr.n / (20 * sys.alpha))
    if len(cert.indices) < q_needed:
        raise CertificationError(
            f"collapse witness has {len(cert.indices)} spaces, needs {q_needed}"
        )
    for row, i in zip(cert.z_vectors, cert.indices):
        norm = np.linalg.norm(row)
        if norm <= tol.residual_tol:
            raise CertificationError(f"witness vector for space {i} is zero")
        basis = arr.spaces[i].basis
        resid = np.linalg.norm(row - (row @ basis.T) @ basis) / norm
        if resid > tol.residual_tol:
            raise CertificationError(
                f"witness vector for space {i} is outside its space (residual {resid:.3e})"
            )
    z_rank = rank(cert.z_vectors, tol)
    allowed = floor(as_fraction(beta) * d)
    if z_rank > allowed:
        raise CertificationError(
            f"witness vectors span {z_rank} dimensions, more than floor(beta d) = {allowed}"
        )


def _harvest_from_run(arr: Arrangement, run, t_pref: int, tol: Tolerance):
    """Intersections of every space with the span of a run's first picks.

    A nonzero space meets the span when the smallest singular value of its
    residual off the span is within residual_tol; its vector is the basis
    combination of the last left singular vector.  The residuals take one
    stacked SVD per group of :func:`_space_stacks`; indices come ascending.
    """
    prefix = list(run[:t_pref])
    rows = np.vstack([arr.spaces[i].basis for i in prefix])
    span = orthonormalize(rows, tol)
    proj = span.T @ span
    found = {}
    for idx, stack in _space_stacks(arr):
        u_left, svals, _ = np.linalg.svd(stack - stack @ proj, full_matrices=False)
        for q in np.flatnonzero(svals[:, -1] <= tol.residual_tol).tolist():
            found[int(idx[q])] = u_left[q, :, -1] @ stack[q]
    indices = sorted(found)
    return indices, (np.array([found[i] for i in indices]) if indices
                     else np.zeros((0, arr.ambient)))


def _harvest_certificate(arr: Arrangement, runs: list, t_pref: int, q_needed: int,
                         z_cap: int, tol: Tolerance):
    """Collapse witness from the first of ``runs`` whose prefix yields one, or None.

    A run's first ``t_pref`` picks span a space; the witness is every space
    meeting it, when there are at least ``q_needed`` and their vectors span
    at most ``z_cap`` dimensions.
    """
    for run in runs:
        if len(run) < t_pref:
            continue
        indices, vectors = _harvest_from_run(arr, run, t_pref, tol)
        if len(indices) < q_needed:
            continue
        w_dim = rank(vectors, tol)
        if w_dim <= z_cap:
            return Certificate(kind="collapse", indices=indices, z_vectors=vectors,
                               w_dim=w_dim, params={"branch": "harvest", "prefix": t_pref})
    return None


def _collapse_from_scaled(arr: Arrangement, sys: TripleSystem, scaled: list,
                          beta: float, d: int,
                          tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Scale-collapse tail: drop badly separated sets, prune, certify, pull back.

    ``scaled`` holds the images of the original spaces under the scaling map
    (in any common ambient).  Sets whose 3-set contains a pair that is not
    0.5-separated are removed (2-sets pair equal spaces and are never
    separated, so they drop automatically); the rest is pruned to an
    (alpha, delta/20)-system whose separated certificate bounds the span of
    the survivors, and the witness vectors are taken from the original
    spaces at the surviving indices.  ``d`` is the dimension of the
    arrangement, recorded in the certificate's params.
    """
    n = arr.n
    delta = as_fraction(sys.delta)
    surviving = [s for s, bad in zip(sys.sets, _unseparated_pairs(scaled, sys.sets, 0.5))
                 if bad is None]
    lemma_delta = delta / 10
    if Fraction(len(surviving)) < lemma_delta * n * n:
        raise InconclusiveError(
            "too few sets survive the separation filter for the pruning lemma",
            diagnostics={"surviving": len(surviving),
                         "needed": float(lemma_delta * n * n),
                         "branch": "scale-collapse"},
        )
    scaled_arr = Arrangement(scaled[0].ambient, list(scaled))
    filtered = TripleSystem(n, surviving, alpha=sys.alpha, delta=float(lemma_delta))
    sub_arr, sub_sys, idx_map = prune_low_degree(scaled_arr, filtered, lemma_delta, tol)
    inner = separated_certificate(sub_arr, sub_sys, 0.5, tol)
    z_rows = np.vstack([arr.spaces[i].basis[0] for i in idx_map])
    cert = Certificate(kind="collapse", indices=list(idx_map), z_vectors=z_rows,
                       w_dim=rank(z_rows, tol),
                       params={"branch": "scale-collapse", "d": d,
                               "inner_bound": inner.d_bound,
                               "surviving_sets": len(surviving)})
    verify_certificate(cert, arr, sys, beta, tol)
    return cert


def decompose_step(arr: Arrangement, sys: TripleSystem, beta: float,
                   trials: int = 2048, seed: int = 0,
                   tol: Tolerance = DEFAULT_TOL, entry_check: bool = True) -> Certificate:
    """One application of the dichotomy: a bound or a collapse witness.

    Pipeline: (entry) if the dimension is already at most
    400 alpha k^3 / (beta delta), return that bound; (a) estimate pick
    probabilities by sampling; (b) if more than delta n / (10 alpha)
    indices sit confidently (3 sigma at the current trial count) below
    beta d / (4 k n), harvest witness vectors from the span of a run's
    first ceil(beta d / (2k)) picks; (c) otherwise scale via the augmented
    model, drop badly separated sets, prune, and pull the separated
    certificate back as a witness.  With entry_check=False the entry bound
    is used only as a last resort after the collapse branches fail.

    Sampling is anytime: one resumable sampler stream is grown from
    _FIRST_TRIALS trials, doubling up to ``trials``, until the test of (b)
    passes.  The harvest witness reads only the first _HARVEST_RETRIES
    runs, which every count shares, so it is built once, at the first count
    where the test passes; if it fails there it fails at every count, and
    the stream goes straight to ``trials``.  The scale branch always sees
    the full ``trials`` runs.  The harvest certificate and the
    InconclusiveError diagnostics record the trial count in ``trials``.
    The dimension d and the span rows the stream samples in come from one
    :func:`orthonormalize` of the stacked bases; every certificate returned
    records d in ``params["d"]``.  Expects a validated system; a collapse
    witness is verified before it is returned.
    """
    if not (0.0 < beta < 1.0):
        raise PreconditionError(f"beta must be in (0, 1), got {beta}")
    delta = as_fraction(sys.delta)
    if delta <= 0:
        raise PreconditionError("decomposition needs delta > 0")
    alpha = sys.alpha
    k_bound = arr.max_dim()
    if not k_bound:
        raise PreconditionError("decomposition needs a space of positive dimension")
    n = arr.n
    span_rows = orthonormalize(arr.stacked_basis(), tol)
    d = span_rows.shape[0]
    beta_frac = as_fraction(beta)
    threshold = Fraction(400 * alpha * k_bound**3) / (beta_frac * delta)

    def entry_certificate():
        return Certificate(kind="bound", d_bound=floor(threshold),
                           params={"alpha": alpha, "delta": float(delta),
                                   "k": k_bound, "n": n, "beta": beta,
                                   "branch": "entry", "measured": d, "d": d})

    if entry_check and Fraction(d) <= threshold:
        return entry_certificate()

    pick_floor = float(beta_frac * d / (4 * k_bound * n))
    diagnostics = {"d": d, "n": n, "pick_floor": pick_floor, "branch_tried": []}
    stream = _SampleStream(arr, seed, tol, span_rows)
    count = min(_FIRST_TRIALS, trials)
    while True:
        sample = stream.extend(count)
        p_hat = sample.p_hat
        sigma = np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / count)
        below = np.flatnonzero(p_hat + 3.0 * sigma < pick_floor)
        if (not diagnostics["branch_tried"]
                and Fraction(len(below)) > delta * n / (10 * alpha)):
            diagnostics["branch_tried"].append("harvest")
            cert = _harvest_certificate(arr, _pick_tuples(sample.picks[:_HARVEST_RETRIES]),
                                        ceil(beta_frac * d / (2 * k_bound)),
                                        ceil(delta * n / (20 * alpha)),
                                        floor(beta_frac * d), tol)
            if cert is not None:
                cert.params.update(trials=count, d=d)
                verify_certificate(cert, arr, sys, beta, tol)
                return cert
        if count == trials:
            break
        count = trials if diagnostics["branch_tried"] else min(2 * count, trials)
    diagnostics.update(below=len(below), trials=count)

    diagnostics["branch_tried"].append("scale-collapse")
    try:
        hull = admissible_hull_vector(sample)
        model = spanning_model(arr, hull, tol, span=stream.span)
        scaling = optimize(model.arrangement, model.p, eps_target=1.0, tol=tol)
        if scaling.obstruction is not None:
            raise InconclusiveError(
                f"scaling diverged: {scaling.obstruction}",
                diagnostics={**diagnostics, "obstruction": str(scaling.obstruction)},
            )
        images = _orthonormal_images(model.arrangement, scaling.M, tol,
                                     np.arange(model.arrangement.n) < n)
        scaled = [Subspace(model.d, images.get(i, np.zeros((0, model.d)))) for i in range(n)]
        return _collapse_from_scaled(arr, sys, scaled, beta, d, tol)
    except InconclusiveError as exc:
        if not entry_check and Fraction(d) <= threshold:
            return entry_certificate()
        exc.diagnostics.update(diagnostics)
        raise


@dataclass
class CertifyBudget:
    trials: int = 2048
    seed: int = 0
    max_rounds: int = None
    wall_clock: float = None


@dataclass
class RoundRecord:
    index: int
    n: int
    delta: float
    d: int
    branch: str
    loss: int


@dataclass
class CertifyResult:
    final_bound: int
    measured: int
    rounds: list
    beta: float

    @property
    def sound(self) -> bool:
        return self.measured <= self.final_bound


def certify(arr: Arrangement, sys: TripleSystem, tol: Tolerance = DEFAULT_TOL,
            budget: CertifyBudget = None, beta: float = None,
            entry_check: bool = True) -> CertifyResult:
    """Project-and-recurse until a bound certificate terminates the loop.

    Every collapse witness becomes the kernel of the orthogonal projection
    I - Proj_span(z); the mapped system keeps delta_t n_t = delta n exactly
    (checked in rational arithmetic).  The final bound converts the
    terminating round's threshold back through the per-round (1 - beta)
    dimension-loss factor; the recursion is hard-capped at
    ceil(20 alpha k / delta) rounds.  Only the input system is validated here;
    map_and_clean validates each later round's system as it makes it.  Each
    round's dimension d_t is the one its decomposition step measured.  The
    budget's trials (>= 1), seed (>= 0), round count (>= 0) and wall clock
    (>= 0, not NaN) and a given beta (in (0, 1)) are checked before any
    round, as round 0 may end on the entry bound without sampling.
    """
    budget = budget or CertifyBudget()
    if budget.trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {budget.trials}")
    _check_seed(budget.seed)
    if budget.max_rounds is not None and budget.max_rounds < 0:
        raise PreconditionError(f"max rounds must be >= 0, got {budget.max_rounds}")
    if budget.wall_clock is not None and isnan(budget.wall_clock):
        raise PreconditionError(
            f"wall clock budget must be a number of seconds, got {budget.wall_clock}")
    if budget.wall_clock is not None and budget.wall_clock < 0:
        raise PreconditionError(f"wall clock budget must be >= 0 seconds, got {budget.wall_clock}")
    if beta is not None and not 0 < beta < 1:  # NaN fails this too
        raise PreconditionError(f"beta must be in (0, 1), got {beta}")
    report = validate_system(arr, sys, tol)
    if not report.ok:
        raise PreconditionError(
            "system does not validate: " + "; ".join(report.violations[:3])
        )
    delta0 = as_fraction(sys.delta)
    if delta0 <= 0:
        raise PreconditionError("certification needs delta > 0")
    alpha = sys.alpha
    k_bound = arr.max_dim()
    if not k_bound:
        raise PreconditionError("certification needs a space of positive dimension")
    beta_frac = (min(Fraction(1, 2), delta0 / (alpha * k_bound))
                 if beta is None else as_fraction(beta))
    if not (0 < beta_frac < 1):
        raise PreconditionError(f"beta must be in (0, 1), got {float(beta_frac)}")
    hard_cap = ceil(Fraction(20 * alpha * k_bound) / delta0)
    max_rounds = hard_cap if budget.max_rounds is None else min(budget.max_rounds, hard_cap)

    start = time.monotonic()
    rounds = []
    cur_arr, cur_sys = arr, sys
    delta_t = delta0
    t = 0
    while True:
        if t >= hard_cap:
            raise CertificationError(
                f"recursion exceeded the hard cap of {hard_cap} rounds"
            )
        if budget.max_rounds is not None and t >= max_rounds:
            raise BudgetExceededError(
                f"round budget {budget.max_rounds} exhausted", trace=rounds
            )
        if budget.wall_clock is not None and time.monotonic() - start > budget.wall_clock:
            raise BudgetExceededError(
                f"wall clock budget {budget.wall_clock}s exhausted", trace=rounds
            )
        cert = decompose_step(cur_arr, cur_sys, float(beta_frac),
                              trials=budget.trials, seed=budget.seed + t,
                              tol=tol, entry_check=entry_check)
        d_t = cert.params["d"]
        if cert.kind == "bound":
            rounds.append(RoundRecord(t, cur_arr.n, float(delta_t), d_t,
                                      cert.params.get("branch", "bound"), 0))
            measured0 = rounds[0].d
            bound_here = Fraction(400 * alpha * k_bound**3) / (beta_frac * delta_t)
            inflate = (Fraction(1) / (1 - beta_frac)) ** t
            final_bound = floor(inflate * bound_here)
            if measured0 > final_bound:
                raise CertificationError(
                    f"measured dimension {measured0} exceeds final bound {final_bound}"
                )
            return CertifyResult(final_bound=final_bound, measured=measured0,
                                 rounds=rounds, beta=float(beta_frac))
        kernel = orthonormalize(cert.z_vectors, tol)
        loss = kernel.shape[0]
        proj = np.eye(cur_arr.ambient) - projector(kernel, tol)
        new_arr, new_sys, _ = map_and_clean(cur_arr, cur_sys, proj, tol)
        rounds.append(RoundRecord(t, cur_arr.n, float(delta_t), d_t,
                                  cert.params.get("branch", "collapse"), loss))
        new_delta = delta_t * cur_arr.n / new_arr.n
        if as_fraction(new_sys.delta) * new_arr.n != delta_t * cur_arr.n:
            raise CertificationError(
                "delta * n conservation failed across the projection round"
            )
        cur_arr, cur_sys, delta_t = new_arr, new_sys, new_delta
        t += 1
