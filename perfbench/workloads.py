"""The benchmark workloads: seeded inputs, a fixed job list, invariant checks.

Each workload function takes the work directory, the workload seed, the size
(full or tiny) and the freshly imported ``sgcert`` API, generates its inputs
and returns its jobs.  One pass runs every job once.  Each job checks its
output by invariants that any correct version of ``sgcert`` satisfies, not
by comparing bytes, so a change to the sampler's random stream does not
count as a failure.  A job raises ``CheckFailed`` when an invariant breaks.

Why these workloads:

* ``scale-grouped``: the only workload where the scaling optimizer does real
  work; the sampler picks 2-dimensional spaces in R^16, so the cost of each
  pick dominates.  The dependency and certifier layers stay idle.
* ``certify-recurse``: the certifier's project-and-recurse rounds (harvest,
  then the entry bound) on two hand-built instances.  The sampler runs many
  trials over small ambients with lines, so the fixed cost of each trial
  dominates.  No CLI.
* ``dependency-scan``: the dependency layer with no sampling or scaling:
  the all-triples scan, the special-space scan, and certify/verify of a
  prebuilt system, which re-validate the system several times.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A job's output broke one of its invariants."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]  # returns an optional note (e.g. a branch path)


@dataclass
class Api:
    """The ``sgcert`` modules and the constructions, as imported for one set-up."""

    cli: object
    arrangement: object
    certifier: object
    constructions: object


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def derive_seeds(seed: int, salt: int, count: int) -> list:
    """Instance and sampler seeds for one workload, derived from its seed."""
    state = np.random.SeedSequence([seed, salt]).generate_state(count)
    return [int(s) for s in state]


def _cli(api: Api, argv: list) -> tuple:
    """Run one CLI job in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _gen(api: Api, argv: list) -> None:
    code, _, err = _cli(api, ["gen", *argv])
    if code != 0:
        raise RuntimeError(f"input generation {argv} failed with exit {code}: {err.strip()}")


def _grouped_sizes(n: int, groups: int) -> list:
    return [n // groups + (1 if g < n % groups else 0) for g in range(groups)]


def scale_grouped(work: Path, seed: int, tiny: bool, api: Api) -> list:
    s_inst, s_sample = derive_seeds(seed, 1, 2)
    n, trials, eps = (10, 64, 1e-6) if tiny else (64, 4096, 1e-6)
    arr, mat = work / "grouped.arr", work / "grouped.mat"
    _gen(api, ["--kind", "grouped", "--k", 2, "--delta", 0.25, "--n", n, "--l", 16,
               "--seed", s_inst, "--out", arr])

    def scale():
        code, _, err = _cli(api, ["scale", arr, "--eps", eps, "--trials", trials,
                                  "--seed", s_sample, "--out", mat])
        _expect(code == 0, f"exit code {code}: {err.strip()}")
        lines = mat.read_text(encoding="utf-8").splitlines()
        _expect(not any(ln.startswith("obstruction") for ln in lines),
                "obstruction reported")
        gaps = [float(ln.split()[1]) for ln in lines if ln.startswith("gap ")]
        _expect(len(gaps) == 1 and gaps[0] <= eps, f"gap {gaps} above eps {eps}")

    return [Job("scale", scale)]


def certify_recurse(work: Path, seed: int, tiny: bool, api: Api) -> list:
    s_dup, s_far, s_sample = derive_seeds(seed, 2, 3)
    cons = api.constructions
    if tiny:
        trials = 256
        instances = [("duplicate-line", cons.duplicate_line(12, 2, s_dup)),
                     ("far-clusters", cons.far_clusters(12, 3, s_far))]
    else:
        trials = 4096
        instances = [("duplicate-line", cons.duplicate_line(60, 4, s_dup)),
                     ("far-clusters", cons.far_clusters(60, 10, s_far))]
    budget = api.certifier.CertifyBudget(trials=trials, seed=s_sample)

    def job_for(arr, sys_obj):
        base = Fraction(sys_obj.delta).limit_denominator(10**9) * sys_obj.n

        def run():
            result = api.certifier.certify(arr, sys_obj, beta=0.8, entry_check=False,
                                           budget=budget)
            _expect(result.sound, f"measured {result.measured} above bound "
                                  f"{result.final_bound}")
            for rec in result.rounds:
                kept = Fraction(rec.delta).limit_denominator(10**9) * rec.n
                _expect(kept == base, f"round {rec.index}: delta*n {kept} != {base}")
            return "-".join(rec.branch for rec in result.rounds)

        return run

    return [Job(name, job_for(arr, sys_obj)) for name, (arr, sys_obj) in instances]


def dependency_scan(work: Path, seed: int, tiny: bool, api: Api) -> list:
    s_planted, s_grouped, s_sample = derive_seeds(seed, 3, 3)
    k, delta, groups = 2, 0.25, 4
    n_planted, planted_count, n_grouped = (12, 4, 16) if tiny else (60, 20, 128)
    planted, grouped = work / "planted.arr", work / "grouped.arr"
    listing, system, trace = work / "planted.tri", work / "grouped.sys", work / "grouped.trace"
    _gen(api, ["--kind", "random-planted", "--k", k, "--n", n_planted, "--l", 12,
               "--triples", planted_count, "--seed", s_planted, "--out", planted])
    _gen(api, ["--kind", "grouped", "--k", k, "--delta", delta, "--n", n_grouped,
               "--l", 16, "--seed", s_grouped, "--out", grouped])
    want_triples = {tuple(sorted(t))
                    for t in api.arrangement.planted_triples(n_planted, planted_count)}
    # each block of the grouped arrangement is one special space of r members
    want_w = sum(r * r - r for r in _grouped_sizes(n_grouped, groups) if r >= 3)
    want_dim = 2 * k * groups

    def triples():
        code, _, err = _cli(api, ["triples", planted, "--out", listing])
        _expect(code == 0, f"exit code {code}: {err.strip()}")
        lines = listing.read_text(encoding="utf-8").splitlines()
        found = {tuple(int(x) for x in ln.split()[1:]) for ln in lines
                 if ln.startswith("triple ")}
        missing = want_triples - found
        _expect(not missing, f"planted triples not listed: {sorted(missing)[:3]}")
        total = lines[-1].split()
        _expect(total[:2] == ["total", "special"] and int(total[-1]) == len(found),
                f"bad total line {lines[-1]!r}")

    def build_system():
        code, out, err = _cli(api, ["system", grouped, "--out", system])
        _expect(code == 0, f"exit code {code}: {err.strip()}")
        words = out.split()
        w, alpha = int(words[words.index("w") + 1]), int(words[words.index("alpha") + 1])
        _expect(w == want_w and alpha == 6, f"w {w} alpha {alpha}, want w {want_w} alpha 6")
        sets = system.read_text(encoding="utf-8").splitlines()[2:]
        _expect(len(sets) == want_w, f"system file holds {len(sets)} sets, want {want_w}")

    def certify():
        code, _, err = _cli(api, ["certify", grouped, "--system", system,
                                  "--seed", s_sample, "--out", trace])
        _expect(code == 0, f"exit code {code}: {err.strip()}")
        final = trace.read_text(encoding="utf-8").splitlines()[-1].split()
        _expect(final[:2] == ["final", "bound"], f"bad final line {final}")
        bound, measured = int(final[2]), int(final[4])
        _expect(measured == want_dim and measured <= bound,
                f"measured {measured} bound {bound}, want measured {want_dim}")

    def verify():
        code, out, err = _cli(api, ["verify", grouped, "--system", system])
        _expect(code == 0 and "verify: ok" in out.splitlines(),
                f"exit code {code}: {out.strip()} {err.strip()}")

    return [Job("triples", triples), Job("system", build_system),
            Job("certify", certify), Job("verify", verify)]


WORKLOADS = {
    "scale-grouped": scale_grouped,
    "certify-recurse": certify_recurse,
    "dependency-scan": dependency_scan,
}
