"""Command-line surface: generate, inspect, scale, certify, reduce, verify.

All reports are plain text with a stable line grammar; identical seeds and
flags produce byte-identical output files.  Exit codes: 0 success, 1
invariant or certificate failure, 2 usage/parse error, 3 budget exceeded.
"""

import argparse
import errno
import os
import sys
from contextlib import nullcontext

import numpy as np

from .arrangement import (
    _fmt,
    generate,
    pairwise_zero_intersection,
    read_arrangement,
    write_arrangement,
)
from .certifier import CertifyBudget, certify
from .dependency import (
    _special_and_dependent,
    build_sg_system,
    read_system,
    validate_system,
    write_system,
)
from .errors import (
    BudgetExceededError,
    OptimizeTimeoutError,
    ParseError,
    SgcertError,
)
from .linalg import Tolerance
from .scaling import _check_seed, _check_targets, optimize, sample_admissible

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_BUDGET = 3


def _tol_from(args) -> Tolerance:
    return Tolerance(rank_tol=args.rank_tol, residual_tol=args.residual_tol)


def _out_stream(path):
    """A context manager for the report stream; ``-`` writes to stdout unclosed."""
    if path in (None, "-"):
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _emit(stream, lines):
    stream.write("\n".join(lines) + "\n")


def cmd_gen(args) -> int:
    tol = _tol_from(args)
    if args.kind != "grouped" and args.l is None:
        raise SgcertError(f"--l is required for kind {args.kind}")
    arr = generate(args.kind.replace("-", "_"),
                   {"k": args.k, "delta": args.delta, "n": args.n, "ambient": args.l,
                    "triples": args.triples}, args.seed, tol)
    write_arrangement(args.out, arr)
    print(f"wrote {args.out}: n {arr.n} ambient {arr.ambient} dim {arr.dimension(tol)}")
    return _EXIT_OK


def cmd_triples(args) -> int:
    tol = _tol_from(args)
    arr = read_arrangement(args.input, tol)
    with _out_stream(args.out) as stream:
        specials, triples = _special_and_dependent(arr, tol)
        lines = []
        for sp in specials:
            members = " ".join(str(i) for i in sp.member_indices)
            lines.append(f"special size {sp.size} dim {sp.span_basis.shape[0]} members {members}")
        lines.extend(f"triple {i} {j} {l}" for i, j, l in triples)
        lines.append(f"total special {len(specials)} triples {len(triples)}")
        _emit(stream, lines)
    return _EXIT_OK


def cmd_system(args) -> int:
    tol = _tol_from(args)
    arr = read_arrangement(args.input, tol)
    sys_obj = build_sg_system(arr, arr.max_dim(), tol)
    write_system(args.out, sys_obj)
    print(f"wrote {args.out}: w {sys_obj.w} alpha {sys_obj.alpha} delta {_fmt(sys_obj.delta)}")
    return _EXIT_OK


def cmd_scale(args) -> int:
    tol = _tol_from(args)
    arr = read_arrangement(args.input, tol)
    # bad sampler and optimizer flags fail before any sampling
    _check_seed(args.seed)
    _check_targets(args.eps, args.max_iter, args.tcap)
    sample = sample_admissible(arr, args.trials, args.seed, tol)
    # the picks hold index + 1 and pad with 0, which reads dimension 0 here
    set_dims = np.array([0] + arr.dims(), dtype=np.intp)[sample.picks].sum(axis=1)
    non_basis = int(np.count_nonzero(set_dims != arr.dimension(tol)))
    if non_basis:
        print(f"warning: {non_basis} of {args.trials} sampled sets do not span; "
              "p may sit outside the basis hull", file=sys.stderr)
    result = optimize(arr, sample.p_hat, eps_target=args.eps,
                      max_iter=args.max_iter, t_cap=args.tcap, tol=tol)
    with _out_stream(args.out) as stream:
        lines = ["matrix v1",
                 f"rows {arr.ambient} cols {arr.ambient}"]
        for r in range(arr.ambient):
            lines.append(" ".join(_fmt(v) for v in result.M[r]))
        lines.append(f"gap {_fmt(result.achieved_eps)}")
        if result.obstruction is not None:
            lines.append(f"obstruction {result.obstruction}")
        _emit(stream, lines)
    return _EXIT_FAIL if result.obstruction is not None else _EXIT_OK


_BRANCH_NAMES = {"entry": "bound", "separated": "bound",
                 "harvest": "collapse", "scale-collapse": "scale-collapse"}


def cmd_certify(args) -> int:
    tol = _tol_from(args)
    arr = read_arrangement(args.input, tol)
    if args.system:
        sys_obj = read_system(args.system)
    else:
        sys_obj = build_sg_system(arr, arr.max_dim(), tol)
    budget = CertifyBudget(trials=args.trials, seed=args.seed,
                           max_rounds=args.max_rounds,
                           wall_clock=args.wall_clock)
    result = certify(arr, sys_obj, tol, budget=budget, beta=args.beta)
    with _out_stream(args.out) as stream:
        lines = []
        for rec in result.rounds:
            branch = _BRANCH_NAMES.get(rec.branch, rec.branch)
            lines.append(
                f"round {rec.index} n {rec.n} delta {_fmt(rec.delta)} "
                f"d {rec.d} branch {branch} loss {rec.loss}"
            )
        lines.append(f"final bound {result.final_bound} measured {result.measured}")
        _emit(stream, lines)
    return _EXIT_OK if result.sound else _EXIT_FAIL


def cmd_reduce(args) -> int:
    tol = _tol_from(args)
    arr = read_arrangement(args.input, tol)
    if arr.field_tag != "complex":
        raise SgcertError(f"{args.input} is already a real arrangement")
    write_arrangement(args.out, arr)
    print(f"wrote {args.out}: n {arr.n} ambient {arr.ambient} "
          f"dims {' '.join(map(str, arr.dims()))}")
    return _EXIT_OK


def cmd_verify(args) -> int:
    tol = _tol_from(args)
    arr = read_arrangement(args.input, tol)
    bad_pairs = pairwise_zero_intersection(arr, tol)
    if bad_pairs:
        print(f"note: {len(bad_pairs)} pairs intersect nontrivially (first: {bad_pairs[0]})")
    failures = (validate_system(arr, read_system(args.system), tol).violations
                if args.system else [])
    for f in failures:
        print(f"violation: {f}", file=sys.stderr)
    print(f"verify: {'ok' if not failures else f'{len(failures)} violations'}")
    return _EXIT_OK if not failures else _EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcert",
        description="subspace arrangements, dependency systems, scaling, and "
                    "dimension certification",
    )
    parser.add_argument("--rank-tol", type=float, default=1e-9,
                        help="relative singular value cutoff for rank decisions")
    parser.add_argument("--residual-tol", type=float, default=1e-8,
                        help="membership/orthonormality residual threshold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an arrangement file")
    p.add_argument("--kind", required=True, choices=["grouped", "grid", "random-planted"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--l", type=int, default=None, help="ambient dimension")
    p.add_argument("--triples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("triples", help="list dependent triples and special spaces")
    p.add_argument("input")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("system", help="build the dependency system of an arrangement")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("scale", help="compute the scaling map for sampled weights")
    p.add_argument("input")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--trials", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--tcap", type=float, default=60.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("certify", help="run the dimension certification recursion")
    p.add_argument("input")
    p.add_argument("--system", default=None, help="system file (default: build one)")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--trials", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--wall-clock", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reduce", help="realify a complex arrangement file (C^l in R^2l)")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run the invariant suite over a file")
    p.add_argument("input")
    p.add_argument("--system", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


# One parser per import: building it leaves a few hundred objects in
# reference cycles, garbage for the cyclic collector on every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # an unwritable --out fails before the work, not after it; stat raises
        # as opening would when the directory is missing or is not one
        if getattr(args, "out", "-") != "-":
            os.stat(os.path.join(os.path.dirname(args.out) or ".", ""))
            if os.path.isdir(args.out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (BudgetExceededError, OptimizeTimeoutError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (SgcertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FAIL
    except OSError as exc:  # reads fail as ParseError, so this is the output
        print(f"error: cannot write {getattr(args, 'out', '-')}: {exc.strerror}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
