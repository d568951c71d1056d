"""Benchmark harness for sgcert.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scale-grouped --seed 0 --seconds 45 --trace 0

One process runs one workload (see ``workloads.py``) on one thread.  A
set-up imports ``sgcert`` from ``src/``, generates the inputs from
``--seed`` and runs a tiny warm-up pass.  Timed passes then run the
workload's fixed job list until ``--seconds`` is spent; a pass that would
end later is not started.  With ``--trace 0`` the result holds the
end-to-end metrics: the median pass is ``wall_s`` and the median set-up,
over the set-ups before the first pass and one after every pass, is
``setup_s``.  With ``--trace 1`` the run times untraced passes for the
first half of the budget and traced passes (spans from ``spans.py``) for
the second, and the result holds the per-layer metrics of a median traced
pass.  ``--tiny`` shrinks every input and runs one pass per phase, for
``selftest.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3  # before the first pass; trace 0 adds one per pass

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def _import_api():
    """Import ``sgcert`` (from ``src/`` only) and the constructions afresh."""
    for name in [m for m in sys.modules
                 if m == "sgcert" or m.startswith("sgcert.") or m == "constructions"]:
        del sys.modules[name]
    api = workloads.Api(cli=importlib.import_module("sgcert.cli"),
                        arrangement=importlib.import_module("sgcert.arrangement"),
                        certifier=importlib.import_module("sgcert.certifier"),
                        constructions=importlib.import_module("constructions"))
    where = Path(api.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"sgcert was imported from {where}, not from {SRC}")
    return api


class Run:
    """One benchmark run: its set-ups, passes, failures and branch paths."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.jobs = None
        self.setup_times = []
        self.attempted = 0
        self.failures = []
        self.notes = {}   # job name -> branch paths seen in timed passes

    def set_up(self):
        """Import ``sgcert``, generate the inputs and warm up, timed as one set-up."""
        build = workloads.WORKLOADS[self.args.workload]
        rep_dir = self.work / f"setup{len(self.setup_times)}"
        for sub in ("warm", "full"):
            (rep_dir / sub).mkdir(parents=True)
        start = perf_counter()
        api = _import_api()
        warm = build(rep_dir / "warm", self.args.seed, True, api)
        jobs = build(rep_dir / "full", self.args.seed, self.args.tiny, api)
        self.do_pass(warm, warm_up=True)
        self.setup_times.append(perf_counter() - start)
        self.jobs = jobs

    def do_pass(self, jobs, tracer=None, warm_up=False):
        """Run every job once and check it; returns the pass's wall seconds."""
        start = perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            try:
                note = job.run()
            except workloads.CheckFailed as exc:
                self.failures.append(f"{job.name}: {exc}")
            except Exception:  # a crashing job is a failed job; the run goes on
                self.failures.append(f"{job.name}: {traceback.format_exc()}")
            else:
                if note and not warm_up:
                    self.notes.setdefault(job.name, set()).add(note)
        wall = perf_counter() - start
        self.attempted += len(jobs)
        return wall

    def passes(self, until, tracer=None, after_pass=None):
        """Timed passes until the next one would end after ``until`` (at least one)."""
        walls = []
        while True:
            if tracer is not None:
                tracer.reset()
            walls.append(self.do_pass(self.jobs, tracer))
            if after_pass is not None:
                after_pass(walls[-1])
            if self.args.tiny or perf_counter() + max(walls) > until:
                return walls


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": _git_commit()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one pass per phase (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "sgcert" / "__init__.py").is_file():
        print(f"error: no sgcert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work):
    run = Run(args, work)
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        run.set_up()
    start = perf_counter()
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"jobs {' '.join(j.name for j in run.jobs)}"]

    if args.trace == 0:
        # one more set-up after every pass spreads the set-up samples over the
        # whole run, so their median does not hang on one quiet or busy moment
        walls = run.passes(start + args.seconds, after_pass=lambda wall: run.set_up())
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(run.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lo, hi = _quartiles(walls)
        report.append(f"passes {len(walls)}: wall_s q1 {lo:.4f} q3 {hi:.4f} "
                      f"all {' '.join(f'{w:.4f}' for w in walls)}")
        report.append(f"set-ups {len(run.setup_times)}: "
                      f"{' '.join(f'{t:.4f}' for t in run.setup_times)}")
    else:
        untraced = run.passes(start + args.seconds / 2)
        tracer = spans.Tracer()
        per_pass = []
        tracer.install()
        try:
            run.passes(start + args.seconds, tracer,
                       after_pass=lambda wall: per_pass.append(tracer.pass_metrics(wall)))
        finally:
            tracer.uninstall()
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["bench.trace_overhead_frac"] = (
            metrics["bench.traced_pass_s"] / statistics.median(untraced) - 1.0)
        span_file = WORK / "spans" / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(span_file)
        report.append(f"passes untraced {len(untraced)} traced {len(per_pass)}; "
                      f"spans of the last traced pass: {len(tracer.spans)} in {span_file}")

    attempted, failed = run.attempted, len(run.failures)
    if args.trace == 0:
        metrics["ok_frac"] = (attempted - failed) / attempted
    units = END_TO_END_UNITS if args.trace == 0 else spans.METRIC_UNITS
    for name, paths in sorted(run.notes.items()):
        report.append(f"branches {name}: {', '.join(sorted(paths))}")
    for msg in run.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    report.append(f"jobs attempted {attempted} failed {failed} "
                  f"failed_frac {failed / attempted:.4f}")
    for name in units:
        report.append(f"{name} {metrics[name]:.6g} {units[name]}")
    report.append("machine " + json.dumps(machine_info(), sort_keys=True))
    print("\n".join(report))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
