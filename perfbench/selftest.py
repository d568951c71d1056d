"""Self-test of the benchmark harness: every workload once, at tiny size.

    python3 perfbench/selftest.py

For each workload, trace mode and seed (0 and 1) it runs ``run.py --tiny``
in a fresh process and asserts that the run exits 0, that every job passed
its checks, that exactly the metrics ``BENCHMARK.json`` names for that mode
are emitted, each with its unit, and that the top-level spans of the traced
pass fit inside that pass's wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, seed, spec):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace {trace} seed {seed}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{where}: {result['failed']} of {result['attempted']} jobs failed\n{proc.stderr}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{where}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}, " \
        f"units {[(n, got[n], units[n]) for n in units if n in got and got[n] != units[n]]}"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values()), where
    if trace:
        assert 0.0 < values["bench.span_coverage_frac"] <= 1.0, \
            f"{where}: top-level spans cover {values['bench.span_coverage_frac']} of the pass"
    else:
        assert all(values[name] > 0 for name in units), f"{where}: a metric reads 0"
    return values


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            for seed in (0, 1):
                check(workload, trace, seed, spec)
                print(f"ok {workload} trace {trace} seed {seed}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
