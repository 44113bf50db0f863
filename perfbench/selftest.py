#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at smoke size on a held-out seed.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it runs
perfbench/run.py with --smoke in both modes and checks that
  * the result line has exactly the contract's keys and correct == true;
  * every end_to_end (trace 0) or per_layer (trace 1) metric is printed,
    with its declared unit, and nothing else;
  * the per-layer split adds up: plan busy <= simulate wall, sim self >= 0,
    and plan busy + sim self == simulate wall;
  * failures are counted, not aborted on: the run exits 0, `failed` equals
    the failed_rounds metric, and faulty_recovery reports the known graft
    verifier violations (failed > 0) instead of stopping on them.
Finally it checks that a directory holding only BENCHMARK.json and the
benchmark's own files exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Not a seed any tuning of the benchmark used.
HELD_OUT_SEED = 987654


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(HELD_OUT_SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(spec, workload, trace, proc, errors):
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(res)}")
        return
    if res["correct"] is not True:
        errors.append(f"{where}: correct is {res['correct']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and
            isinstance(res["failed"], int) and res["failed"] >= 0):
        errors.append(f"{where}: attempted/failed {res['attempted']}/{res['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if want != got:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units "
                      f"{sorted(k for k in want if k in got and want[k] != got[k])}")
        return
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        if not m["plan.busy_s"] <= m["sim.wall_s"]:
            errors.append(f"{where}: plan busy {m['plan.busy_s']} > "
                          f"simulate wall {m['sim.wall_s']}")
        if not m["sim.self_s"] >= 0.0:
            errors.append(f"{where}: sim.self_s {m['sim.self_s']} < 0")
        if abs(m["plan.busy_s"] + m["sim.self_s"] - m["sim.wall_s"]) > 1e-9:
            errors.append(f"{where}: plan + sim self != simulate wall")
        if m["failed_rounds"] != res["failed"]:
            errors.append(f"{where}: failed {res['failed']} but "
                          f"failed_rounds {m['failed_rounds']}")
    elif workload == "faulty_recovery" and res["failed"] == 0:
        errors.append(f"{where}: expected the known graft verifier "
                      "violations to be counted (failed > 0)")
    print(f"ok {where}: attempted {res['attempted']}, failed {res['failed']}")


def bare_directory_fails(errors):
    """A checkout with only the benchmark files must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "repro_fig5", 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            errors.append("bare directory: expected a non-zero exit and no result")
        else:
            print(f"ok bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace, run(ROOT, workload, trace),
                         errors)
    bare_directory_fails(errors)
    for e in errors:
        print("FAIL", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
