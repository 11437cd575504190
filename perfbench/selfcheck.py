"""Fast self-check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and twice traced, and asserts:
the result line has the contracted keys, every check passed, the metric
names and units are exactly those of BENCHMARK.json, exact counts repeat
between the two traced runs, and the layer self times sum to within 3% of
the traced round's wall time.  Last, a copy holding only BENCHMARK.json and
this directory must fail without printing a result.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# layer self times that cover a round; the rest are outside it or derived
NOT_IN_ROUND = {"bench.other_s", "mesh.generate_s", "trace.overhead_s"}
SUM_TOL = 0.03


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def check_names(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"printed {sorted(got.items())} declared {sorted(want.items())}"


def traced_wall(workload):
    with open(os.path.join(OUT, f"{workload}_seed7_trace1_spans.csv"), encoding="utf-8") as fh:
        roots = [r for r in csv.DictReader(fh) if r["parent"] == "-1"]
    assert len(roots) == 1, roots
    return float(roots[0]["end"]) - float(roots[0]["start"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        check_names(result_of(run(wl, 0)), bench["end_to_end"])
        first = result_of(run(wl, 1))
        second = result_of(run(wl, 1))
        check_names(first, bench["per_layer"])
        for name, m in first["metrics"].items():
            if m["unit"] == "count":
                assert m["value"] == second["metrics"][name]["value"], (wl, name)
        layers = {n: m["value"] for n, m in second["metrics"].items() if m["unit"] == "s"}
        wall = traced_wall(wl)
        covered = sum(v for n, v in layers.items() if n not in NOT_IN_ROUND)
        assert abs(covered + layers["bench.other_s"] - wall) <= 1e-6 * wall, wl
        assert abs(covered - wall) <= SUM_TOL * wall, (wl, covered, wall)
        print(f"{wl}: ok, layers cover {covered / wall:.1%} of the traced round")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("bare copy: fails without a result, as it should")


if __name__ == "__main__":
    main()
