"""Benchmark of the SUPG virtual element solver: one workload per process.

    python3 perfbench/run.py --workload cart_layer_conv --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed (at least
one), checks the outputs, and prints one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds and
gives the per-layer metrics plus the tracing overhead.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-up is timed this many times per run (this process plus children)
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small meshes, for the benchmark's own self-check")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up once and print the seconds")
    return ap.parse_args(argv)


def setup(args):
    """Import the library, build the workload's problems and meshes; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.tiny, OUT)
    wl.make_inputs()
    return wl, time.perf_counter() - t0


def child_setup_s(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(wl, seconds):
    """Whole untraced rounds until ``seconds`` have passed.

    Returns the rounds and the peak memory after the first one, which does
    not depend on how many rounds fit in the run.
    """
    t0 = time.perf_counter()
    rounds = [wl.round()]
    rss = peak_rss_mb()
    while time.perf_counter() - t0 < seconds:
        rounds.append(wl.round())
    return rounds, rss


def run_traced(wl, seconds, tracer):
    """An untraced warm-up round, then untraced and traced rounds in turn.

    The warm-up keeps first-use costs off the untraced side of the tracing
    overhead.  Returns every round, the measured untraced rounds, the
    per-layer metrics and wall time of each traced round, and the spans of
    the last traced round.
    """
    from tracing import ROOT as ROOT_SPAN, layer_metrics

    warm = wl.round()
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        plain.append(wl.round())
        tracer.install()
        try:
            traced.append(tracer.span(ROOT_SPAN, wl.round))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer))
        spans = tracer.spans
        tracer.reset()
    return [warm] + plain + traced, plain, layers, spans


def write_spans(path, spans):
    """One line per span: index, name, parent index, start and end in seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,parent,start,end\n")
        for i, (name, parent, t0, t1) in enumerate(spans):
            fh.write(f"{i},{name},{parent},{t0:.9f},{t1:.9f}\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_per_point"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "vemsupg")):
        print(f"run.py: no solver sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    wl, setup_s = setup(args)
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    failures = []
    if args.trace:
        from tracing import Tracer

        rounds, plain, layers, spans = run_traced(wl, args.seconds, Tracer())
        write_spans(os.path.join(OUT, f"{tag}_spans.csv"), spans)
        metrics = {}
        for name in layers[0][0]:
            values = [m[name] for m, _ in layers]
            if layer_unit(name) == "count" and len(set(values)) > 1:
                failures.append(f"count {name} differs between rounds: {values}")
            metrics[name] = metric(statistics.median(values), layer_unit(name))
        metrics["mesh.generate_s"] = metric(wl.mesh_generate_s, "s")
        overhead = statistics.median(w for _, w in layers) - statistics.median(
            r.wall_s for r in plain
        )
        metrics["trace.overhead_s"] = metric(overhead, "s")
    else:
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        rounds, rss = run_plain(wl, args.seconds)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "solve_cells_per_s": metric(
                statistics.median(r.cells / r.solve_s for r in rounds), "1/s"
            ),
            "post_s": metric(statistics.median(r.post_s for r in rounds), "s"),
            "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }

    failures += wl.check(rounds)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
