"""Command-line front end: mesh generation, probing, solves, convergence runs."""

import argparse
import os
import sys

from .errors import ElementQualityError, MeshError, ProbeError, SolveError
from .harness import (
    ExperimentConfig,
    FAMILIES,
    format_probe_table,
    generate_mesh,
    probe_table,
    run_convergence,
    run_field,
)
from .mesh import write_mesh
from .problems import PROBLEMS


def _add_common(parser, with_problem=True):
    if with_problem:
        parser.add_argument(
            "--problem", default="smooth", choices=sorted(PROBLEMS),
            help="built-in problem name",
        )
    parser.add_argument("--family", default="t1", choices=FAMILIES)
    parser.add_argument("--k", type=int, default=1, choices=range(1, 5),
                        help="polynomial order (1..4)")
    parser.add_argument(
        "--ell", type=_parse_ell, default="auto",
        help="enhancement increment: 'auto' probes per cell, a fixed integer >= 0, "
        "or fixed integers per vertex count such as 4:1,5:2",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lloyd", type=int, default=100)
    parser.add_argument("--out", default="out", help="output directory")


def _parse_ell(value):
    if value == "auto":
        return "auto"
    if value.isdecimal():
        return int(value)
    pairs = [tok.split(":") for tok in value.split(",")]
    if not all(len(pair) == 2 and all(map(str.isdecimal, pair)) for pair in pairs):
        raise argparse.ArgumentTypeError(
            f"expected 'auto', an integer >= 0 or pairs such as 4:1,5:2, got {value!r}"
        )
    return {int(n_v): int(ell) for n_v, ell in pairs}


def _parse_refinements(value):
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--refinements expects comma-separated integers, got {value!r}"
        ) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vemsupg",
        description="Stabilization-free SUPG virtual element experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_gen = mesh_sub.add_parser("gen", help="generate a mesh file")
    p_gen.add_argument("--family", default="t1", choices=FAMILIES)
    p_gen.add_argument("--n", type=int, default=8, help="per-side resolution")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--lloyd", type=int, default=100)
    p_gen.add_argument("--out", default="out")

    p_probe = sub.add_parser("probe", help="tabulate minimal increments")
    _add_common(p_probe, with_problem=False)
    p_probe.add_argument(
        "--all-orders", action="store_true",
        help="probe k = 1..4 instead of just --k",
    )
    p_probe.add_argument(
        "--all-families", action="store_true",
        help="probe every family instead of just --family",
    )

    p_solve = sub.add_parser("solve", help="solve once and export VTK fields")
    _add_common(p_solve)
    p_solve.add_argument("--n", type=int, default=16, help="per-side resolution")

    p_conv = sub.add_parser("convergence", help="refinement study with CSV output")
    _add_common(p_conv)
    p_conv.add_argument(
        "--refinements", type=_parse_refinements, default=(8, 16, 32, 64),
        help="comma-separated per-side resolutions, e.g. 8,16,32,64",
    )
    p_conv.add_argument("--baseline", action="store_true",
                        help="also run the classical stabilized scheme")
    return parser


def _config_from(args, refinements):
    return ExperimentConfig(
        problem=getattr(args, "problem", "smooth"),
        family=args.family,
        k=args.k,
        ell=args.ell,
        refinements=refinements,
        baseline=getattr(args, "baseline", False),
        seed=args.seed,
        lloyd_iters=args.lloyd,
        out_dir=args.out,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ProbeError, ElementQualityError, MeshError, SolveError, ValueError, OSError) as exc:
        print(f"vemsupg: error: {exc}", file=sys.stderr)
        return 1


def _run(args):
    if args.command == "mesh":
        os.makedirs(args.out, exist_ok=True)
        mesh = generate_mesh(args.family, args.n, seed=args.seed,
                             lloyd_iters=args.lloyd)
        path = os.path.join(args.out, f"mesh_{args.family}_{args.n}.json")
        write_mesh(mesh, path)
        print(f"wrote {path} ({mesh.n_cells} cells, {mesh.n_vertices} vertices)")
        return 0
    os.makedirs(args.out, exist_ok=True)
    if args.command == "probe":
        config = _config_from(args, (2,))
        orders = (1, 2, 3, 4) if args.all_orders else (args.k,)
        families = None if args.all_families else [args.family]
        table = probe_table(config, orders=orders, families=families)
        print(format_probe_table(table))
        return 0
    if args.command == "solve":
        config = _config_from(args, (args.n,))
        run_field(config)
        return 0
    if args.command == "convergence":
        config = _config_from(args, args.refinements)
        report = run_convergence(config)
        last = report.rows[-1]
        print(f"levels={len(report.rows)} err_sf={last['err_sf']:.6e}", end="")
        if report.alpha_sf is not None:
            print(f" alpha_sf={report.alpha_sf:.3f}", end="")
        if last["err_vem"] is not None:
            print(f" err_vem={last['err_vem']:.6e}", end="")
        print()
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
