"""Command-line interface.

Subcommands wire configuration flags to the library operations and write
plain CSV/JSON artifacts.  Exit codes: 0 success, 1 numerical failure
(non-finite result, nothing written), 2 usage or validation error or an
input too large for memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, filtering, galerkin, homdensity, kernels, sampling
from .chebyshev import map_domain_inverse
from .experiments import ExperimentConfig, input_function

__all__ = ["main", "dispatch", "parse_graphon_spec", "parse_motif_spec"]


def parse_graphon_spec(spec: str) -> kernels.Graphon:
    """Build a graphon from an id string.

    Accepted forms: ``er:<p>``, ``sinprod:<a>,<b>,<c>``, ``expsum:<alpha>``,
    ``expdist:<alpha>``, and ``file:<path>`` for a dense grid CSV.
    """
    if ":" not in spec:
        raise ValueError(f"malformed graphon spec {spec!r}: expected '<id>:<params>'")
    kind, _, params = spec.partition(":")
    try:
        if kind == "er":
            return kernels.erdos_renyi(float(params))
        if kind == "sinprod":
            a, b, c = (float(v) for v in params.split(","))
            return kernels.sin_product(a, b, c)
        if kind == "expsum":
            return kernels.exp_sum(float(params))
        if kind == "expdist":
            return kernels.exp_distance(float(params))
        if kind == "file":
            return kernels.grid_from_csv(params, label=spec)
    except Exception as exc:
        raise ValueError(f"malformed graphon spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown graphon id {kind!r} in spec {spec!r}")


def parse_motif_spec(spec: str) -> homdensity.Motif:
    """Named motif or ``custom:<i>-<j>,...`` edge list."""
    if spec == "edge":
        return homdensity.edge_motif()
    if spec == "triangle":
        return homdensity.triangle_motif()
    if spec == "path3":
        return homdensity.path3_motif()
    if spec.startswith("custom:"):
        pairs = []
        for chunk in spec[len("custom:"):].split(","):
            a, _, b = chunk.partition("-")
            if not (a.isdecimal() and b.isdecimal()):
                raise ValueError(f"malformed edge {chunk!r} in motif {spec!r}: "
                                 "expected '<i>-<j>' with node indices i, j >= 0")
            pairs.append((int(a), int(b)))
        k = max(max(p) for p in pairs) + 1
        return homdensity.Motif(k, tuple(pairs))
    raise ValueError(f"unknown motif {spec!r}")


def _parse_floats(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",")])


def _parse_ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _add_study_flags(p: argparse.ArgumentParser, seeds: str) -> None:
    """Flags shared by the experiment:* subcommands."""
    p.add_argument("--graphon", action="append", default=None,
                   help="repeatable; defaults to the three reference models")
    p.add_argument("--seeds", default=seeds, help="comma list of seeds")
    p.add_argument("--panels", type=int, default=10)
    p.add_argument("--basis", type=int, default=5)
    p.add_argument("--input", default="x_plus_sin")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--unsorted", action="store_true")
    p.add_argument("--out-dir", required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphonsp",
        description="Graphon signal processing: sampling, Fourier-Galerkin "
                    "operators, Fredholm solves, and filter design.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a random graph from a graphon")
    p.add_argument("--graphon", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unsorted", action="store_true",
                   help="skip sorting the latent samples")
    p.add_argument("--out", required=True)
    p.add_argument("--latent-out", default=None,
                   help="optional CSV for the latent positions")

    p = sub.add_parser("fg-operator", help="write the Fourier-Galerkin shift operator")
    p.add_argument("--graphon", required=True)
    p.add_argument("--panels", type=int, default=10)
    p.add_argument("--basis", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve g = T f on a uniform grid")
    p.add_argument("--graphon", required=True)
    p.add_argument("--panels", type=int, default=10)
    p.add_argument("--basis", type=int, default=5)
    p.add_argument("--input", default="y", help="input function id")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", required=True)

    p = sub.add_parser("design", help="design a polynomial graphon filter")
    p.add_argument("--graphon", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--ideal", required=True,
                   help="comma list, the diagonal of D; its length is the basis size")
    p.add_argument("--panels", type=int, default=10)
    p.add_argument("--svd-tol", type=float, default=1e-8)
    p.add_argument("--response-out", default=None,
                   help="optional CSV of the frequency response")

    p = sub.add_parser("homdensity", help="homomorphism density estimates")
    p.add_argument("--motif", default="triangle")
    p.add_argument("--graphon", required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    for study in ("lowpass", "consensus"):
        p = sub.add_parser(f"experiment:{study}", help=f"run the {study} study")
        p.add_argument("--n", type=int, default=2000)
        p.add_argument("--order", type=int, default=5,
                       help="design order whose curves are reported, 1..8")
        if study == "lowpass":
            p.add_argument("--ideal", default=None, help="comma list, diagonal of D")
        _add_study_flags(p, seeds="0")

    p = sub.add_parser("experiment:convergence",
                       help="graph-to-graphon filter convergence sweep")
    p.add_argument("--n-values", default="100,400,1600")
    p.add_argument("--taps", default="0.5,0.3,0.2")
    _add_study_flags(p, seeds="0,1,2,3,4")
    return parser


_DEFAULT_GRAPHONS = ("er:0.5", "sinprod:0.5,0.5,3.5", "expdist:10")


def _experiment_config(args) -> ExperimentConfig:
    if args.command == "experiment:convergence":
        study = {"node_counts": _parse_ints(args.n_values),
                 "filter_taps": tuple(_parse_floats(args.taps))}
    else:
        study = {"node_counts": (args.n,), "chosen_order": args.order}
    if args.command == "experiment:lowpass" and args.ideal:
        study["ideal"] = _parse_floats(args.ideal)
    specs = args.graphon or _DEFAULT_GRAPHONS
    return ExperimentConfig(
        graphons={spec: parse_graphon_spec(spec) for spec in specs},
        seeds=_parse_ints(args.seeds),
        panels=args.panels,
        basis=args.basis,
        input_id=args.input,
        resample_points=args.points,
        sorted_latent=not args.unsorted,
        **study)


def _run(args) -> int:
    if args.command == "sample":
        w = parse_graphon_spec(args.graphon)
        g = sampling.sample_graph(w, args.n, args.seed,
                                  sorted_latent=not args.unsorted)
        sampling.graph_to_edgelist(g, args.out, latent_path=args.latent_out)
        print(f"wrote {g.edge_count()} edges on {g.n} nodes to {args.out}")
        return 0

    if args.command == "fg-operator":
        w = parse_graphon_spec(args.graphon)
        op = galerkin.build_fg_shift(w, args.panels, args.basis)
        _check_finite(op.entries, "operator")
        galerkin.operator_to_csv(op, args.out)
        print(f"wrote {op.size}x{op.size} operator to {args.out}")
        return 0

    if args.command == "solve":
        w = parse_graphon_spec(args.graphon)
        f = input_function(args.input)
        y = galerkin.fredholm_solve(w, f, args.panels, args.basis, args.points)
        _check_finite(y, "solve")
        x = map_domain_inverse(np.linspace(-1.0, 1.0, args.points))
        with open(args.out, "w") as fh:
            fh.write("x,g\n")
            for xi, yi in zip(x, y):
                fh.write(f"{float(xi)!r},{float(yi)!r}\n")
        print(f"wrote {args.points} solution points to {args.out}")
        return 0

    if args.command == "design":
        w = parse_graphon_spec(args.graphon)
        ideal = _parse_floats(args.ideal)
        op = galerkin.build_fg_shift(w, args.panels, len(ideal))
        result = filtering.design_filter(op, args.order,
                                         filtering.IdealResponse(ideal),
                                         rel_tol=args.svd_tol)
        _check_finite(result.residual, "design residual")
        print(json.dumps({"h": [float(v) for v in result.coeffs.h],
                          "residual": result.residual,
                          "rank_used": result.rank_used}, allow_nan=False))
        if args.response_out:
            h_mat = filtering.fg_filter_operator(op, result.coeffs)
            np.savetxt(args.response_out,
                       filtering.frequency_response(h_mat), delimiter=",")
        return 0

    if args.command == "homdensity":
        motif = parse_motif_spec(args.motif)
        w = parse_graphon_spec(args.graphon)
        est = homdensity.hom_density_graphon(motif, w, args.samples, args.seed)
        # JSON has no infinity: one sample gives no standard error
        stderr = est.stderr if np.isfinite(est.stderr) else None
        print(json.dumps({"estimate": est.estimate, "stderr": stderr,
                          "samples": est.samples}, allow_nan=False))
        return 0

    if args.command.startswith("experiment:"):
        stem = args.command.split(":")[1]
        runner = {"lowpass": experiments.run_lowpass,
                  "consensus": experiments.run_consensus,
                  "convergence": experiments.run_filter_convergence}[stem]
        records, extra = runner(_experiment_config(args))
        # the records' NaN placeholders (convergence residuals, discrepancies
        # of unchosen orders) are not measured values
        design = stem != "convergence"
        _check_finite([r.residual for r in records if design]
                      + [r.l2_discrepancy for r in records
                         if not design or r.order == args.order], args.command)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        experiments.records_to_csv(records, out / f"{stem}.csv")
        if stem == "convergence":
            for (label, n), mean in sorted(extra.items()):
                print(f"{label} N={n}: mean discrepancy {mean:.6f}")
        else:
            curve_paths = experiments.curves_to_csv(extra, out, stem)
            print(f"wrote {len(records)} records to {out / (stem + '.csv')} and "
                  f"{len(curve_paths)} curve files")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _check_finite(values, what: str) -> None:
    """Raise FloatingPointError, exit code 1, unless every value is finite."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"{what} produced non-finite values")


def dispatch(argv=None) -> int:
    """Parse arguments and run; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large for memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
