"""Command-line interface.

Each subcommand has one private handler, found in ``_HANDLERS``, that wires
its flags to the library operations and writes plain CSV/JSON artifacts; a
handler raises to fail and ``dispatch`` turns the exception into an exit
code.  A flag that several subcommands share (``--graphon``, ``--panels``,
``--basis``, ``--points``, ``--seed``, ``--unsorted``, ``--out``) is one
entry of the ``_SHARED_FLAGS`` table, which gives it the same meaning and
default in each subcommand that names it.  Exit codes: 0 success, 1
numerical failure (non-finite result, nothing written), 2 usage or
validation error or an input too large for memory.  A failed run writes
exactly one line, ``error: ...``, to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import experiments, filtering, galerkin, homdensity, kernels, sampling
from .chebyshev import map_domain_inverse
from .experiments import DESIGN_ORDERS, ExperimentConfig, input_function

__all__ = ["main", "dispatch", "parse_graphon_spec", "parse_motif_spec"]


_GRAPHONS = {"er": kernels.erdos_renyi, "sinprod": kernels.sin_product,
             "expsum": kernels.exp_sum, "expdist": kernels.exp_distance}
_MOTIFS = {"edge": homdensity.edge_motif, "triangle": homdensity.triangle_motif,
           "path3": homdensity.path3_motif}


def parse_graphon_spec(spec: str) -> kernels.Graphon:
    """Build a graphon from an id string.

    Accepted forms: ``er:<p>``, ``sinprod:<a>,<b>,<c>``, ``expsum:<alpha>``,
    ``expdist:<alpha>``, and ``file:<path>`` for a dense grid CSV.
    """
    if ":" not in spec:
        raise ValueError(f"malformed graphon spec {spec!r}: expected '<id>:<params>'")
    kind, _, params = spec.partition(":")
    if kind != "file" and kind not in _GRAPHONS:
        raise ValueError(f"unknown graphon id {kind!r} in spec {spec!r}")
    try:
        if kind == "file":
            return kernels.grid_from_csv(params, label=spec)
        return _GRAPHONS[kind](*map(float, params.split(",")))
    except Exception as exc:
        raise ValueError(f"malformed graphon spec {spec!r}: {exc}") from exc


def parse_motif_spec(spec: str) -> homdensity.Motif:
    """Named motif or ``custom:<i>-<j>,...`` edge list."""
    if spec in _MOTIFS:
        return _MOTIFS[spec]()
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


# Every flag that several subcommands share: its add_argument keywords.  It
# means the same, with the same default, in each subcommand that names it,
# and each of them gets an argparse action of its own.
_SHARED_FLAGS = {
    "graphon": {"required": True},
    "panels": {"type": int, "default": 10},
    "basis": {"type": int, "default": 5},
    "points": {"type": int, "default": 200},
    "seed": {"type": int, "default": 0},
    "unsorted": {"action": "store_true", "help": "skip sorting the latent samples"},
    "out": {"required": True},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphonsp",
        description="Graphon signal processing: sampling, Fourier-Galerkin "
                    "operators, Fredholm solves, and filter design.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, summary, *flags):
        p = sub.add_parser(command, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        return p

    p = add("sample", "draw a random graph from a graphon",
            "graphon", "seed", "unsorted", "out")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--latent-out", default=None,
                   help="optional CSV for the latent positions")

    add("fg-operator", "write the Fourier-Galerkin shift operator",
        "graphon", "panels", "basis", "out")

    p = add("solve", "solve g = T f on a uniform grid",
            "graphon", "panels", "basis", "points", "out")
    p.add_argument("--input", default="y", help="input function id")

    p = add("design", "design a polynomial graphon filter", "graphon", "panels")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--ideal", required=True,
                   help="comma list, the diagonal of D; its length is the basis size")
    p.add_argument("--svd-tol", type=float, default=1e-8)
    p.add_argument("--response-out", default=None,
                   help="optional CSV of the frequency response")

    p = add("homdensity", "homomorphism density estimates", "graphon", "seed")
    p.add_argument("--motif", default="triangle")
    p.add_argument("--samples", type=int, default=100000)

    for study, summary in (("lowpass", "run the lowpass study"),
                           ("consensus", "run the consensus study"),
                           ("convergence", "graph-to-graphon filter convergence sweep")):
        p = add(f"experiment:{study}", summary, "panels", "basis", "points", "unsorted")
        if study == "convergence":
            p.add_argument("--n-values", default="100,400,1600")
            p.add_argument("--taps", default="0.5,0.3,0.2")
        else:
            p.add_argument("--n", type=int, default=2000)
            p.add_argument("--order", type=int, default=5,
                           help=f"design order whose curves are reported, "
                                f"{DESIGN_ORDERS[0]}..{DESIGN_ORDERS[-1]}")
        if study == "lowpass":
            p.add_argument("--ideal", default=None, help="comma list, diagonal of D")
        p.add_argument("--graphon", action="append", default=None,
                       help="repeatable; defaults to the three reference models")
        p.add_argument("--seeds", default="0,1,2,3,4" if study == "convergence" else "0",
                       help="comma list of seeds")
        p.add_argument("--input", default="x_plus_sin")
        p.add_argument("--out-dir", required=True)
    return parser


_DEFAULT_GRAPHONS = ("er:0.5", "sinprod:0.5,0.5,3.5", "expdist:10")

# homdensity's --samples bound: a triangle density takes ~60 s at 10^9
# samples on er:0.5 (2 vCPU), and ~10^5 years at 10^20
_MAX_SAMPLES = 10 ** 9


def _sample(args) -> None:
    w = parse_graphon_spec(args.graphon)
    g = sampling.sample_graph(w, args.n, args.seed, sorted_latent=not args.unsorted)
    sampling.graph_to_edgelist(g, args.out, latent_path=args.latent_out)
    print(f"wrote {g.edge_count()} edges on {g.n} nodes to {args.out}")


def _fg_operator(args) -> None:
    w = parse_graphon_spec(args.graphon)
    op = galerkin.build_fg_shift(w, args.panels, args.basis)
    _check_finite(op.entries, "operator")
    galerkin.operator_to_csv(op, args.out)
    print(f"wrote {op.size}x{op.size} operator to {args.out}")


def _solve(args) -> None:
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


def _design(args) -> None:
    w = parse_graphon_spec(args.graphon)
    ideal = _parse_floats(args.ideal)
    op = galerkin.build_fg_shift(w, args.panels, len(ideal))
    result = filtering.design_filter(op, args.order, filtering.IdealResponse(ideal),
                                     rel_tol=args.svd_tol)
    _check_finite(result.residual, "design residual")
    print(json.dumps({"h": [float(v) for v in result.coeffs.h],
                      "residual": result.residual,
                      "rank_used": result.rank_used}, allow_nan=False))
    if args.response_out:
        h_mat = filtering.fg_filter_operator(op, result.coeffs)
        np.savetxt(args.response_out, filtering.frequency_response(h_mat), delimiter=",")


def _homdensity(args) -> None:
    # checked in this order: --samples, then --motif, then --graphon
    if not 1 <= args.samples <= _MAX_SAMPLES:
        raise ValueError(f"--samples must lie in 1..{_MAX_SAMPLES}, got {args.samples}")
    motif = parse_motif_spec(args.motif)
    w = parse_graphon_spec(args.graphon)
    est = homdensity.hom_density_graphon(motif, w, args.samples, args.seed)
    # JSON has no infinity: one sample gives no standard error
    stderr = est.stderr if np.isfinite(est.stderr) else None
    print(json.dumps({"estimate": est.estimate, "stderr": stderr,
                      "samples": est.samples}, allow_nan=False))


def _experiment(args) -> None:
    stem = args.command.split(":")[1]
    if stem == "convergence":
        study = {"node_counts": _parse_ints(args.n_values),
                 "filter_taps": tuple(_parse_floats(args.taps))}
    else:
        study = {"node_counts": (args.n,), "chosen_order": args.order}
    if stem == "lowpass" and args.ideal:
        study["ideal"] = _parse_floats(args.ideal)
    specs = args.graphon or _DEFAULT_GRAPHONS
    # the labels key a dict, which would merge a repeated spec silently
    if len(set(specs)) != len(specs):
        raise ValueError(f"graphons must be distinct, got {list(specs)}")
    config = ExperimentConfig(
        graphons={spec: parse_graphon_spec(spec) for spec in specs},
        seeds=_parse_ints(args.seeds),
        panels=args.panels,
        basis=args.basis,
        input_id=args.input,
        resample_points=args.points,
        sorted_latent=not args.unsorted,
        **study)
    # looked up per call, so that the runners can be rebound
    runner = {"lowpass": experiments.run_lowpass,
              "consensus": experiments.run_consensus,
              "convergence": experiments.run_filter_convergence}[stem]
    records, extra = runner(config)
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


# one handler per subcommand; each raises to fail and returns None on success
_HANDLERS = {"sample": _sample, "fg-operator": _fg_operator, "solve": _solve,
             "design": _design, "homdensity": _homdensity,
             "experiment:lowpass": _experiment, "experiment:consensus": _experiment,
             "experiment:convergence": _experiment}


def _check_finite(values, what: str) -> None:
    """Raise FloatingPointError, exit code 1, unless every value is finite."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"{what} produced non-finite values")


def dispatch(argv=None) -> int:
    """Parse arguments and run; returns the process exit code.

    Warnings are held for the whole run, pool threads included: a run that
    fails prints only its ``error:`` line, and one that succeeds re-emits
    them under the caller's filters.
    """
    with warnings.catch_warnings(record=True) as caught:
        # recorded, never raised: the caller's filters apply on re-emission
        warnings.simplefilter("default")
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            _HANDLERS[args.command](args)
        except FloatingPointError as exc:
            return _fail(1, exc)
        except (ValueError, OSError) as exc:
            return _fail(2, exc)
        except MemoryError as exc:
            return _fail(2, f"input too large for memory: {exc}")
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               source=w.source)
    return 0


def _fail(code: int, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
