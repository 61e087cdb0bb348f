"""Command-line workbench.

Subcommands: verify, search, build-set, interlace, torus-set, density,
gowers, spectrum, converge, extract, pipeline.  Reports go to stdout as JSON
with sorted keys, embedding {seed, budget, version} where meaningful, so runs
are byte-identical for identical arguments.  Exit codes: 0 success / property
holds, 1 property violated (a witness is reported), 2 usage, I/O, format or
budget errors, including a failed pipeline stage or a failed self-check (such
as Parseval for a spectrum).

A budget error names its row of aplab.errors.BUDGETS on stderr; no flag or
environment variable changes a cap.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .colorings import (
    CYCLIC,
    coloring_from_text,
    coloring_to_text,
    search_coloring,
    verify_abab_abba_free,
    verify_binomial_pattern_free,
    verify_mono_pattern_free,
    verify_sym_a_ap_free,
    verify_symmetric_ap_free,
)
from .errors import BudgetExceededError, FormatError, SelfCheckError
from .patterns import PatternSpec, a_binomial_system
from .pipelines import PIPELINES, StageError, run_pipeline
from .sets import (
    base9_set,
    behrend_set,
    greedy_solution_free_set,
    residue_set_from_text,
    residue_set_to_text,
)
from .torus import (
    DEFAULT_SAMPLES,
    build_torus_set,
    certificate_width,
    interlace_k,
    interlace_m,
    lambda_tilde_certificate,
    lambda_tilde_mc,
    pattern_probability_exact,
    pattern_probability_mc,
    torus_coloring_from_text,
    torus_coloring_to_text,
    torus_set_from_text,
    torus_set_to_text,
    ConstantField,
    DiagonalStrip,
    SlabIndicator,
    _rat,
)
from .uniformity import (
    extract_coloring,
    convergence_experiment,
    gowers_norm,
    grid_from_text,
    lambda_exact,
    spectrum,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def _emit(payload: dict):
    payload = dict(payload)
    payload["version"] = __version__
    print(json.dumps(payload, sort_keys=True))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_coloring(path):
    return coloring_from_text(_read(path))


def _load_torus_coloring(path):
    return torus_coloring_from_text(_read(path))


def _load_torus_set(path):
    base_dir = Path(path).parent

    def load(ref):
        ref_path = Path(ref)
        if not ref_path.is_absolute():
            ref_path = base_dir / ref_path
        return torus_coloring_from_text(_read(str(ref_path)))

    return torus_set_from_text(_read(path), load)


def _require(args, mode: str, *names: str):
    """Refuse ``mode`` as a usage error when a flag it needs is missing."""
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{mode} needs --{name.replace('_', '-')}")


def _witness_dict(w):
    out = {
        "kind": w.kind,
        "n": w.n,
        "d": w.d,
        "points": list(w.points),
        "colors": list(w.colors),
    }
    out.update({k: list(v) if isinstance(v, tuple) else v for k, v in w.detail.items()})
    return out


def _spec_arg(args):
    """Pattern from --spec, else the plain --k progression."""
    return args.spec or PatternSpec.ap(args.k)


def _field_arg(args):
    """Torus function from --torus-set / --slab / --diag / --const flags."""
    chosen = [x for x in (args.torus_set, args.slab, args.diag, args.const) if x is not None]
    if len(chosen) != 1:
        raise FormatError("choose exactly one of --torus-set/--slab/--diag/--const")
    if args.torus_set:
        return _load_torus_set(args.torus_set)
    if args.slab is not None:
        return SlabIndicator(args.slab)
    if args.diag is not None:
        return DiagonalStrip(args.diag)
    return ConstantField(args.const)


def _mc_report(est, kind, **extra) -> dict:
    return {
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "exact": False,
        "kind": kind,
        **extra,
    }


def _exact_report(val, kind, **extra) -> dict:
    return {"value": float(val), "value_rational": _rat(val), "exact": True, "kind": kind, **extra}


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_verify(args) -> int:
    c = _load_coloring(args.input)
    if args.pattern == "symmetric":
        w = verify_symmetric_ap_free(c, args.k)
    elif args.pattern == "sym-a":
        w = verify_sym_a_ap_free(c, _spec_arg(args))
    elif args.pattern == "mono":
        w = verify_mono_pattern_free(c, args.k)
    elif args.pattern == "binomial":
        w = verify_binomial_pattern_free(c, _spec_arg(args))
    elif args.pattern == "abab-abba":
        w = verify_abab_abba_free(c, args.a_bound)
    else:  # pragma: no cover - argparse restricts choices
        raise FormatError(f"unknown pattern {args.pattern!r}")
    report = {"input": args.input, "pattern": args.pattern, "ok": w is None}
    if w is not None:
        report["witness"] = _witness_dict(w)
    _emit(report)
    return EXIT_OK if w is None else EXIT_VIOLATION


def cmd_search(args) -> int:
    res = search_coloring(
        args.N, args.spec or args.k, args.r, args.ambient, args.mode, args.budget, args.seed
    )
    report = {
        "status": res.status,
        "N": args.N,
        "r": args.r,
        "nodes": res.nodes,
        "seed": args.seed,
        "budget": args.budget,
    }
    if res.coloring is not None and args.out:
        Path(args.out).write_text(coloring_to_text(res.coloring))
        report["out"] = args.out
    elif res.coloring is not None:
        report["coloring"] = coloring_to_text(res.coloring)
    _emit(report)
    return EXIT_OK if res.status == "found" else EXIT_VIOLATION


def cmd_build_set(args) -> int:
    if args.kind == "behrend":
        _require(args, "--kind behrend", "N")
        s = behrend_set(args.N, args.k)
        extra = {}
    elif args.kind == "base9":
        _require(args, "--kind base9", "m", "r")
        s = base9_set(args.r, args.m)
        extra = {}
    else:
        _require(args, "--kind greedy", "m", "r")
        system = a_binomial_system(_spec_arg(args))
        res = greedy_solution_free_set(system, args.m, args.r)
        s = res.set
        extra = {"complete": res.complete, "scanned": res.scanned}
        if not res.complete:
            _emit({"kind": args.kind, "infeasible_at_budget": True, **extra})
            return EXIT_VIOLATION
    Path(args.out).write_text(residue_set_to_text(s))
    _emit({"kind": args.kind, "modulus": s.modulus, "size": len(s), "out": args.out, **extra})
    return EXIT_OK


def cmd_interlace(args) -> int:
    phi = _load_coloring(args.input)
    if args.m is not None:
        tc = interlace_m(phi, args.m)
    else:
        tc = interlace_k(phi, args.k)
    Path(args.out).write_text(torus_coloring_to_text(tc))
    _emit({"D": tc.D, "colors": tc.r, "out": args.out})
    return EXIT_OK


def cmd_torus_set(args) -> int:
    Phi = _load_torus_coloring(args.coloring)
    S = residue_set_from_text(_read(args.set))
    ts = build_torus_set(Phi, S, args.k, args.width)
    Path(args.out).write_text(torus_set_to_text(ts, args.coloring))
    _emit(
        {
            "out": args.out,
            "marginal": _rat(ts.width),
            "m": ts.m,
            "colors": Phi.r,
        }
    )
    return EXIT_OK


def cmd_density(args) -> int:
    spec = _spec_arg(args)
    if args.lambda_exact:
        _require(args, "--lambda-exact", "grid")
        paths = args.grid.split(",")
        # a path named more than once is read once and shares one grid object
        loaded = {p: grid_from_text(_read(p)) for p in dict.fromkeys(paths)}
        grids = [loaded[p] for p in paths]
        fs = grids[0] if len(grids) == 1 else grids
        val = lambda_exact(fs, spec)
        if isinstance(val, Fraction):
            _emit(_exact_report(val, "lambda-exact"))
        else:
            _emit({"value": float(val), "exact": False, "kind": "lambda-exact"})
    elif args.lambda_mc:
        est = lambda_tilde_mc(_field_arg(args), spec, args.samples, args.seed)
        _emit(_mc_report(est, "lambda-mc"))
    elif args.pattern_exact:
        _require(args, "--pattern-exact", "torus_coloring")
        Phi = _load_torus_coloring(args.torus_coloring)
        val = pattern_probability_exact(Phi, spec, args.predicate)
        _emit(_exact_report(val, "pattern-exact", predicate=args.predicate))
    elif args.pattern_mc:
        _require(args, "--pattern-mc", "torus_coloring")
        Phi = _load_torus_coloring(args.torus_coloring)
        est = pattern_probability_mc(Phi, spec, args.predicate, args.samples, args.seed)
        _emit(_mc_report(est, "pattern-mc", predicate=args.predicate))
    else:
        _require(args, "--certificate", "torus_coloring", "set")
        Phi = _load_torus_coloring(args.torus_coloring)
        S = residue_set_from_text(_read(args.set))
        width = certificate_width(spec, S.modulus) if args.width is None else args.width
        A = build_torus_set(Phi, S, spec.k, width)
        _emit(_exact_report(lambda_tilde_certificate(A, spec), "certificate"))
    return EXIT_OK


def cmd_gowers(args) -> int:
    f = grid_from_text(_read(args.input))
    val = gowers_norm(f, args.s, args.center)
    _emit({"value": val, "s": args.s, "center": args.center})
    return EXIT_OK


def cmd_spectrum(args) -> int:
    f = grid_from_text(_read(args.input))
    rep = spectrum(f)
    _emit({"alpha": rep.alpha, "max_nonzero": rep.max_nonzero})
    return EXIT_OK


def cmd_converge(args) -> int:
    spec = _spec_arg(args)
    F = _field_arg(args)
    ns = [int(tok) for tok in args.N_list.replace(",", " ").split()]
    reference = float(args.reference) if args.reference else None
    table = convergence_experiment(F, spec, ns, reference, args.samples, args.seed)
    _emit({**table, "seed": args.seed, "samples": args.samples})
    return EXIT_OK


def cmd_extract(args) -> int:
    F = _field_arg(args)
    res = extract_coloring(
        F, args.alpha, args.k, args.r, args.N, args.seed, args.attempts
    )
    report = {
        "succeeded": res.coloring is not None,
        "succeeded_at": res.succeeded_at,
        "attempts": res.attempts,
        "undefined_failures": res.undefined_failures,
        "rejected": res.rejected,
        "seed": args.seed,
    }
    if res.coloring is not None and args.out:
        Path(args.out).write_text(coloring_to_text(res.coloring))
        report["out"] = args.out
    _emit(report)
    return EXIT_OK if res.coloring is not None else EXIT_VIOLATION


def cmd_pipeline(args) -> int:
    # each flag, the runner keyword it sets and its value; a flag given to a
    # chain whose runner does not take its keyword is refused
    given = [
        ("--k", "k", args.k), ("--ell", "ell", args.ell),
        ("--spec", "a", args.spec), ("--base-coloring", "base", args.base_coloring),
        ("--samples", "samples", args.samples), ("--seed", "seed", args.seed),
    ]
    takes = inspect.signature(PIPELINES[args.name]).parameters
    kwargs = {}
    for flag, key, val in given:
        if val is not None:
            if key not in takes:
                raise ValueError(f"pipeline {args.name!r} takes no {flag}")
            kwargs[key] = val
    if "a" in kwargs:
        kwargs["a"] = kwargs["a"].a
    if "base" in kwargs:
        kwargs["base"] = _load_coloring(kwargs["base"])
    result = run_pipeline(args.name, **kwargs)
    cert = result.certificate()
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "base_coloring.txt").write_text(coloring_to_text(result.base))
        (out / "interlaced.txt").write_text(torus_coloring_to_text(result.torus_set.base))
        (out / "residues.txt").write_text(residue_set_to_text(result.residues))
        (out / "torus_set.txt").write_text(
            torus_set_to_text(result.torus_set, "interlaced.txt")
        )
        (out / "certificate.json").write_text(
            json.dumps({**cert, "version": __version__}, sort_keys=True, indent=2) + "\n"
        )
        cert["out_dir"] = args.out_dir
    _emit(cert)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def rational(text: str) -> Fraction:
    """argparse type for an exact rational such as 1/4 or 0.25, or a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def density(text: str) -> Fraction:
    """argparse type for an exact rational in [0, 1], or a usage error."""
    value = rational(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"density {text} is outside [0, 1]")
    return value


def seed(text: str) -> int:
    """argparse type for a non-negative integer seed, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed {text} is negative")
    return value


def pattern_spec(text: str) -> PatternSpec:
    """argparse type for a ``--spec`` of offsets such as 0,1,3, or a usage
    error that names the value."""
    try:
        return PatternSpec.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``aplab`` parser, built on first use and shared by later calls of
    ``main`` in the process: parsing reads it and never changes it, and no
    argument has a mutable default."""
    top = argparse.ArgumentParser(prog="aplab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    # torus function flags shared by density, converge and extract; exactly
    # one is chosen (checked by _field_arg)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--torus-set", help="torus-set file")
    field.add_argument("--slab", type=density, help="slab indicator of this width")
    field.add_argument("--diag", type=density, help="diagonal strip of this width")
    field.add_argument("--const", type=density, help="constant field of this value")

    p = sub.add_parser("verify", help="check a coloring file against a pattern family")
    p.add_argument("input")
    p.add_argument("--pattern", required=True,
                   choices=["symmetric", "sym-a", "mono", "binomial", "abab-abba"])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--spec", type=pattern_spec)
    p.add_argument("--a-bound", type=int, default=4)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="search for a symmetric-pattern-free coloring")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--spec", type=pattern_spec)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ambient", choices=["cyclic", "interval"], default=CYCLIC)
    p.add_argument("--mode", choices=["exhaustive", "randomized"], default="exhaustive")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("build-set", help="construct a residue set file")
    p.add_argument("--kind", required=True, choices=["behrend", "base9", "greedy"])
    p.add_argument("--N", type=int, help="modulus for behrend")
    p.add_argument("--m", type=int, help="modulus for base9/greedy")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--spec", type=pattern_spec)
    p.add_argument("--r", type=int, help="target size")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_set)

    p = sub.add_parser("interlace", help="lift a coloring to the circle")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=4, help="block interlacing with k^2 N cells")
    p.add_argument("--m", type=int, help="phase interlacing with m N cells")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_interlace)

    p = sub.add_parser("torus-set", help="build a rectangle set from coloring + residues")
    p.add_argument("--coloring", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--width", type=rational, help="slab width as p/q (default 1/(2^k m))")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_torus_set)

    p = sub.add_parser("density", parents=[field], help="progression densities and certificates")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lambda-exact", action="store_true")
    mode.add_argument("--lambda-mc", action="store_true")
    mode.add_argument("--pattern-exact", action="store_true")
    mode.add_argument("--pattern-mc", action="store_true")
    mode.add_argument("--certificate", action="store_true")
    p.add_argument("--grid", help="grid file (comma-separate for multilinear)")
    p.add_argument("--torus-coloring")
    p.add_argument("--set")
    p.add_argument("--width", type=rational,
                   help="slab width as p/q (default the smaller of 1/(2^k m) and the sound width)")
    p.add_argument("--predicate", default="binomial",
                   choices=["binomial", "symmetric", "mono"])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--spec", type=pattern_spec)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("gowers", help="box norm of a grid file")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=int, required=True, choices=[2, 3])
    p.add_argument("--center", action="store_true")
    p.set_defaults(fn=cmd_gowers)

    p = sub.add_parser("spectrum", help="Fourier report of a grid file")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser(
        "converge", parents=[field], help="density/uniformity table over a list of N"
    )
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--spec", type=pattern_spec)
    p.add_argument("--N-list", required=True)
    p.add_argument("--reference")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser(
        "extract", parents=[field], help="randomized extraction of an interval coloring"
    )
    p.add_argument("--alpha", type=density, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--attempts", type=int, default=1000)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("pipeline", help="end-to-end construction with certificate")
    p.add_argument("--name", required=True, choices=list(PIPELINES))
    # no defaults here: an omitted flag takes the runner's own default
    p.add_argument("--ell", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--spec", type=pattern_spec, help="offsets for lemma7_10")
    p.add_argument("--base-coloring", help="coloring file overriding the bundled base")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=seed)
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_pipeline)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (
        FormatError, BudgetExceededError, SelfCheckError, ValueError, OSError, StageError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
