"""grasspack command line: angles, distances, constructions, verification,
certificates, bound tables, packing runs, and complements over FamilyFile JSON.

Each command writes its files, if any, and returns its exit code, its JSON
document (None for the commands without --format) and its text lines; it
writes nothing to stdout.  `main` alone writes stdout: the document under
--format json, the lines otherwise.

Exit codes are a scripting contract: 0 for success / verdict true, 1 for
verdict false, 2 for usage, parse, or precondition errors, an output file
that cannot be written, a document nested too deeply to read or write, or
arrays that cannot be allocated; `main` maps each failure to exit 2 and one
`error:` line on stderr.

Only the stdlib and the numpy-free `errors` and `registry` load at start;
each command imports the modules it calls (`bounds` only for `bounds`,
`verify` and `certify`), so `bounds`, `lines-catalog`, `--help` and usage
errors run without numpy, and without `dataclasses` or `inspect`.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import BadParamsError, GrasspackError, IndexOutOfRangeError
from .registry import METRICS, get_metric


def _tolerances(args) -> float:
    """The eps_angle that --tol sets (EPS_ANGLE when absent)."""
    from .linalg import EPS_ANGLE, check_eps_angle

    return EPS_ANGLE if args.tol is None else check_eps_angle(args.tol)


def _member_pair(family, i: int, j: int):
    for idx in (i, j):
        if not 0 <= idx < len(family):
            raise IndexOutOfRangeError(
                f"index {idx} out of range for a family of {len(family)} members"
            )
    return family[i], family[j]


def _parse_params(tokens: list[str], allowed: dict[str, type]) -> dict:
    params: dict = {}
    for token in tokens:
        if "=" not in token:
            raise BadParamsError(f"expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        if key not in allowed:
            raise BadParamsError(
                f"unknown parameter {key!r}; allowed: {sorted(allowed)}"
            )
        if key in params:
            raise BadParamsError(f"parameter {key!r} given more than once")
        try:
            params[key] = allowed[key](raw)
        except ValueError:
            raise BadParamsError(f"bad value for {key}: {raw!r}") from None
    missing = [key for key in allowed if key not in params]
    if missing:
        raise BadParamsError(f"missing parameters: {missing}")
    return params


def cmd_angles(args) -> tuple:
    from .family_io import load_family
    from .grassmann import principal_angles

    family = load_family(args.file)
    u, v = _member_pair(family, args.i, args.j)
    spectrum = principal_angles(u, v).tolist()
    degrees = [math.degrees(angle) for angle in spectrum]
    doc = {"i": args.i, "j": args.j, "angles_rad": spectrum, "angles_deg": degrees}
    lines = [
        f"theta_{idx} = {angle:.6f} rad ({deg:.4f} deg)"
        for idx, (angle, deg) in enumerate(zip(spectrum, degrees), start=1)
    ]
    return 0, doc, lines


def cmd_distance(args) -> tuple:
    from .family_io import load_family
    from .metrics import evaluate

    eps_angle = _tolerances(args)
    metric = get_metric(args.metric)
    family = load_family(args.file)
    u, v = _member_pair(family, args.i, args.j)
    value = evaluate(metric, u, v, eps_angle)
    doc = {"metric": metric.id, "i": args.i, "j": args.j, "value": value}
    return 0, doc, [f"{metric.cli_name}({args.i}, {args.j}) = {value:.12g}"]


def cmd_verify(args) -> tuple:
    from .family_io import load_family
    from .verify import check_equiangular

    eps_angle = _tolerances(args)
    metric = get_metric(args.metric)
    family = load_family(args.file)
    report = check_equiangular(family, metric, tol=args.tolerance, eps_angle=eps_angle)
    lines = [
        f"metric:         {metric.cli_name}",
        f"pairs:          {report.pair_count}",
        f"common value:   {report.common_value:.12g}",
        f"max deviation:  {report.max_deviation:.6g}",
        f"tolerance:      {report.tolerance:.6g}",
        f"verdict:        {'EQUIANGULAR' if report.verdict else 'NOT EQUIANGULAR'}",
    ]
    return 0 if report.verdict else 1, report.to_dict(), lines


# kind -> (its key=value parameters, all required, with their types; a builder
# that takes the constructions and family_io modules and the parsed parameters
# and returns the LineSet or SubspaceFamily to write; for a built-in line set,
# its lines-catalog row)
CONSTRUCTIONS = {
    "simplex-lines": (
        {"n": int},
        lambda c, io, p: c.simplex_lines(p["n"]),
        {"ambient": "n >= 2", "size": "n + 1", "common_cos": "1/n"},
    ),
    "icosahedral-lines": (
        {},
        lambda c, io, p: c.icosahedral_lines(),
        {"ambient": "n = 3", "size": "6", "common_cos": "1/sqrt(5)"},
    ),
    "orthonormal-lines": (
        {"n": int},
        lambda c, io, p: c.orthonormal_lines(p["n"]),
        {"ambient": "n >= 1", "size": "n", "common_cos": "0"},
    ),
    "lift": (
        {"k": int, "in": str},
        lambda c, io, p: c.lift_lines_to_subspaces(io.load_lineset(p["in"]), p["k"]),
        None,
    ),
    "chordal-lift": ({"in": str}, lambda c, io, p: c.chordal_lift(io.load_family(p["in"])), None),
    "plucker": ({"in": str}, lambda c, io, p: c.plucker_line_family(io.load_family(p["in"])), None),
}

LINE_CATALOG = tuple(
    {"kind": kind, **row} for kind, (_, _, row) in CONSTRUCTIONS.items() if row is not None
)


def cmd_construct(args) -> tuple:
    from . import constructions, family_io

    types, build, _ = CONSTRUCTIONS[args.kind]
    made = build(constructions, family_io, _parse_params(args.params, types))
    out = Path(args.out)
    family_io.save_family(out, made)
    if isinstance(made, constructions.LineSet):
        summary = f"{made.size} lines in R^{made.n}"
    else:
        summary = f"{len(made)} subspaces in Gr({made.k},{made.n})"
    return 0, None, [f"wrote {summary} to {out}"]


def cmd_certify(args) -> tuple:
    from .family_io import load_family
    from .verify import polynomial_certificate

    eps_angle = _tolerances(args)
    family = load_family(args.file)
    cert = polynomial_certificate(family, args.alpha, tol=args.tolerance, eps_angle=eps_angle)
    status = "CERTIFIED" if cert.verdict else "FAILED"
    lines = [
        f"members:             {cert.m}",
        f"alpha:               {cert.alpha:.12g} rad",
        f"lambda = cos^2:      {cert.lam:.12g}",
        f"diagonal target:     {cert.diagonal_target:.12g}",
        f"max diag deviation:  {cert.max_diag_deviation:.6g}",
        f"max off-diagonal:    {cert.max_offdiag:.6g}",
        f"bound:               {cert.bound}",
        f"verdict:             {status} (m={cert.m}, bound={cert.bound})",
    ]
    return 0 if cert.verdict else 1, cert.to_dict(), lines


def cmd_bounds(args) -> tuple:
    from .bounds import bound_table
    from .family_io import format_int

    rows = bound_table(args.k, args.n)
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {format_int(value)}" for name, value in rows]
    return 0, {"k": args.k, "n": args.n, "bounds": dict(rows)}, lines


def cmd_pack(args) -> tuple:
    from .family_io import format_float, read_json, save_packing_result
    from .packing import PackingProblem, solve

    problem = PackingProblem.from_dict(read_json(args.problem))
    result = solve(problem)
    out = Path(args.out) if args.out else Path(args.problem).with_suffix(".result.json")
    save_packing_result(out, problem, result)
    if args.history:
        lines = ["iteration,value"]
        lines += [f"{iteration},{format_float(value)}" for iteration, value in result.history]
        Path(args.history).write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = f"objective {result.objective_value:.12g} at iteration {result.best_iteration}"
    return 0, None, [f"{summary}; wrote {out}"]


def cmd_complement(args) -> tuple:
    from .constructions import complement_family
    from .family_io import load_family, save_family

    family = load_family(args.file)
    comp = complement_family(family)
    save_family(Path(args.out), comp)
    return 0, None, [f"wrote {len(comp)} subspaces in Gr({comp.k},{comp.n}) to {args.out}"]


def cmd_lines_catalog(args) -> tuple:
    lines = [
        f"{entry['kind']:<18} ambient {entry['ambient']:<8} "
        f"size {entry['size']:<6} |cos| = {entry['common_cos']}"
        for entry in LINE_CATALOG
    ]
    return 0, {"catalog": list(LINE_CATALOG)}, lines


def build_parser() -> argparse.ArgumentParser:
    # only the commands whose output has a JSON form offer --format
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    # only the commands that read eps_angle offer --tol
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override eps_angle (radians below which an angle counts as zero)",
    )

    parser = argparse.ArgumentParser(
        prog="grasspack",
        description="Principal angles, equiangular subspace families, and packing bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angles", parents=[common], help="principal angles of a member pair")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("distance", parents=[common, tol], help="distance of a member pair")
    p.add_argument("file")
    p.add_argument("metric", help=f"one of: {', '.join(m.cli_name for m in METRICS.values())}")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", parents=[common, tol], help="check pairwise equiangularity")
    p.add_argument("file")
    p.add_argument("metric")
    p.add_argument(
        "--tolerance", type=float, default=1e-8, help="max pairwise deviation accepted"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="generate a family file")
    p.add_argument("kind", choices=tuple(CONSTRUCTIONS))
    p.add_argument("params", nargs="*", help="key=value parameters, e.g. n=3 k=2 in=f.json")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", parents=[common, tol], help="determinant-polynomial certificate")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, required=True, help="common angle in radians")
    p.add_argument(
        "--tolerance", type=float, default=1e-8, help="entry tolerance before scaling"
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", parents=[common], help="upper/lower bound table for Gr(k, n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pack", help="run the annealing packer")
    p.add_argument("problem", help="packing problem JSON file")
    p.add_argument("-o", "--out", default=None, help="result file (default: <problem>.result.json)")
    p.add_argument("--history", default=None, help="also write the history as CSV")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("complement", help="member-wise orthogonal complement")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("lines-catalog", parents=[common], help="built-in line constructions")
    p.set_defaults(func=cmd_lines_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc, lines = args.func(args)
        # only the commands that offer --format return a document
        if doc is not None and args.format == "json":
            from .family_io import dumps_json

            sys.stdout.write(dumps_json(doc))
        else:
            print("\n".join(lines))
    # OSError: an output file; MemoryError: an array too large to allocate,
    # whose message numpy fills in and Python's own leaves empty
    except (GrasspackError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
