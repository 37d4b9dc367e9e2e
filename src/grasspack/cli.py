"""grasspack command line: angles, distances, constructions, verification,
certificates, bound tables, packing runs, and complements over FamilyFile JSON.

Exit codes are a scripting contract: 0 for success / verdict true, 1 for
verdict false, 2 for usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .constructions import (
    chordal_lift,
    complement_family,
    icosahedral_lines,
    lift_lines_to_subspaces,
    orthonormal_lines,
    plucker_line_family,
    simplex_lines,
)
from .errors import (
    BadParamsError,
    GrasspackError,
    IndexOutOfRangeError,
    UnknownKindError,
)
from .family_io import (
    dumps_json,
    family_to_doc,
    format_float,
    load_family,
    load_lineset,
    read_json,
    save_family,
    save_lineset,
)
from .grassmann import principal_angles
from .linalg import EPS_ANGLE, check_eps_angle
from .metrics import METRICS, evaluate, get_metric
from .packing import PackingProblem, solve
from .verify import (
    bound_blokhuis,
    bound_chordal,
    bound_decaen,
    bound_fubini_study,
    bound_gerzon,
    bound_lemmens_seidel,
    bound_angle_distance,
    polynomial_certificate,
    check_equiangular,
)

SEED_ENV_VAR = "GRASSPACK_SEED"

LINE_CATALOG = (
    {
        "kind": "simplex-lines",
        "ambient": "n >= 2",
        "size": "n + 1",
        "common_cos": "1/n",
    },
    {
        "kind": "icosahedral-lines",
        "ambient": "n = 3",
        "size": "6",
        "common_cos": "1/sqrt(5)",
    },
    {
        "kind": "orthonormal-lines",
        "ambient": "n >= 1",
        "size": "n",
        "common_cos": "0",
    },
)


def _tolerances(args) -> float:
    """The eps_angle that --tol sets (EPS_ANGLE when absent)."""
    return EPS_ANGLE if args.tol is None else check_eps_angle(args.tol)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise BadParamsError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _print_doc(doc: dict, args) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_json(doc))


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
        try:
            params[key] = allowed[key](raw)
        except ValueError:
            raise BadParamsError(f"bad value for {key}: {raw!r}") from None
    return params


def _require(params: dict, *names: str) -> None:
    missing = [name for name in names if name not in params]
    if missing:
        raise BadParamsError(f"missing parameters: {missing}")


def cmd_angles(args) -> int:
    _tolerances(args)  # range-checked only: the angles do not depend on eps_angle
    family = load_family(args.file)
    u, v = _member_pair(family, args.i, args.j)
    spectrum = principal_angles(u, v)
    if args.format == "json":
        _print_doc(
            {
                "i": args.i,
                "j": args.j,
                "angles_rad": spectrum.tolist(),
                "angles_deg": np.degrees(spectrum).tolist(),
            },
            args,
        )
    else:
        for idx, angle in enumerate(spectrum, start=1):
            print(f"theta_{idx} = {angle:.6f} rad ({math.degrees(angle):.4f} deg)")
    return 0


def cmd_distance(args) -> int:
    eps_angle = _tolerances(args)
    metric = get_metric(args.metric)
    family = load_family(args.file)
    u, v = _member_pair(family, args.i, args.j)
    value = evaluate(metric, u, v, eps_angle)
    if args.format == "json":
        _print_doc({"metric": metric.id, "i": args.i, "j": args.j, "value": value}, args)
    else:
        print(f"{metric.cli_name}({args.i}, {args.j}) = {value:.12g}")
    return 0


def cmd_verify(args) -> int:
    eps_angle = _tolerances(args)
    metric = get_metric(args.metric)
    family = load_family(args.file)
    report = check_equiangular(family, metric, tol=args.tolerance, eps_angle=eps_angle)
    if args.format == "json":
        _print_doc(report.to_dict(), args)
    else:
        print(f"metric:         {metric.cli_name}")
        print(f"pairs:          {report.pair_count}")
        print(f"common value:   {report.common_value:.12g}")
        print(f"max deviation:  {report.max_deviation:.6g}")
        print(f"tolerance:      {report.tolerance:.6g}")
        print(f"verdict:        {'EQUIANGULAR' if report.verdict else 'NOT EQUIANGULAR'}")
    return 0 if report.verdict else 1


def cmd_construct(args) -> int:
    kind = args.kind
    out = Path(args.out)
    if kind == "simplex-lines":
        params = _parse_params(args.params, {"n": int})
        _require(params, "n")
        lines = simplex_lines(params["n"])
        save_lineset(out, lines, {"construction": kind, "n": params["n"]})
        summary = f"{lines.size} lines in R^{lines.n}"
    elif kind == "icosahedral-lines":
        _parse_params(args.params, {})
        lines = icosahedral_lines()
        save_lineset(out, lines, {"construction": kind})
        summary = f"{lines.size} lines in R^{lines.n}"
    elif kind == "orthonormal-lines":
        params = _parse_params(args.params, {"n": int})
        _require(params, "n")
        lines = orthonormal_lines(params["n"])
        save_lineset(out, lines, {"construction": kind, "n": params["n"]})
        summary = f"{lines.size} lines in R^{lines.n}"
    elif kind == "lift":
        params = _parse_params(args.params, {"k": int, "in": str})
        _require(params, "k", "in")
        lines = load_lineset(params["in"])
        family = lift_lines_to_subspaces(lines, params["k"])
        save_family(out, family)
        summary = f"{len(family)} subspaces in Gr({family.k},{family.n})"
    elif kind == "chordal-lift":
        params = _parse_params(args.params, {"in": str})
        _require(params, "in")
        family = chordal_lift(load_family(params["in"]))
        save_family(out, family)
        summary = f"{len(family)} subspaces in Gr({family.k},{family.n})"
    elif kind == "plucker":
        params = _parse_params(args.params, {"in": str})
        _require(params, "in")
        family = load_family(params["in"])
        lines = plucker_line_family(family)
        save_lineset(
            out, lines, {"construction": kind, "source_k": family.k, "source_n": family.n}
        )
        summary = f"{lines.size} lines in R^{lines.n}"
    else:
        raise UnknownKindError(f"unknown construction kind {kind!r}")
    print(f"wrote {summary} to {out}")
    return 0


def cmd_certify(args) -> int:
    eps_angle = _tolerances(args)
    family = load_family(args.file)
    cert = polynomial_certificate(family, args.alpha, tol=args.tolerance, eps_angle=eps_angle)
    if args.format == "json":
        _print_doc(cert.to_dict(), args)
    else:
        print(f"members:             {cert.m}")
        print(f"alpha:               {cert.alpha:.12g} rad")
        print(f"lambda = cos^2:      {cert.lam:.12g}")
        print(f"diagonal target:     {cert.diagonal_target:.12g}")
        print(f"max diag deviation:  {cert.max_diag_deviation:.6g}")
        print(f"max off-diagonal:    {cert.max_offdiag:.6g}")
        print(f"bound:               {cert.bound}")
        status = "CERTIFIED" if cert.verdict else "FAILED"
        print(f"verdict:             {status} (m={cert.m}, bound={cert.bound})")
    return 0 if cert.verdict else 1


def _decaen_row(n: int):
    # n = 3 * 2^(2t-1) - 1 for some t >= 1
    if (n + 1) % 3 != 0:
        return None
    q = (n + 1) // 3
    if q <= 0 or q & (q - 1) != 0:
        return None
    exponent = q.bit_length() - 1
    if exponent % 2 == 0:
        return None
    return bound_decaen((exponent + 1) // 2)[1]


def cmd_bounds(args) -> int:
    k, n = args.k, args.n
    if not 1 <= k <= n:
        raise BadParamsError(f"need 1 <= k <= n, got k={k}, n={n}")
    rows: list[tuple[str, int]] = []
    if k == 1:
        rows.append(("gerzon", bound_gerzon(n)))
    rows.append(("angle-distance", bound_angle_distance(k, n)))
    if k == 2:
        rows.append(("blokhuis", bound_blokhuis(n)))
    rows.append(("chordal", bound_chordal(n)))
    rows.append(("fubini-study", bound_fubini_study(k, n)))
    rows.append(("lemmens-seidel", bound_lemmens_seidel(k, n)))
    decaen = _decaen_row(n)
    if decaen is not None:
        rows.append(("decaen-lower", decaen))
    if args.format == "json":
        _print_doc({"k": k, "n": n, "bounds": dict(rows)}, args)
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")
    return 0


def cmd_pack(args) -> int:
    doc = read_json(args.problem)
    problem = PackingProblem.from_dict(doc, default_seed=_default_seed())
    result = solve(problem)
    out = Path(args.out) if args.out else Path(args.problem).with_suffix(".result.json")
    result_doc = {
        "schema_version": "1",
        "kind": "packing_result",
        "problem": problem.to_dict(),
        "objective_value": result.objective_value,
        "best_iteration": result.best_iteration,
        "history": [[iteration, value] for iteration, value in result.history],
        "family": family_to_doc(result.family),
    }
    Path(out).write_text(dumps_json(result_doc), encoding="utf-8")
    if args.history:
        lines = ["iteration,value"]
        lines += [f"{iteration},{format_float(value)}" for iteration, value in result.history]
        Path(args.history).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"objective {result.objective_value:.12g} at iteration "
        f"{result.best_iteration}; wrote {out}"
    )
    return 0


def cmd_complement(args) -> int:
    _tolerances(args)  # range-checked only: complements do not depend on eps_angle
    family = load_family(args.file)
    comp = complement_family(family)
    save_family(Path(args.out), comp)
    print(f"wrote {len(comp)} subspaces in Gr({comp.k},{comp.n}) to {args.out}")
    return 0


def cmd_lines_catalog(args) -> int:
    if args.format == "json":
        _print_doc({"catalog": list(LINE_CATALOG)}, args)
    else:
        for entry in LINE_CATALOG:
            print(
                f"{entry['kind']:<18} ambient {entry['ambient']:<8} "
                f"size {entry['size']:<6} |cos| = {entry['common_cos']}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    # only the commands that read or range-check eps_angle offer --tol
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

    p = sub.add_parser("angles", parents=[common, tol], help="principal angles of a member pair")
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

    p = sub.add_parser("construct", parents=[common], help="generate a family file")
    p.add_argument(
        "kind",
        choices=(
            "simplex-lines",
            "icosahedral-lines",
            "orthonormal-lines",
            "lift",
            "chordal-lift",
            "plucker",
        ),
    )
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

    p = sub.add_parser("pack", parents=[common], help="run the annealing packer")
    p.add_argument("problem", help="packing problem JSON file")
    p.add_argument("-o", "--out", default=None, help="result file (default: <problem>.result.json)")
    p.add_argument("--history", default=None, help="also write the history as CSV")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("complement", parents=[common, tol], help="member-wise orthogonal complement")
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
        return args.func(args)
    except GrasspackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
