"""Run a fixed sweep of grasspack CLI commands and record what each one does.

    python tools/cli_sweep.py SRC OUT.json
    python tools/cli_sweep.py --compare A.json B.json

The first form runs every command of COMMANDS, in order, as
`python -m grasspack.cli ...` in a fresh temporary directory, with
PYTHONPATH=SRC (a checkout's `src/`) and OPENBLAS_NUM_THREADS=1.  For each
command it records the exit code, stdout, stderr and the SHA-256 of every
file the command wrote or changed, and writes them all to OUT.json.  Every
path in the sweep is relative to the temporary directory, so two source
trees that behave alike give identical records.

The second form compares two such records, prints each command whose exit
code, output or written files differ, and exits 1 if any do (0 otherwise).
Run it on two checkouts to check that a change keeps the CLI's behaviour
byte for byte.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("theta1", "thetaF", "thetaK", "chordal", "geodesic", "fubini-study")
FORMATS = ((), ("--format", "json"))
PI_3 = "1.0471975511965976"
ACOS_1_3 = "1.2309594173407747"  # the common angle of simplex_lines(3) and its lifts

# Inputs the sweep writes itself before the first command: two orthogonal
# planes in R^4 (a Fubini-Study-equiangular family for `plucker`), an empty
# family, three files that declare 10^6 x 10^6 members, a family of planes
# in R^4 that mixes orthonormal members with sloppy ones the reader cleans,
# four files whose first bad member follows a good or a sloppy one, a file
# that is not JSON, three packing problems, lines of R^2 at 0, 30 and 90
# degrees (a line file that is not equiangular), two pairs of lines of R^2
# near the distinctness rule (every principal angle at most 1e-10 rad):
# 1.2e-10 rad apart in a frame turned by pi/8, and 0.9e-10 rad apart, two
# members at tiny but distinct angles (planes of R^4 at principal angles
# 2e-9 and 5e-9, and lines of R^2 1e-8 rad apart), two members of
# Gr(120, 240) 1e-6 rad apart that are orthonormal only within 0.95e-10
# (their cosines reach 1 + 1.14e-8), two members of Gr(3, 6) at principal
# angles 0.001, 0.002 and 0.003 (whose certificates at alpha = 0.02 and
# 0.003 have their diagonal targets below their tolerances), and three
# documents nested too deeply for Python's recursion limit: a family file
# and a packing problem nested 200 000 lists deep, which `json.loads`
# cannot parse, and the planes above with metadata nested 600 lists deep,
# which load but which a file derived from them cannot write.
OVERSIZE = {"oversize-1x1.json": [[[1.0]]], "oversize-scalars.json": [1, 2, 3], "oversize-none.json": []}
PLANE = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
SLOPPY_PLANE = [[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]
RANK_ONE = [[1.0, 2.0], [0.0, 0.0], [2.0, 4.0]]
MISSHAPED = [[1.0, 0.0]]


def _line_pair(frame: float, angle: float) -> dict:
    members = [[math.cos(frame + t), math.sin(frame + t)] for t in (0.0, angle)]
    return {"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": members}


def _loose_pair(k: int, eps: float, angle: float) -> dict:
    # U^T U = I + eps J (J all ones): the first k rows are (I + eps J)^(1/2) = I + c J;
    # the second member turns the first column by `angle` into row k
    c = (math.sqrt(1.0 + k * eps) - 1.0) / k
    u = [[float(i == j) + c for j in range(k)] for i in range(k)] + [[0.0] * k for _ in range(k)]
    v = [[x * math.cos(angle) if j == 0 else x for j, x in enumerate(row)] for row in u]
    v[k][0] = math.sin(angle)
    return {"schema_version": "1", "kind": "subspaces", "n": 2 * k, "k": k, "members": [u, v]}


def _nested_lists(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


DEEP = "[" * 200_000 + "]" * 200_000
NESTED_TEXT = {
    "deep.json": DEEP,
    "deep-problem.json": f'{{"k": {DEEP}, "n": 2, "m": 3, "metric": "thetaK"}}',
}

ORDER = {
    "order-rank-shape.json": [PLANE, RANK_ONE, MISSHAPED],
    "order-shape-rank.json": [PLANE, MISSHAPED, RANK_ONE],
    "order-sloppy-shape.json": [PLANE, SLOPPY_PLANE, MISSHAPED],
    "order-sloppy-rank.json": [PLANE, SLOPPY_PLANE, RANK_ONE],
}
INPUTS = {
    "planes.json": {
        "schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "metadata": {},
        "members": [
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        ],
    },
    "empty.json": {"schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "members": []},
    "mixed.json": {
        "schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "metadata": {},
        "members": [
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[3.0, 1.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.5]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
            [[0.0, 0.6], [1.0 + 1e-9, 0.0], [0.0, 0.0], [0.0, 0.8]],
            [[0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, -0.5]],
        ],
    },
    **{
        name: {"schema_version": "1", "kind": "subspaces", "n": 3, "k": 2, "members": members}
        for name, members in ORDER.items()
    },
    **{
        name: {"schema_version": "1", "kind": "subspaces", "n": 1000000, "k": 1000000, "members": members}
        for name, members in OVERSIZE.items()
    },
    "lines-problem.json": {
        "k": 1, "n": 2, "m": 3, "metric": "thetaK", "seed": 3, "restarts": 2, "max_iters": 300,
    },
    "planes-problem.json": {
        "k": 2, "n": 4, "m": 4, "metric": "chordal", "objective": "equiangular_variance",
        "min_separation": 0.3, "seed": 1, "restarts": 2, "max_iters": 300,
    },
    "bad-problem.json": {"k": 1, "n": 2, "m": 1, "metric": "thetaK"},
    "skew-lines.json": {
        "schema_version": "1", "kind": "lines", "n": 2, "k": 1,
        "members": [[math.cos(t), math.sin(t)] for t in (0.0, math.pi / 6, math.pi / 2)],
    },
    "near-lines.json": _line_pair(math.pi / 8, 1.2e-10),
    "twin-lines.json": _line_pair(0.0, 0.9e-10),
    "planted-planes.json": {
        "schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "metadata": {},
        "members": [
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[math.cos(2e-9), 0.0], [0.0, math.cos(5e-9)],
             [math.sin(2e-9), 0.0], [0.0, math.sin(5e-9)]],
        ],
    },
    "tiny-lines.json": _line_pair(0.0, 1e-8),
    "loose-pair.json": _loose_pair(120, 0.95e-10, 1e-6),
    "close-planes.json": {
        "schema_version": "1", "kind": "subspaces", "n": 6, "k": 3,
        "members": [
            [[float(i == j) for j in range(3)] for i in range(6)],
            [[math.cos(t) * (i == j) + math.sin(t) * (i == j + 3) for j, t in enumerate((1e-3, 2e-3, 3e-3))]
             for i in range(6)],
        ],
    },
}
INPUTS["deep-metadata.json"] = dict(INPUTS["planes.json"], metadata={"nested": _nested_lists(600)})
NOT_JSON = "not-json.json"


def _commands() -> list[list[str]]:
    commands = [
        # every construct kind; the files feed the commands below
        ["construct", "simplex-lines", "n=2", "-o", "lines.json"],
        ["construct", "simplex-lines", "n=3", "-o", "lines3.json"],
        ["construct", "icosahedral-lines", "-o", "ico.json"],
        ["construct", "orthonormal-lines", "n=4", "-o", "ortho.json"],
        ["construct", "lift", "k=2", "in=lines.json", "-o", "lift.json"],
        ["construct", "lift", "k=3", "in=lines3.json", "-o", "lift3.json"],
        ["construct", "lift", "k=2", "in=ico.json", "-o", "liftico.json"],
        ["construct", "chordal-lift", "in=lift.json", "-o", "chordal.json"],
        ["construct", "plucker", "in=planes.json", "-o", "plucker.json"],
        ["complement", "lift.json", "-o", "comp.json"],
        ["complement", "chordal.json", "-o", "compchordal.json"],
        ["complement", "lift3.json", "-o", "comp3.json"],
        ["complement", "mixed.json", "-o", "compmixed.json"],
        # construct errors: bad, missing, repeated, unknown and malformed
        # parameters, an unknown kind, bad inputs
        ["construct", "simplex-lines", "n=abc", "-o", "x.json"],
        ["construct", "simplex-lines", "-o", "x.json"],
        ["construct", "lift", "-o", "x.json"],
        ["construct", "lift", "k=2", "-o", "x.json"],
        ["construct", "simplex-lines", "n=3", "n=5", "-o", "x.json"],
        ["construct", "simplex-lines", "n=2", "m=1", "-o", "x.json"],
        ["construct", "icosahedral-lines", "n=3", "-o", "x.json"],
        ["construct", "simplex-lines", "n", "-o", "x.json"],
        ["construct", "simplex-lines", "n=1", "-o", "x.json"],
        ["construct", "orthonormal-lines", "n=0", "-o", "x.json"],
        ["construct", "nosuch", "-o", "x.json"],
        ["construct", "lift", "k=2", "in=nosuch.json", "-o", "x.json"],
        ["construct", "lift", "k=2", "in=lift.json", "-o", "x.json"],
        ["construct", "chordal-lift", f"in={NOT_JSON}", "-o", "x.json"],
        ["construct", "plucker", "in=lift.json", "-o", "x.json"],
        # a 343-member Gr(3,18) lift that is not Fubini-Study-equiangular
        ["construct", "simplex-lines", "n=6", "-o", "lines6.json"],
        ["construct", "lift", "k=3", "in=lines6.json", "-o", "lift6.json"],
        ["construct", "plucker", "in=lift6.json", "-o", "x.json"],
        # line files that are not equiangular, and lines whose |cos| rounds to 1
        ["construct", "lift", "k=2", "in=skew-lines.json", "-o", "x.json"],
        ["construct", "lift", "k=2", "in=near-lines.json", "-o", "x.json"],
        ["construct", "plucker", "in=empty.json", "-o", "x.json"],
        ["construct", "simplex-lines", "n=2", "-o", "missing-dir/x.json"],
        ["construct", "simplex-lines", "n=2"],
    ]
    # angles, distance and verify under every metric, in text and JSON, on a
    # line file, a lift, a chordal lift and a complement
    for name in ("lines.json", "lift.json", "chordal.json", "comp.json"):
        for fmt in FORMATS:
            commands.append(["angles", name, "0", "1", *fmt])
            for metric in METRICS:
                commands.append(["distance", name, metric, "0", "1", *fmt])
                commands.append(["verify", name, metric, *fmt])
    commands += [
        ["angles", "lift.json", "0", "4"],
        ["angles", "lift.json", "0", "9"],
        ["distance", "lift.json", "thetaF", "0", "4", "--tol", "1e-6"],
        ["distance", "lift.json", "thetaF", "0", "4", "--tol", "0.5"],
        ["distance", "lift.json", "spectral", "0", "4"],
        ["verify", "lift3.json", "thetaF", "--format", "json"],
        ["verify", "comp3.json", "thetaF"],
        ["verify", "liftico.json", "chordal", "--tolerance", "0"],
        ["verify", "lift.json", "thetaF", "--tolerance", "nan"],
        ["verify", "empty.json", "thetaF"],
        # sloppy members cleaned on load; the first bad member names the error
        *(["verify", name, metric, *fmt] for name in ("mixed.json", "compmixed.json")
          for metric in ("chordal", "thetaF") for fmt in FORMATS),
        *(["verify", name, "chordal"] for name in ORDER),
        ["verify", "nosuch.json", "thetaF"],
        ["verify", NOT_JSON, "thetaF"],
        ["angles", "lift.json", "0", "1", "--tol", "1e-6"],
        # certify: pass, fail and bad alphas
        ["certify", "lift.json", "--alpha", PI_3],
        ["certify", "lift.json", "--alpha", PI_3, "--format", "json"],
        ["certify", "lift.json", "--alpha", "1.0"],
        ["certify", "lift.json", "--alpha", "1.0", "--format", "json"],
        ["certify", "lines.json", "--alpha", PI_3, "--format", "json"],
        ["certify", "comp.json", "--alpha", PI_3],
        ["certify", "ortho.json", "--alpha", "1.5707963267948966", "--format", "json"],
        ["certify", "lift.json", "--alpha", "0"],
        ["certify", "lift.json", "--alpha", "2"],
        ["certify", "empty.json", "--alpha", PI_3],
        # 64 members: beyond the size whose evaluation matrix is kept
        *(["certify", name, "--alpha", ACOS_1_3, *fmt] for name in ("lift3.json", "comp3.json")
          for fmt in FORMATS),
        # members the declared shape would size to terabytes
        *([command, name, *args] for name in OVERSIZE
          for command, *args in (("verify", "thetaF"), ("certify", "--alpha", PI_3))),
        # bounds at four shapes and two bad ones; de Caen's n = 5 and n = 23 at
        # k = 1, k = n - 1 and other k; the catalog, help and usage
        *(["bounds", k, n, *fmt] for k, n in (("1", "7"), ("2", "4"), ("2", "6"), ("3", "9"),
                                               ("1", "5"), ("2", "5"), ("4", "5"), ("5", "5"),
                                               ("1", "23"), ("22", "23"), ("0", "3"))
          for fmt in FORMATS),
        ["bounds", "3", "2"],
        ["lines-catalog"],
        ["lines-catalog", "--format", "json"],
        ["--help"],
        ["construct", "--help"],
        ["distance", "--help"],
        [],
        ["complement", "lift.json", "-o", "comp.json", "--format", "json"],
        # pack: two small runs with a history, a bad problem, an unwritable -o
        ["pack", "lines-problem.json", "-o", "lines-result.json", "--history", "lines.csv"],
        ["pack", "planes-problem.json", "--history", "planes.csv"],
        ["pack", "bad-problem.json", "-o", "bad-result.json"],
        ["pack", "lines-problem.json", "-o", "missing-dir/result.json"],
        # a pack result reads as the family it holds
        ["verify", "planes-problem.result.json", "chordal"],
        ["certify", "planes-problem.result.json", "--alpha", "1.0"],
        ["verify", "lines-result.json", "thetaK"],
        ["certify", "lines-result.json", "--alpha", PI_3],
        # lines just beyond and just within the distinctness rule
        *(argv for name in ("near-lines.json", "twin-lines.json")
          for argv in (["verify", name, "thetaK"], ["verify", name, "thetaK", "--format", "json"],
                       ["complement", name, "-o", f"comp-{name}"])),
        # documents nested too deeply: unreadable inputs, and metadata that
        # loads (verify) but that no derived file can hold
        ["verify", "deep.json", "thetaF"],
        ["pack", "deep-problem.json", "-o", "deep-result.json"],
        ["verify", "deep-metadata.json", "chordal"],
        ["complement", "deep-metadata.json", "-o", "comp-deep.json"],
        ["construct", "chordal-lift", "in=deep-metadata.json", "-o", "chordal-deep.json"],
        # members at tiny but distinct angles, under every metric
        *(argv for name in ("planted-planes.json", "tiny-lines.json") for fmt in FORMATS
          for argv in (*(["distance", name, metric, "0", "1", *fmt] for metric in METRICS),
                       ["verify", name, "fubini-study", *fmt])),
        # members orthonormal within EPS_ORTH whose cosines exceed 1 + CLAMP_SLACK
        *(argv for fmt in FORMATS
          for argv in (["angles", "loose-pair.json", "0", "1", *fmt],
                       ["distance", "loose-pair.json", "chordal", "0", "1", *fmt],
                       *(["verify", "loose-pair.json", metric, *fmt] for metric in ("thetaF", "fubini-study")))),
        # certificates whose diagonal target lies below their tolerance
        *(["certify", "close-planes.json", "--alpha", alpha, *fmt] for alpha in ("0.02", "0.003")
          for fmt in FORMATS),
        # a bound with more digits than Python's int-to-str limit allows
        *(["bounds", "2000", "4000", *fmt] for fmt in FORMATS),
    ]
    return commands


def _hashes(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def sweep(src: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1", COLUMNS="80")
    records = []
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as tmp:
        root = Path(tmp)
        for name, doc in INPUTS.items():
            (root / name).write_text(json.dumps(doc), encoding="utf-8")
        for name, text in {NOT_JSON: "{not json", **NESTED_TEXT}.items():
            (root / name).write_text(text, encoding="utf-8")
        for argv in _commands():
            before = _hashes(root)
            proc = subprocess.run(
                [sys.executable, "-m", "grasspack.cli", *argv],
                cwd=root, env=env, capture_output=True, text=True, timeout=300,
            )
            after = _hashes(root)
            records.append({
                "argv": argv,
                "exit": proc.returncode,
                "stdout": proc.stdout,
                "stderr": proc.stderr,
                "files": {name: digest for name, digest in after.items() if before.get(name) != digest},
            })
    return records


def compare(a: list[dict], b: list[dict]) -> int:
    """Print every command whose records differ; return how many do."""
    keyed_b = {json.dumps(record["argv"]): record for record in b}
    differing = 0
    for record in a:
        key = json.dumps(record["argv"])
        other = keyed_b.pop(key, None)
        if other is None:
            fields = ["missing from the second sweep"]
        else:
            fields = [field for field in ("exit", "stdout", "stderr", "files") if record[field] != other[field]]
        if fields:
            differing += 1
            print(f"{' '.join(record['argv']) or '(no arguments)'}: {', '.join(fields)}")
    for key in keyed_b:
        differing += 1
        print(f"{' '.join(json.loads(key)) or '(no arguments)'}: missing from the first sweep")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true", help="compare two sweep records")
    parser.add_argument("first", help="SRC directory to sweep, or the first record with --compare")
    parser.add_argument("second", help="OUT.json to write, or the second record with --compare")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in (args.first, args.second))
        differing = compare(a, b)
        print(f"{differing} of {len(a)} commands differ")
        return 1 if differing else 0
    records = sweep(Path(args.first))
    Path(args.second).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"ran {len(records)} commands; wrote {args.second}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
