"""What `import grasspack` and each CLI command load.

The package exports its names lazily and the CLI imports the numerical
modules inside the commands that call them, so the commands that only print
(`bounds`, `lines-catalog`, `--help`, usage errors) start without numpy, and
without `dataclasses` or `inspect`, since the metric registry's `Metric` is a
namedtuple.
The checks run in fresh interpreters, where nothing else has loaded a
module yet.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grasspack
from grasspack.cli import main

SRC = str(Path(grasspack.__file__).resolve().parents[1])

# Runs each argv list of argv[2] (JSON) through cli.main and prints one JSON
# list of [stdout, stderr, exit code] per command, then one JSON list naming
# which of `dataclasses` and `inspect` are loaded after them; with
# argv[1] == "block" any import of numpy raises ImportError, which main does
# not catch.
RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from grasspack.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
print(json.dumps([m for m in ("dataclasses", "inspect") if m in sys.modules]))
"""

# Runs one command and prints, as its last stdout line, the exit code and the
# grasspack modules that were loaded.
LOADED_MODULES = """
import json, sys
from grasspack.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("grasspack"))]))
"""


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_every_export_resolves_to_its_defining_module():
    for name in grasspack.__all__:
        module = importlib.import_module(f"grasspack.{grasspack._EXPORTS[name]}")
        obj = getattr(grasspack, name)
        assert obj is getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name


PUBLIC = [
    "Certificate", "EPS_ANGLE", "EquiangularReport", "EquiisoclinicReport", "LineSet",
    "METRICS", "Metric", "PackingProblem", "PackingResult", "Subspace", "SubspaceFamily",
    "bound_angle_distance", "bound_blokhuis", "bound_chordal", "bound_decaen",
    "bound_fubini_study", "bound_gerzon", "bound_lemmens_seidel", "check_equiangular",
    "check_equiisoclinic", "chordal_lift", "complement_family", "evaluate", "get_metric",
    "icosahedral_lines", "lift_lines_to_subspaces", "orthonormal_lines", "orthonormalize",
    "perturb", "plucker_line_family", "polynomial_certificate", "principal_angles",
    "random_subspace", "simplex_lines", "size_chrss", "solve", "subspace_from_spanning",
]

# Names the library no longer defines, by the module that held each: the
# test oracles among them live in tests/_oracles.py.
REMOVED = {
    "errors": ["NotSymmetricError"],
    "linalg": ["symmetric_eigenvalues", "singular_values", "determinant"],
    "grassmann": ["projection_matrix", "complement", "complement_duality_check"],
    "constructions": ["plucker_embed"],
    "metrics": ["chordal", "fubini_study_from_spectrum", "from_spectrum"],
}


def test_public_surface_is_pinned():
    assert sorted(grasspack.__all__) == PUBLIC
    for module, names in REMOVED.items():
        for name in names:
            with pytest.raises(AttributeError, match=f"'{name}'"):
                getattr(grasspack, name)
            assert not hasattr(importlib.import_module(f"grasspack.{module}"), name)


def test_dir_and_star_import_cover_all():
    assert set(grasspack.__all__) <= set(dir(grasspack))
    namespace: dict = {}
    exec("from grasspack import *", namespace)
    assert set(grasspack.__all__) <= set(namespace)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'nosuch'"):
        grasspack.nosuch


def test_import_grasspack_loads_no_numpy():
    proc = _python("-c", "import sys, grasspack; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_printing_commands_run_without_numpy():
    commands = [
        ["lines-catalog"],
        ["lines-catalog", "--format", "json"],
        ["bounds", "1", "7"],
        ["bounds", "2", "6"],
        ["bounds", "2", "4", "--format", "json"],
        ["--help"],
        ["distance", "--help"],
        ["construct", "nosuch", "-o", "x"],
    ]
    runs, loaded = {}, {}
    for mode in ("block", "allow"):
        lines = _python("-c", RUN_COMMANDS, mode, json.dumps(commands)).stdout.splitlines()
        runs[mode], loaded[mode] = map(json.loads, lines)
    assert runs["block"] == runs["allow"]
    # typing is not checked: the interpreter's site hook may preload it.
    assert loaded == {"block": [], "allow": []}
    assert [code for _, _, code in runs["block"]] == [0, 0, 0, 0, 0, 0, 0, 2]
    assert json.loads(runs["block"][4][0])["bounds"]["angle-distance"] == 55
    assert "invalid choice: 'nosuch'" in runs["block"][-1][1]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup")
    assert main(["construct", "simplex-lines", "n=2", "-o", str(path / "lines.json")]) == 0
    assert main(["construct", "lift", "k=2", f"in={path / 'lines.json'}", "-o", str(path / "lift.json")]) == 0
    problem = {"k": 1, "n": 2, "m": 3, "metric": "thetaK", "restarts": 1, "max_iters": 50}
    (path / "problem.json").write_text(json.dumps(problem))
    return path


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify", "lift.json", "thetaF"], "grasspack.packing"),
        (["certify", "lift.json", "--alpha", "1.0471975511965976"], "grasspack.packing"),
        (["complement", "lift.json", "-o", "comp.json"], "grasspack.packing"),
        (["construct", "lift", "k=2", "in=lines.json", "-o", "lift2.json"], "grasspack.packing"),
        (["pack", "problem.json", "-o", "result.json"], "grasspack.verify"),
        (["pack", "problem.json", "-o", "result.json"], "grasspack.bounds"),
        (["complement", "lift.json", "-o", "comp.json"], "grasspack.bounds"),
    ],
)
def test_numeric_commands_skip_modules_they_do_not_call(work, argv, absent):
    last = _python("-c", LOADED_MODULES, *argv, cwd=work).stdout.splitlines()[-1]
    code, loaded = json.loads(last)
    assert code == 0
    assert absent not in loaded
    assert "grasspack.family_io" in loaded


@pytest.mark.parametrize("argv", [["lines-catalog"], ["--help"]])
def test_printing_commands_skip_bounds(argv):
    code, loaded = json.loads(_python("-c", LOADED_MODULES, *argv).stdout.splitlines()[-1])
    assert code == 0
    assert "grasspack.bounds" not in loaded
