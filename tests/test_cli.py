"""End-to-end CLI tests driving grasspack.cli.main in-process."""

import json
import math

import numpy as np
import pytest

from grasspack.cli import CONSTRUCTIONS, main
from grasspack.family_io import (
    dumps_json,
    family_to_doc,
    lineset_to_doc,
    load_family,
    load_lineset,
    parse_family_doc,
)
from grasspack.metrics import evaluate


@pytest.fixture()
def lines_file(tmp_path):
    path = tmp_path / "lines.json"
    assert main(["construct", "simplex-lines", "n=2", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def lift_file(tmp_path, lines_file):
    path = tmp_path / "lift.json"
    assert main(["construct", "lift", "k=2", f"in={lines_file}", "-o", str(path)]) == 0
    return path


def test_construct_simplex_lines(lines_file):
    lines = load_lineset(lines_file)
    assert lines.size == 3
    assert lines.common_cos == pytest.approx(0.5, abs=1e-12)


def test_construct_icosahedral_and_orthonormal(tmp_path):
    ico = tmp_path / "ico.json"
    assert main(["construct", "icosahedral-lines", "-o", str(ico)]) == 0
    assert load_lineset(ico).size == 6
    ortho = tmp_path / "ortho.json"
    assert main(["construct", "orthonormal-lines", "n=4", "-o", str(ortho)]) == 0
    assert load_lineset(ortho).common_cos == 0.0


def test_construct_lift(lift_file):
    family = load_family(lift_file)
    assert len(family) == 9
    assert (family.k, family.n) == (2, 4)


def test_construct_chordal_lift(tmp_path, lift_file):
    out = tmp_path / "clift.json"
    assert main(["construct", "chordal-lift", f"in={lift_file}", "-o", str(out)]) == 0
    family = load_family(out)
    assert (family.k, family.n) == (3, 5)


def test_construct_plucker(tmp_path):
    planes = {
        "schema_version": "1",
        "kind": "subspaces",
        "n": 4,
        "k": 2,
        "members": [
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        ],
        "metadata": {},
    }
    src = tmp_path / "planes.json"
    src.write_text(dumps_json(planes))
    out = tmp_path / "plucker.json"
    assert main(["construct", "plucker", f"in={src}", "-o", str(out)]) == 0
    lines = load_lineset(out)
    assert lines.size == 2
    assert lines.n == 6
    assert lines.common_cos == pytest.approx(0.0, abs=1e-12)
    metadata = json.loads(out.read_text())["metadata"]
    assert metadata == {
        "common_cos": 0.0, "construction": "plucker", "source_k": 2, "source_n": 4
    }


def test_construct_plucker_empty_family_exit_2(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text(
        dumps_json(
            {"schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "members": [], "metadata": {}}
        )
    )
    out = tmp_path / "plucker.json"
    assert main(["construct", "plucker", f"in={src}", "-o", str(out)]) == 2
    assert "at least one family member" in capsys.readouterr().err
    assert not out.exists()


# every construct kind's parameters (a lift of the n = 2 simplex lines, and its
# first three members: they share a slot, so they are FS-equiangular)
CONSTRUCT_ARGS = {
    "simplex-lines": lambda lines, lift: ["n=3"],
    "icosahedral-lines": lambda lines, lift: [],
    "orthonormal-lines": lambda lines, lift: ["n=4"],
    "lift": lambda lines, lift: ["k=2", f"in={lines}"],
    "chordal-lift": lambda lines, lift: [f"in={lift}"],
    "plucker": lambda lines, lift: [f"in={_first_members(lift, 3)}"],
}


def _first_members(path, count):
    doc = json.loads(path.read_text())
    out = path.with_name(f"first{count}.json")
    out.write_text(dumps_json(dict(doc, members=doc["members"][:count])))
    return out


def _reloaded_bytes(path) -> bytes:
    """The file's bytes after loading it and dumping what was loaded."""
    doc = json.loads(path.read_text())
    if doc["kind"] == "lines":
        # common_cos is measured again on load, not copied from the file
        extra = {key: value for key, value in doc["metadata"].items() if key != "common_cos"}
        return dumps_json(lineset_to_doc(load_lineset(path), extra)).encode()
    return dumps_json(family_to_doc(load_family(path))).encode()


def test_construct_args_cover_every_kind():
    assert set(CONSTRUCT_ARGS) == set(CONSTRUCTIONS)


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(
            kind,
            marks=pytest.mark.xfail(
                strict=True,
                reason="-0.0 is written as the JSON integer -0, which loads as +0.0",
            ),
        )
        if kind in ("icosahedral-lines", "plucker")  # sign-fixed rows with zero entries
        else kind
        for kind in CONSTRUCT_ARGS
    ],
)
def test_constructed_file_reloads_to_the_same_bytes(tmp_path, lines_file, lift_file, kind):
    out = tmp_path / "made.json"
    assert main(["construct", kind, *CONSTRUCT_ARGS[kind](lines_file, lift_file), "-o", str(out)]) == 0
    assert _reloaded_bytes(out) == out.read_bytes()


def test_complement_and_pack_files_reload_to_the_same_bytes(tmp_path, lift_file):
    comp = tmp_path / "complement.json"
    assert main(["complement", str(lift_file), "-o", str(comp)]) == 0
    assert _reloaded_bytes(comp) == comp.read_bytes()
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"k": 2, "n": 4, "m": 4, "metric": "chordal", "seed": 1, "restarts": 2, "max_iters": 400})
    )
    result = tmp_path / "result.json"
    assert main(["pack", str(problem), "-o", str(result)]) == 0
    doc = json.loads(result.read_text())
    doc["family"] = family_to_doc(parse_family_doc(doc["family"]))
    assert dumps_json(doc).encode() == result.read_bytes()


def test_construct_bad_params_exit_2(tmp_path):
    out = tmp_path / "x.json"
    assert main(["construct", "simplex-lines", "-o", str(out)]) == 2  # n missing
    assert main(["construct", "simplex-lines", "n=abc", "-o", str(out)]) == 2
    assert main(["construct", "simplex-lines", "n=2", "m=1", "-o", str(out)]) == 2


def test_angles_orthogonal_lines(tmp_path, capsys):
    ortho = tmp_path / "ortho.json"
    main(["construct", "orthonormal-lines", "n=2", "-o", str(ortho)])
    capsys.readouterr()
    assert main(["angles", str(ortho), "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "1.570796 rad" in out
    assert "90.0000 deg" in out


def test_angles_json_format(lift_file, capsys):
    assert main(["angles", str(lift_file), "0", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["angles_rad"] == pytest.approx([np.pi / 3, np.pi / 3], abs=1e-9)


def test_angles_planes_in_r3_share_a_line(tmp_path, capsys):
    # any two planes in R^3 intersect, so theta_1 = 0 is always reported
    rng = np.random.default_rng(8)
    from grasspack.constructions import SubspaceFamily
    from grasspack.family_io import save_family
    from grasspack.grassmann import random_subspace

    family = SubspaceFamily(2, 3, tuple(random_subspace(3, 2, rng) for _ in range(3)))
    path = tmp_path / "planes3.json"
    save_family(path, family)
    for j in (1, 2):
        assert main(["angles", str(path), "0", str(j), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["angles_rad"][0] == pytest.approx(0.0, abs=1e-7)


def test_angles_index_out_of_range(lines_file):
    assert main(["angles", str(lines_file), "0", "7"]) == 2


def test_distance_command(lift_file, capsys):
    assert main(["distance", str(lift_file), "thetaF", "0", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(np.pi / 3, abs=1e-9)


@pytest.mark.parametrize("metric", ["theta1", "thetaF", "thetaK", "chordal", "geodesic", "fubini-study"])
def test_distance_every_metric_prints_a_number(lift_file, metric, capsys):
    expected = evaluate(metric, *load_family(lift_file)[0:5:4])
    assert main(["distance", str(lift_file), metric, "0", "4", "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert isinstance(value, float)
    assert value == pytest.approx(float(expected), abs=1e-12)
    assert main(["distance", str(lift_file), metric, "0", "4"]) == 0
    assert float(capsys.readouterr().out.rsplit("=", 1)[1]) == pytest.approx(value, abs=1e-11)


def test_distance_respects_tol_flag(tmp_path, capsys):
    # two lines at 1e-5 rad: thetaF reports it, unless --tol treats it as zero
    t = 1e-5
    doc = {
        "schema_version": "1",
        "kind": "lines",
        "n": 2,
        "k": 1,
        "members": [[1.0, 0.0], [math.cos(t), math.sin(t)]],
        "metadata": {},
    }
    path = tmp_path / "near.json"
    path.write_text(dumps_json(doc))
    assert main(["distance", str(path), "thetaF", "0", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(t, rel=1e-3)
    assert main(
        ["distance", str(path), "thetaF", "0", "1", "--format", "json", "--tol", "1e-4"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0
    # two planes of R^4 at principal angles 2e-9 and 5e-9, resolved under --tol 1e-10
    a, b = 2e-9, 5e-9
    doc = {
        "schema_version": "1",
        "kind": "subspaces",
        "n": 4,
        "k": 2,
        "members": [
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[math.cos(a), 0.0], [0.0, math.cos(b)], [math.sin(a), 0.0], [0.0, math.sin(b)]],
        ],
        "metadata": {},
    }
    path = tmp_path / "planted.json"
    path.write_text(dumps_json(doc))
    assert main(
        ["distance", str(path), "thetaF", "0", "1", "--format", "json", "--tol", "1e-10"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(a, rel=1e-6)


@pytest.mark.parametrize("command", ["distance", "verify", "certify"])
@pytest.mark.parametrize("bad", ["0", "-1e-8", "0.5", "nan"])
def test_tol_out_of_range_exit_2(lift_file, tmp_path, command, bad, capsys):
    args = {
        "distance": ["distance", str(lift_file), "thetaF", "0", "1"],
        "verify": ["verify", str(lift_file), "thetaF"],
        "certify": ["certify", str(lift_file), "--alpha", "1.0"],
    }[command]
    assert main(args + [f"--tol={bad}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: eps_angle must lie in (0, 1e-2), got {float(bad)!r}\n"


def test_verify_exit_codes(lines_file, lift_file):
    assert main(["verify", str(lines_file), "thetaK"]) == 0
    assert main(["verify", str(lift_file), "thetaF"]) == 0
    assert main(["verify", str(lift_file), "theta1"]) == 1
    assert main(["verify", str(lift_file), "nosuchmetric"]) == 2


def test_verify_single_member_exit_2(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "lines",
        "n": 2,
        "k": 1,
        "members": [[1.0, 0.0]],
        "metadata": {},
    }
    path = tmp_path / "single.json"
    path.write_text(dumps_json(doc))
    assert main(["verify", str(path), "thetaK"]) == 2


def test_verify_json_report(lift_file, capsys):
    assert main(["verify", str(lift_file), "thetaF", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is True
    assert doc["pair_count"] == 36
    assert doc["common_value"] == pytest.approx(np.pi / 3, abs=1e-9)


def test_certify_lift_family(lift_file, capsys):
    alpha = str(np.pi / 3)
    assert main(["certify", str(lift_file), "--alpha", alpha, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == 55
    assert doc["m"] == 9
    assert doc["verdict"] is True
    matrix = np.array(doc["eval_matrix"])
    np.testing.assert_allclose(np.diag(matrix), 0.5625, atol=1e-8)


def test_certify_simplex_bound_tight(lines_file, capsys):
    assert main(
        ["certify", str(lines_file), "--alpha", str(np.pi / 3), "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 3 and doc["bound"] == 3
    assert doc["verdict"] is True


def test_certify_text_output(tmp_path, capsys):
    # coordinate axes keep every determinant exact, so the bytes are stable
    axes = tmp_path / "axes.json"
    assert main(["construct", "orthonormal-lines", "n=3", "-o", str(axes)]) == 0
    capsys.readouterr()
    assert main(["certify", str(axes), "--alpha", str(math.pi / 2)]) == 0
    assert capsys.readouterr().out == (
        "members:             3\n"
        "alpha:               1.57079632679 rad\n"
        "lambda = cos^2:      3.74939945665e-33\n"
        "diagonal target:     1\n"
        "max diag deviation:  0\n"
        "max off-diagonal:    3.7494e-33\n"
        "bound:               6\n"
        "verdict:             CERTIFIED (m=3, bound=6)\n"
    )
    assert main(["certify", str(axes), "--alpha", str(math.pi / 3)]) == 1
    assert capsys.readouterr().out == (
        "members:             3\n"
        "alpha:               1.0471975512 rad\n"
        "lambda = cos^2:      0.25\n"
        "diagonal target:     0.75\n"
        "max diag deviation:  0\n"
        "max off-diagonal:    0.25\n"
        "bound:               6\n"
        "verdict:             FAILED (m=3, bound=6)\n"
    )


def test_certify_alpha_zero_exit_2(lift_file):
    assert main(["certify", str(lift_file), "--alpha", "0"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "{lift}", "thetaF", "--tolerance", "nan"],
        ["verify", "{lift}", "thetaF", "--tolerance", "-1"],
        ["verify", "{lift}", "thetaF", "--tolerance", "inf", "--format", "json"],
        ["certify", "{lift}", "--alpha", "nan"],
        ["certify", "{lift}", "--alpha", "nan", "--format", "json"],
        ["certify", "{lift}", "--alpha", "1.0471975511965976", "--tolerance", "nan"],
        ["certify", "{lift}", "--alpha", "1.0471975511965976", "--tolerance", "-1"],
        ["certify", "{lift}", "--alpha", "2.0943951023931953"],
        ["certify", "{lift}", "--alpha", "inf"],
        ["certify", "{lift}", "--alpha=-inf"],
    ],
)
def test_bad_verdict_threshold_exit_2(lift_file, args, capsys):
    assert main([arg.format(lift=lift_file) for arg in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "simplex-lines", "n=2", "-o", "{tmp}/lines.json"],
        ["bounds", "2", "6"],
        ["pack", "{tmp}/problem.json"],
        ["lines-catalog"],
        ["angles", "{lift}", "0", "1"],
        ["complement", "{lift}", "-o", "{tmp}/comp.json"],
    ],
)
def test_tol_rejected_where_unused(tmp_path, lift_file, args, capsys):
    # --tol is offered only by the commands that read eps_angle
    (tmp_path / "problem.json").write_text(json.dumps({"k": 1, "n": 2, "m": 3, "metric": "thetaK"}))
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path, lift=lift_file) for arg in args] + ["--tol", "1e-8"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_bounds_tables(capsys):
    assert main(["bounds", "1", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["gerzon"] == 28

    assert main(["bounds", "2", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"] == {
        "angle-distance": 55,
        "blokhuis": 330,
        "chordal": 10,
        "fubini-study": 21,
        "lemmens-seidel": 8,
    }

    assert main(["bounds", "3", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["lemmens-seidel"] == 1

    # n = 5 comes from the t = 1 lower-bound family
    assert main(["bounds", "1", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["decaen-lower"] == 8

    assert main(["bounds", "2", "5"]) == 0
    assert capsys.readouterr().out == (
        "angle-distance  120\n"
        "blokhuis        715\n"
        "chordal         15\n"
        "fubini-study    55\n"
        "lemmens-seidel  13\n"
        "decaen-lower    8\n"
    )


def test_bounds_rejects_bad_params():
    assert main(["bounds", "3", "2"]) == 2


def test_complement_round_trip(tmp_path, lines_file, capsys):
    comp = tmp_path / "comp.json"
    assert main(["complement", str(lines_file), "-o", str(comp)]) == 0
    family = load_family(comp)
    assert (family.k, family.n) == (1, 2)

    # verify verdict is preserved under complement
    assert main(["verify", str(lines_file), "thetaF"]) == 0
    assert main(["verify", str(comp), "thetaF"]) == 0

    # double complement recovers the original projectors
    comp2 = tmp_path / "comp2.json"
    assert main(["complement", str(comp), "-o", str(comp2)]) == 0
    from grasspack.grassmann import projection_matrix

    original = load_family(lines_file)
    recovered = load_family(comp2)
    for a, b in zip(original.members, recovered.members):
        assert np.max(np.abs(projection_matrix(a) - projection_matrix(b))) <= 1e-10


def test_complement_lines_in_r3_gives_planes(tmp_path):
    src = tmp_path / "lines3.json"
    main(["construct", "simplex-lines", "n=3", "-o", str(src)])
    assert load_lineset(src).size == 4
    out = tmp_path / "planes.json"
    assert main(["complement", str(src), "-o", str(out)]) == 0
    family = load_family(out)
    assert (family.k, family.n) == (2, 3)


def test_complement_full_dimension_exit_2(tmp_path):
    doc = {
        "schema_version": "1",
        "kind": "subspaces",
        "n": 2,
        "k": 2,
        "members": [[[1.0, 0.0], [0.0, 1.0]]],
        "metadata": {},
    }
    path = tmp_path / "full.json"
    path.write_text(dumps_json(doc))
    assert main(["complement", str(path), "-o", str(tmp_path / "out.json")]) == 2


def test_pack_deterministic_bytes(tmp_path, capsys):
    problem = {
        "k": 1,
        "n": 2,
        "m": 3,
        "metric": "thetaK",
        "seed": 4,
        "restarts": 2,
        "max_iters": 800,
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    hist = tmp_path / "hist.csv"
    assert main(["pack", str(src), "-o", str(out_a), "--history", str(hist)]) == 0
    assert main(["pack", str(src), "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    doc = json.loads(out_a.read_text())
    assert doc["kind"] == "packing_result"
    assert doc["objective_value"] >= np.pi / 3 - 0.2  # short budget, rough
    family = doc["family"]
    assert family["kind"] == "subspaces"
    assert len(family["members"]) == 3

    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "iteration,value"
    assert len(lines) >= 2


def test_pack_env_seed_override(tmp_path, monkeypatch):
    # the seed comes only from the problem file (default 0), never the environment
    problem = {"k": 1, "n": 2, "m": 3, "metric": "thetaK", "restarts": 1, "max_iters": 300}
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    monkeypatch.delenv("GRASSPACK_SEED", raising=False)
    assert main(["pack", str(src), "-o", str(out_a)]) == 0
    monkeypatch.setenv("GRASSPACK_SEED", "2")
    assert main(["pack", str(src), "-o", str(out_b)]) == 0
    assert json.loads(out_a.read_text())["problem"]["seed"] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_pack_result_problem_reruns_identically(tmp_path):
    # the result's problem echo is itself a valid problem file for the same run
    problem = {
        "k": 2,
        "n": 4,
        "m": 3,
        "metric": "chordal",
        "objective": "equiangular_variance",
        "restarts": 2,
        "max_iters": 300,
        "min_separation": 0.2,
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    first = tmp_path / "first.json"
    assert main(["pack", str(src), "-o", str(first)]) == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(json.loads(first.read_text())["problem"]))
    again = tmp_path / "again.json"
    assert main(["pack", str(echo), "-o", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_pack_invalid_problem_exit_2(tmp_path, capsys):
    src = tmp_path / "problem.json"
    src.write_text(json.dumps({"k": 1, "n": 2, "m": 1, "metric": "thetaK"}))
    assert main(["pack", str(src)]) == 2
    assert main(["pack", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["pack", str(garbled)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, text, shown",
    [
        ("min_separation", "NaN", "nan"),
    ],
)
def test_pack_non_finite_field_exit_2(tmp_path, capsys, field, text, shown):
    src = tmp_path / "problem.json"
    src.write_text(f'{{"k": 1, "n": 2, "m": 3, "metric": "thetaK", "{field}": {text}}}')
    out = tmp_path / "result.json"
    assert main(["pack", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field} must be finite, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, text",
    [
        ("k", "true"),
        ("m", "3.9"),
        ("restarts", '"2"'),
        ("seed", '"7"'),
        ("min_separation", '"0.1"'),
    ],
)
def test_pack_field_type_exit_2(tmp_path, capsys, field, text):
    # problem files are type-checked, not coerced to the field's type
    src = tmp_path / "problem.json"
    src.write_text(f'{{"k": 1, "n": 2, "m": 3, "metric": "thetaK", "{field}": {text}}}')
    out = tmp_path / "result.json"
    assert main(["pack", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad problem field value: {field} must be")
    assert not out.exists()


@pytest.mark.parametrize("field", ["step_init", "step_final", "temp_init", "temp_final"])
def test_pack_schedule_field_exit_2(tmp_path, capsys, field):
    # the annealing schedule is fixed in the packer, not set per problem
    src = tmp_path / "problem.json"
    src.write_text(json.dumps({"k": 1, "n": 2, "m": 3, "metric": "thetaK", field: 0.1}))
    assert main(["pack", str(src), "-o", str(tmp_path / "result.json")]) == 2
    assert capsys.readouterr().err == f"error: unknown problem fields: ['{field}']\n"


def test_malformed_family_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"schema_version": "1", "kind": "subspaces", "n": 2, "k": true,'
        ' "members": [[[1.0], [0.0]]], "metadata": {}}'
    )
    assert main(["angles", str(path), "0", "0"]) == 2
    assert "n and k must be positive integers" in capsys.readouterr().err


def test_pack_orthogonal_planes_chordal(tmp_path):
    problem = {
        "k": 2,
        "n": 4,
        "m": 2,
        "metric": "chordal",
        "seed": 3,
        "restarts": 3,
        "max_iters": 8000,
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "result.json"
    assert main(["pack", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["objective_value"] == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_construct_unknown_kind_usage_error(tmp_path):
    # argparse rejects choices outside the catalog with the usage exit code
    with pytest.raises(SystemExit) as info:
        main(["construct", "hexagonal-lines", "-o", str(tmp_path / "x.json")])
    assert info.value.code == 2


def test_lines_catalog(capsys):
    assert main(["lines-catalog", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kinds = {entry["kind"] for entry in doc["catalog"]}
    assert kinds == {"simplex-lines", "icosahedral-lines", "orthonormal-lines"}
    assert main(["lines-catalog"]) == 0
    assert capsys.readouterr().out == (
        "simplex-lines      ambient n >= 2   size n + 1  |cos| = 1/n\n"
        "icosahedral-lines  ambient n = 3    size 6      |cos| = 1/sqrt(5)\n"
        "orthonormal-lines  ambient n >= 1   size n      |cos| = 0\n"
    )


def test_missing_file_exit_2(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json"), "thetaK"]) == 2
