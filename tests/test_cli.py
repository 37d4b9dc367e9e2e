"""End-to-end CLI tests driving grasspack.cli.main in-process."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from grasspack.cli import CONSTRUCTIONS, build_parser, main
from grasspack.family_io import (
    dumps_json,
    family_to_doc,
    load_family,
    load_lineset,
    parse_family_doc,
    save_family,
)
from grasspack.constructions import SubspaceFamily
from grasspack.errors import ParseError
from grasspack.metrics import evaluate
from grasspack.packing import perturb
from grasspack.verify import check_equiisoclinic

from _oracles import loose_pair, projection_matrix


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


def test_readme_family_file_example_is_what_construct_writes(lines_file):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## FamilyFile JSON\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert example == lines_file.read_text()


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


def test_derived_files_name_their_whole_chain(tmp_path, lift_file):
    chordal, comp, moved = (tmp_path / name for name in ("chordal.json", "comp.json", "moved.json"))
    assert main(["construct", "chordal-lift", f"in={lift_file}", "-o", str(chordal)]) == 0
    assert main(["complement", str(chordal), "-o", str(comp)]) == 0
    save_family(moved, perturb(load_family(comp), 1e-3))
    lifted = "lift(k=2) of 3 lines in R^2"
    chordal_lifted = f"chordal_lift of [{lifted}]"
    complemented = f"complement of [{chordal_lifted}]"
    expected = {
        lift_file: lifted,
        chordal: chordal_lifted,
        comp: complemented,
        moved: f"perturb(scale=0.001) of [{complemented}]",
    }
    for path, provenance in expected.items():
        assert json.loads(path.read_text())["metadata"]["provenance"] == provenance


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


def test_construct_plucker_names_the_input_family_exit_2(tmp_path, lift_file, capsys):
    # the k = 2 lift has Fubini-Study cosines 1/4 and 1/2, which no line set was given
    out = tmp_path / "plucker.json"
    assert main(["construct", "plucker", f"in={lift_file}", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: input family is not Fubini-Study-equiangular: "
        "|det(U_i^T U_j)| spread 1.250e-01 exceeds 1.0e-08\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize(
    "members, message",
    [
        ([[math.cos(t), math.sin(t)] for t in (0.0, math.pi / 6, math.pi / 2)],
         "line set is not equiangular: |<u,v>| spread 4.553e-01 exceeds 1.0e-08"),
        ([[math.cos(math.pi / 8 + t), math.sin(math.pi / 8 + t)] for t in (0.0, 1.2e-10)],
         "common_cos must lie in [0, 1), got 1.0"),
    ],
    ids=["skew", "near"],
)
def test_construct_lift_of_a_file_without_a_line_set_exit_2(tmp_path, capsys, members, message):
    src, out = tmp_path / "lines.json", tmp_path / "lift.json"
    src.write_text(json.dumps({"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": members}))
    assert main(["construct", "lift", "k=2", f"in={src}", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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
    load = load_lineset if json.loads(path.read_text())["kind"] == "lines" else load_family
    return dumps_json(family_to_doc(load(path))).encode()


def test_construct_args_cover_every_kind():
    assert set(CONSTRUCT_ARGS) == set(CONSTRUCTIONS)


@pytest.mark.parametrize("kind", CONSTRUCT_ARGS)
def test_constructed_file_reloads_to_the_same_bytes(tmp_path, lines_file, lift_file, kind):
    out = tmp_path / "made.json"
    assert main(["construct", kind, *CONSTRUCT_ARGS[kind](lines_file, lift_file), "-o", str(out)]) == 0
    assert _reloaded_bytes(out) == out.read_bytes()


def test_complement_and_pack_files_reload_to_the_same_bytes(tmp_path, lift_file):
    lines3, lift3 = tmp_path / "lines3.json", tmp_path / "lift3.json"
    assert main(["construct", "simplex-lines", "n=3", "-o", str(lines3)]) == 0
    assert main(["construct", "lift", "k=2", f"in={lines3}", "-o", str(lift3)]) == 0
    for lift in (lift_file, lift3):
        comp = tmp_path / f"complement-{lift.stem}.json"
        assert main(["complement", str(lift), "-o", str(comp)]) == 0
        assert _reloaded_bytes(comp) == comp.read_bytes()
    assert b"-0.0" in comp.read_bytes()  # the n = 3 complement's sign fix negates zeros
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"k": 2, "n": 4, "m": 4, "metric": "chordal", "seed": 1, "restarts": 2, "max_iters": 400})
    )
    result = tmp_path / "result.json"
    assert main(["pack", str(problem), "-o", str(result)]) == 0
    doc = json.loads(result.read_text())
    doc["family"] = family_to_doc(parse_family_doc(doc["family"]))
    assert dumps_json(doc).encode() == result.read_bytes()


def test_construct_bad_params_exit_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    cases = [
        (["simplex-lines"], "missing parameters: ['n']"),
        (["lift"], "missing parameters: ['k', 'in']"),
        (["simplex-lines", "n=abc"], "bad value for n: 'abc'"),
        (["simplex-lines", "n=2", "m=1"], "unknown parameter 'm'; allowed: ['n']"),
        (["simplex-lines", "n"], "expected key=value, got 'n'"),
    ]
    for params, message in cases:
        assert main(["construct", *params, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_construct_repeated_param_exit_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["construct", "simplex-lines", "n=3", "n=5", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: parameter 'n' given more than once\n"
    assert not out.exists()


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
    from grasspack.grassmann import random_subspace

    family = SubspaceFamily(np.stack([random_subspace(3, 2, rng).rep for _ in range(3)]))
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
    # Fubini-Study resolves them too, as sqrt(a^2 + b^2) to O(b^2); arccos(cos a cos b) rounds to 0
    assert main(["distance", str(path), "fubini-study", "0", "1", "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == pytest.approx(math.hypot(a, b), rel=1e-6)


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


def test_members_the_orthonormality_rule_admits_exit_0(tmp_path, capsys):
    # cosines up to 1 + 120 * 0.95e-10 between members orthonormal within EPS_ORTH
    path = tmp_path / "loose.json"
    save_family(path, SubspaceFamily(loose_pair(120, 240, 0.95e-10, 1e-6, np.random.default_rng(97))))
    assert main(["verify", str(path), "fubini-study"]) == 0
    assert main(["angles", str(path), "0", "1"]) == 0
    assert "error" not in capsys.readouterr().err


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


# the coordinate axes of R^4 and R^51: every value below is reproducible to the bit
PINNED_VERIFY = """{
  "metric": "theta_k",
  "pair_count": 6,
  "common_value": 1.5707963267948966,
  "max_deviation": 0,
  "tolerance": 1e-08,
  "verdict": true
}
"""
PINNED_CERTIFY_HEAD = """{
  "m": %d,
  "alpha": 1.5707963267948966,
  "lambda": 3.749399456654644e-33,
  "diagonal_target": 1,
  "max_diag_deviation": 0,
  "max_offdiag": 3.74939945665467e-33,
  "bound": %d,
  "tolerance": 2e-08,
  "verdict": true"""
PINNED_EVAL_MATRIX = """,
  "eval_matrix": [
    [1, -3.74939945665467e-33, -3.74939945665467e-33, -3.74939945665467e-33],
    [-3.74939945665467e-33, 1, -3.74939945665467e-33, -3.74939945665467e-33],
    [-3.74939945665467e-33, -3.74939945665467e-33, 1, -3.74939945665467e-33],
    [-3.74939945665467e-33, -3.74939945665467e-33, -3.74939945665467e-33, 1]
  ]
}
"""


def test_report_json_bytes_are_pinned(tmp_path, capsys):
    axes4, axes51 = tmp_path / "axes4.json", tmp_path / "axes51.json"
    assert main(["construct", "orthonormal-lines", "n=4", "-o", str(axes4)]) == 0
    assert main(["construct", "orthonormal-lines", "n=51", "-o", str(axes51)]) == 0
    capsys.readouterr()
    assert main(["verify", str(axes4), "thetaK", "--format", "json"]) == 0
    assert capsys.readouterr().out == PINNED_VERIFY
    alpha = repr(math.pi / 2)
    assert main(["certify", str(axes4), "--alpha", alpha, "--format", "json"]) == 0
    assert capsys.readouterr().out == PINNED_CERTIFY_HEAD % (4, 10) + PINNED_EVAL_MATRIX
    # beyond 50 members the certificate leaves its evaluation matrix out
    assert main(["certify", str(axes51), "--alpha", alpha, "--format", "json"]) == 0
    assert capsys.readouterr().out == PINNED_CERTIFY_HEAD % (51, 1326) + "\n}\n"
    report = check_equiisoclinic(SubspaceFamily(np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]])))
    assert list(report.to_dict()) == ["lambda", "pair_count", "max_deviation", "tolerance", "verdict"]


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


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "simplex-lines", "n=3", "-o", "{tmp}/lines.json"],
        ["pack", "{tmp}/problem.json", "-o", "{tmp}/result.json"],
        ["complement", "{lift}", "-o", "{tmp}/comp.json"],
    ],
)
def test_format_rejected_where_nothing_reads_it(tmp_path, lift_file, args, capsys):
    # these commands write a file and print one summary line, which has no JSON form
    (tmp_path / "problem.json").write_text(json.dumps({"k": 1, "n": 2, "m": 3, "metric": "thetaK"}))
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path, lift=lift_file) for arg in args] + ["--format", "json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["lift.json", "lines.json", "problem.json"]


# every command, in both formats where it offers --format; certify's alpha is
# not the lift's common angle, so its verdict is false
COMMAND_ARGV = [
    *(argv + fmt for argv in (
        ["angles", "{lift}", "0", "1"],
        ["distance", "{lift}", "chordal", "0", "1"],
        ["verify", "{lift}", "thetaF"],
        ["certify", "{lift}", "--alpha", "1.0"],
        ["bounds", "2", "4"],
        ["lines-catalog"],
    ) for fmt in ([], ["--format", "json"])),
    ["construct", "simplex-lines", "n=3", "-o", "{tmp}/lines3.json"],
    ["pack", "{tmp}/problem.json", "-o", "{tmp}/result.json"],
    ["complement", "{lift}", "-o", "{tmp}/comp.json"],
]


@pytest.mark.parametrize("argv", COMMAND_ARGV, ids=[a[0] + ("-json" if "--format" in a else "") for a in COMMAND_ARGV])
def test_commands_return_their_output_and_main_writes_it(tmp_path, lift_file, capsys, argv):
    (tmp_path / "problem.json").write_text(json.dumps({"k": 1, "n": 2, "m": 3, "metric": "thetaK",
                                                       "seed": 3, "restarts": 2, "max_iters": 300}))
    argv = [arg.format(tmp=tmp_path, lift=lift_file) for arg in argv]
    args = build_parser().parse_args(argv)
    capsys.readouterr()
    code, doc, lines = args.func(args)
    assert capsys.readouterr().out == ""
    # the commands that write a file return their summary line and no document
    assert (doc is None) == (argv[0] in ("construct", "pack", "complement"))
    assert lines and all(isinstance(line, str) for line in lines)
    assert main(argv) == code
    expected = dumps_json(doc) if "--format" in argv else "\n".join(lines) + "\n"
    assert capsys.readouterr().out == expected



def test_distance_help_lists_every_metric(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["distance", "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "one of: theta1, thetaF, thetaK, chordal, geodesic, fubini-study" in text

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

    # n = 5 and n = 23 come from the t = 1 and t = 2 lower-bound families
    assert main(["bounds", "1", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["decaen-lower"] == 8
    assert main(["bounds", "1", "23", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["decaen-lower"] == 128

    assert main(["bounds", "2", "5"]) == 0
    assert capsys.readouterr().out == (
        "angle-distance  120\n"
        "blokhuis        715\n"
        "chordal         15\n"
        "fubini-study    55\n"
        "lemmens-seidel  13\n"
    )
    # Gr(4, 5) holds the complements of de Caen's 8 lines in R^5
    assert main(["bounds", "4", "5"]) == 0
    assert capsys.readouterr().out == (
        "angle-distance  3060\n"
        "chordal         15\n"
        "fubini-study    15\n"
        "lemmens-seidel  6\n"
        "decaen-lower    8\n"
    )


def _digits(value: int) -> str:
    """The decimal digits of an int >= 0, 1000 at a time, as str() gives them below
    Python's int-to-str digit limit."""
    chunks = []
    while value >= 10**1000:
        value, low = divmod(value, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(value) + "".join(reversed(chunks))


@pytest.mark.parametrize(
    ("k", "n"), [(1, 4000), (2, 4000), (1000, 4000), (2000, 4000), (3999, 4000), (4000, 4000)]
)
def test_bounds_prints_every_digit_at_paper_sizes(k, n, capsys):
    # (2000, 4000)'s angle-distance row has 8 071 digits, past the 4 300 that
    # str() and json.loads allow; that limit stays where it is
    from grasspack.bounds import bound_table

    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)  # Python >= 3.10.7
    limit = digit_limit()
    rows = [(name, _digits(value)) for name, value in bound_table(k, n)]
    if (k, n) == (2000, 4000):
        assert len(dict(rows)["angle-distance"]) == 8071
    width = max(len(name) for name, _ in rows)
    assert main(["bounds", str(k), str(n)]) == 0
    text = "".join(f"{name:<{width}}  {digits}\n" for name, digits in rows)
    assert capsys.readouterr().out == text
    assert main(["bounds", str(k), str(n), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_int=str)
    assert doc == {"k": str(k), "n": str(n), "bounds": dict(rows)}
    assert digit_limit() == limit


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
    original = load_family(lines_file)
    recovered = load_family(comp2)
    for a, b in zip(original.members, recovered.members):
        assert np.max(np.abs(projection_matrix(a) - projection_matrix(b))) <= 1e-10



def test_complement_file_metadata(tmp_path):
    lines, lift, comp = (tmp_path / name for name in ("lines.json", "lift.json", "comp.json"))
    assert main(["construct", "simplex-lines", "n=3", "-o", str(lines)]) == 0
    assert main(["construct", "lift", "k=2", f"in={lines}", "-o", str(lift)]) == 0
    assert main(["complement", str(lift), "-o", str(comp)]) == 0
    doc = json.loads(comp.read_text())
    assert (doc["k"], doc["n"]) == (4, 6)
    # the lift's "k": 2 would contradict the file's own k
    assert doc["metadata"] == {
        "construction": "complement",
        "common_angle": pytest.approx(math.acos(1 / 3), abs=1e-12),
        "provenance": "complement of [lift(k=2) of 4 lines in R^3]",
    }

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


def test_pack_full_dimension_exit_2_before_annealing(tmp_path, capsys):
    # every member of Gr(3, 3) is R^3: rejected up front, no result file written
    src = tmp_path / "problem.json"
    src.write_text(json.dumps({"k": 3, "n": 3, "m": 4, "metric": "chordal"}))
    assert main(["pack", str(src)]) == 2
    assert capsys.readouterr().err == "error: need 1 <= k < n, got k=3, n=3\n"
    assert not (tmp_path / "problem.result.json").exists()


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


def test_too_deeply_nested_documents_exit_2(tmp_path, capsys):
    # deeper than Python's recursion limit: the parser cannot read a file
    # nested 200 000 lists deep, and the writer cannot write metadata nested
    # 600 lists deep, which loads; either is one error line, not a traceback
    deep, out = tmp_path / "deep.json", tmp_path / "out.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (
        ["verify", "{deep}", "thetaF"],
        ["certify", "{deep}", "--alpha", "1.0"],
        ["angles", "{deep}", "0", "1"],
        ["distance", "{deep}", "thetaF", "0", "1"],
        ["complement", "{deep}", "-o", "{out}"],
        ["construct", "lift", "k=2", "in={deep}", "-o", "{out}"],
        ["construct", "chordal-lift", "in={deep}", "-o", "{out}"],
        ["construct", "plucker", "in={deep}", "-o", "{out}"],
        ["pack", "{deep}", "-o", "{out}"],
    ):
        assert main([arg.format(deep=deep, out=out) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {deep} is nested too deeply to parse as JSON\n"
    nested: list = []
    for _ in range(599):
        nested = [nested]
    planes = tmp_path / "planes.json"
    planes.write_text(json.dumps(
        {"schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "metadata": {"nested": nested},
         "members": [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]}
    ))
    assert main(["verify", str(planes), "chordal"]) == 0
    capsys.readouterr()
    for argv in (["complement", str(planes), "-o", str(out)],
                 ["construct", "chordal-lift", f"in={planes}", "-o", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: document is nested too deeply to write as JSON\n"
    assert not out.exists()


OVERSIZE = {"schema_version": "1", "kind": "subspaces", "n": 1000000, "k": 1000000}
RESULT = {"schema_version": "1", "kind": "packing_result", "objective_value": 0.5}
# three declare 10^6 x 10^6 members, so a stack or an identity sized from the
# declared shape alone would take terabytes; two are pack results without a
# usable family
TINY_MALFORMED_DOCS = {
    "oversize-1x1": dict(OVERSIZE, members=[[[1.0]]]),
    "oversize-scalars": dict(OVERSIZE, members=[1, 2, 3]),
    "oversize-none": dict(OVERSIZE, members=[]),
    "result-no-family": RESULT,
    "result-family-list": dict(RESULT, family=[1.0]),
}


@pytest.mark.parametrize("doc", TINY_MALFORMED_DOCS.values(), ids=TINY_MALFORMED_DOCS)
@pytest.mark.parametrize(
    "command", [["verify", "thetaF"], ["certify", "--alpha", "1.0"]], ids=["verify", "certify"]
)
def test_tiny_malformed_file_exit_2(tmp_path, capsys, doc, command):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "problem",
    [
        {"k": 1, "n": 2, "m": 3, "metric": "thetaK", "seed": 3, "restarts": 2, "max_iters": 300},
        {"k": 2, "n": 4, "m": 4, "metric": "chordal", "objective": "equiangular_variance",
         "min_separation": 0.3, "seed": 1, "restarts": 2, "max_iters": 300},
    ],
    ids=["lines", "planes"],
)
def test_pack_result_can_be_verified_and_certified(tmp_path, capsys, problem):
    src, out = tmp_path / "problem.json", tmp_path / "result.json"
    src.write_text(json.dumps(problem))
    assert main(["pack", str(src), "-o", str(out)]) == 0
    family = load_family(out)
    np.testing.assert_array_equal(
        family.reps, parse_family_doc(json.loads(out.read_text())["family"]).reps
    )
    assert main(["verify", str(out), problem["metric"]]) in (0, 1)
    assert main(["certify", str(out), "--alpha", "1.0"]) in (0, 1)
    assert capsys.readouterr().err == ""
    # a line file is still only a 'lines' doc
    with pytest.raises(ParseError, match="unknown kind 'packing_result'"):
        load_lineset(out)


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


@pytest.mark.parametrize(
    "command",
    [
        ["construct", "simplex-lines", "n=3", "-o", "{missing}"],
        ["complement", "{lift}", "-o", "{missing}"],
        ["pack", "{problem}", "-o", "{missing}", "--history", "{history}"],
        ["pack", "{problem}", "-o", "{result}", "--history", "{missing}"],
    ],
    ids=["construct", "complement", "pack-out", "pack-history"],
)
def test_unwritable_output_exit_2(tmp_path, lift_file, command, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"k": 1, "n": 2, "m": 3, "metric": "thetaK", "restarts": 1, "max_iters": 20}))
    paths = {
        "missing": tmp_path / "no-such-dir" / "out.json",
        "lift": lift_file,
        "problem": problem,
        "history": tmp_path / "history.csv",
        "result": tmp_path / "result.json",
    }
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(paths["missing"]) in err
    # the result is written before the history, as before
    assert paths["result"].exists() == ("{result}" in command)
    assert not paths["history"].exists()


NUMPY_OOM = "Unable to allocate 520. GiB for an array with shape (20, 3) and data type int64"


@pytest.mark.parametrize("raised, shown", [(MemoryError(NUMPY_OOM), NUMPY_OOM), (MemoryError(), "MemoryError")],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["construct", "pack"])
def test_allocation_failure_exit_2(tmp_path, lines_file, monkeypatch, capsys, command, raised, shown):
    # the builders are patched to raise: a real allocation this large could
    # be mapped lazily and filled until the machine runs out of memory
    from grasspack import constructions, packing

    def fail(*args):
        raise raised

    monkeypatch.setattr(constructions, "lift_lines_to_subspaces", fail)
    monkeypatch.setattr(packing, "solve", fail)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"k": 1, "n": 2, "m": 3, "metric": "thetaK"}))
    out = tmp_path / "out.json"
    argv = {
        "construct": ["construct", "lift", "k=20", f"in={lines_file}", "-o", str(out)],
        "pack": ["pack", str(problem), "-o", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {shown}\n")
    assert not out.exists()
