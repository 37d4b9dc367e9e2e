"""FamilyFile JSON round-trip and schema validation."""

import json
import math

import numpy as np
import pytest

from grasspack.constructions import lift_lines_to_subspaces, simplex_lines
from grasspack.errors import ParseError
from grasspack.family_io import (
    dumps_json,
    family_to_doc,
    format_float,
    lineset_to_doc,
    load_family,
    load_lineset,
    parse_family_doc,
    save_family,
    save_lineset,
)
from grasspack.grassmann import projection_matrix


@pytest.fixture()
def lines():
    return simplex_lines(3)


@pytest.fixture()
def family():
    return lift_lines_to_subspaces(simplex_lines(2), 2)


def test_format_float_round_trips_exactly():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.0**-52, -0.0, 123456.789]
    for x in values:
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_dumps_json_is_valid_and_deterministic(family):
    doc = family_to_doc(family)
    text_a = dumps_json(doc)
    text_b = dumps_json(family_to_doc(family))
    assert text_a == text_b
    parsed = json.loads(text_a)
    assert parsed["kind"] == "subspaces"
    assert parsed["n"] == 4 and parsed["k"] == 2


def test_lines_round_trip(tmp_path, lines):
    path = tmp_path / "lines.json"
    save_lineset(path, lines)
    back = load_lineset(path)
    assert back.size == lines.size
    np.testing.assert_array_equal(back.vectors, lines.vectors)
    assert back.common_cos == pytest.approx(lines.common_cos, abs=1e-15)


def test_family_round_trip_reproduces_projectors(tmp_path, family):
    path = tmp_path / "family.json"
    save_family(path, family)
    back = load_family(path)
    assert len(back) == len(family)
    assert (back.k, back.n) == (family.k, family.n)
    for orig, loaded in zip(family.members, back.members):
        diff = projection_matrix(orig) - projection_matrix(loaded)
        assert np.max(np.abs(diff)) <= 1e-12


def test_lines_file_loads_as_gr1_family(tmp_path, lines):
    path = tmp_path / "lines.json"
    save_lineset(path, lines)
    fam = load_family(path)
    assert (fam.k, fam.n) == (1, 3)
    assert len(fam) == 4


def test_metadata_preserved(tmp_path, family):
    path = tmp_path / "family.json"
    save_family(path, family, metadata={"note": "hello"})
    back = load_family(path)
    assert back.metadata["note"] == "hello"
    assert back.metadata["construction"] == "lift"


def test_unknown_schema_version_rejected(tmp_path, lines):
    doc = lineset_to_doc(lines)
    doc["schema_version"] = "2"
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError):
        load_family(path)


def test_bad_kind_rejected(tmp_path, lines):
    doc = lineset_to_doc(lines)
    doc["kind"] = "planes"
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError):
        load_family(path)


def test_lines_kind_requires_k1(tmp_path, lines):
    doc = lineset_to_doc(lines)
    doc["k"] = 2
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError):
        load_family(path)


def test_member_shape_mismatch_rejected(tmp_path, family):
    doc = family_to_doc(family)
    doc["members"][0] = [[1.0, 0.0]]  # wrong shape
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError):
        load_family(path)


def test_non_finite_member_rejected():
    doc = {
        "schema_version": "1",
        "kind": "lines",
        "n": 2,
        "k": 1,
        "members": [[1.0, None]],
        "metadata": {},
    }
    with pytest.raises(ParseError):
        parse_family_doc(doc)


@pytest.mark.parametrize(
    "shape",
    [
        {"n": True, "k": 1, "members": [[1.0]]},  # true == 1 passed as n
        {"n": 2, "k": True, "members": [[[1.0], [0.0]]]},  # np.eye(True) raised TypeError
    ],
)
def test_boolean_shape_rejected(shape):
    doc = dict({"schema_version": "1", "kind": "subspaces", "metadata": {}}, **shape)
    with pytest.raises(ParseError, match="n and k must be positive integers"):
        parse_family_doc(doc)


@pytest.mark.parametrize(
    "member", [["1", "0"], [True, False], [1.0, True], [0.0, "1e0"], [0.0, 10**400]]
)
def test_non_numeric_member_rejected(tmp_path, member):
    doc = {
        "schema_version": "1",
        "kind": "lines",
        "n": 2,
        "k": 1,
        "members": [[0.6, 0.8], member],
        "metadata": {},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="member 1 is not numeric"):
        load_family(path)
    with pytest.raises(ParseError, match="member 1 is not numeric"):
        load_lineset(path)


PLANE = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
OTHER_PLANE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
RANK_ONE = [[1.0, 2.0], [0.0, 0.0], [2.0, 4.0]]


def test_rank_deficient_member_rejected():
    doc = {
        "schema_version": "1",
        "kind": "subspaces",
        "n": 3,
        "k": 2,
        "members": [PLANE, OTHER_PLANE, RANK_ONE],
        "metadata": {},
    }
    with pytest.raises(ParseError, match="^member 2: columns are numerically dependent$"):
        parse_family_doc(doc)


@pytest.mark.parametrize(
    "members, message",
    [
        ([PLANE, OTHER_PLANE, [[1.0, 0.0], [0.0, 1.0]]], r"member 2: expected an 3x2 matrix, got shape \(2, 2\)"),
        ([PLANE, [[1.0, 0.0], [0.0, float("nan")], [0.0, 0.0]]], "member 1 has non-finite entries"),
        ([PLANE, [[1.0, 0.0], [0.0, 1.0], [0.0, float("inf")]], OTHER_PLANE], "member 1 has non-finite entries"),
        ([PLANE, [[1.0, 0.0], [0.0, "1"], [0.0, 0.0]]], "member 1 is not numeric"),
        # members are checked in order, whichever check a member fails
        ([PLANE, RANK_ONE, [[1.0, 0.0]]], "member 1: columns are numerically dependent"),
        ([PLANE, [[1.0, 0.0]], RANK_ONE], r"member 1: expected an 3x2 matrix, got shape \(1, 2\)"),
        ([PLANE, OTHER_PLANE, [[1.0, 0.0], [0.0, 1.0], 0.0], RANK_ONE], "member 2 is not numeric"),
    ],
    ids=["shape", "nan", "inf", "string", "rank-before-shape", "shape-before-rank", "ragged"],
)
def test_malformed_member_named_by_index(members, message):
    doc = {"schema_version": "1", "kind": "subspaces", "n": 3, "k": 2, "members": members, "metadata": {}}
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_family_doc(doc)


@pytest.mark.parametrize(
    "members, message",
    [
        ([[0.6, 0.8], [1.0, 0.0], [1.0, 0.0, 0.0]], r"member 2: expected a length-2 vector, got shape \(3,\)"),
        ([[0.6, 0.8], [float("-inf"), 0.0]], "member 1 has non-finite entries"),
        ([[0.6, 0.8], [1.0, 0.0], [0.0, 0.0]], "member 2: columns are numerically dependent"),
    ],
    ids=["shape", "inf", "zero"],
)
def test_malformed_line_named_by_index(members, message):
    doc = {"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": members, "metadata": {}}
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_family_doc(doc)


def test_missing_file_raises_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_family(tmp_path / "nope.json")


def test_invalid_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_family(path)


def test_sloppy_user_vectors_are_normalized(tmp_path):
    # hand-written files may carry unnormalized spans; loading cleans them up
    doc = {
        "schema_version": "1",
        "kind": "lines",
        "n": 2,
        "k": 1,
        "members": [[2.0, 0.0], [2.0, 2.0]],
        "metadata": {},
    }
    path = tmp_path / "sloppy.json"
    path.write_text(dumps_json(doc))
    fam = load_family(path)
    for member in fam.members:
        assert np.linalg.norm(member.rep) == pytest.approx(1.0, abs=1e-12)
    # a line file loads through the family parser, so its lines match its members
    lines = load_lineset(path)
    np.testing.assert_array_equal(lines.vectors, fam.reps[:, :, 0])
    assert lines.common_cos == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_nearly_unit_lines_are_normalized(tmp_path):
    # |v| - 1 = 7e-11 but v.v - 1 = 1.4e-10 > EPS_ORTH: the lines load as
    # unit vectors, so lifting them yields orthonormal members
    doc = {
        "schema_version": "1",
        "kind": "lines",
        "n": 2,
        "k": 1,
        "members": [[1.0 + 7e-11, 0.0], [-0.5, math.sqrt(0.75)]],
        "metadata": {},
    }
    path = tmp_path / "nearly.json"
    path.write_text(dumps_json(doc))
    lines = load_lineset(path)
    assert np.abs(np.linalg.norm(lines.vectors, axis=1) - 1.0).max() <= 1e-15
    assert len(lift_lines_to_subspaces(lines, 2)) == 4


@pytest.mark.parametrize(
    "members, message",
    [
        ([[0.0, 0.0], [1.0, 0.0]], "member 0: columns are numerically dependent"),
        ([[0.6, 0.8], [0.6, 0.8]], "family members 0 and 1 coincide"),
    ],
)
def test_degenerate_lines_rejected(tmp_path, members, message):
    doc = {"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": members, "metadata": {}}
    path = tmp_path / "degenerate.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError, match=message):
        load_lineset(path)
