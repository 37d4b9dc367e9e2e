"""FamilyFile JSON round-trip and schema validation."""

import json
import math

import numpy as np
import pytest

from grasspack import constructions, grassmann
from grasspack.constructions import LineSet, SubspaceFamily, lift_lines_to_subspaces, simplex_lines
from grasspack.errors import ParseError
from grasspack.family_io import (
    dumps_json,
    family_to_doc,
    format_float,
    load_family,
    load_lineset,
    parse_family_doc,
    parse_lineset_doc,
    read_json,
    save_family,
    save_packing_result,
)
from grasspack.grassmann import pair_chunks
from grasspack.linalg import orthonormalize

from _oracles import projection_matrix


@pytest.fixture()
def lines():
    return simplex_lines(3)


@pytest.fixture()
def family():
    return lift_lines_to_subspaces(simplex_lines(2), 2)


def test_format_float_round_trips_exactly():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.0**-52, -0.0, 123456.789]
    for x in values:
        back = json.loads(format_float(x))
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


# the writer's exact text, so files keep their bytes from one version to the next
DUMPS_JSON_CASES = {
    "empty-dict": ({}, "{}\n"),
    "empty-list": ([], "[]\n"),
    "nested-empties": (
        {"a": {}, "b": [], "c": [[], {}, ()], "d": [[]]},
        '{\n  "a": {},\n  "b": [],\n  "c": [\n    [],\n    {},\n    []\n  ],\n  "d": [\n    []\n  ]\n}\n',
    ),
    "containers": (
        {"list": [1, 2.5, "x"], "tuple": (3, None), "array": np.array([[1.0, -2.5], [0.1, 3.0]])},
        '{\n  "list": [1, 2.5, "x"],\n  "tuple": [3, null],\n'
        '  "array": [\n    [1, -2.5],\n    [0.10000000000000001, 3]\n  ]\n}\n',
    ),
    "numpy-scalars": (
        {"f": np.float64(0.1), "i": np.int64(-7), "b": np.bool_(False), "fi": [np.float64(1.5), np.int64(2)]},
        '{\n  "f": 0.10000000000000001,\n  "i": -7,\n  "b": false,\n  "fi": [1.5, 2]\n}\n',
    ),
    "atoms": ([None, True, False, 'tab\there "q" \\ \u00e9\n'], '[null, true, false, "tab\\there \\"q\\" \\\\ \\u00e9\\n"]\n'),
    "mixed-list": ([1, [2.0, 1e-300], "x", 2.0**-52], '[\n  1,\n  [2, 1e-300],\n  "x",\n  2.2204460492503131e-16\n]\n'),
    "top-level-float": (np.float64(123456.789), "123456.789\n"),
    "negative-zero": ([-0.0, 0.0, {"z": np.float64(-0.0)}], '[\n  -0.0,\n  0,\n  {\n    "z": -0.0\n  }\n]\n'),
    "int-key": ({1: 2}, (TypeError, "^JSON object keys must be strings, got 1$")),
    "nested-int-key": ({"a": {2: 1}}, (TypeError, "^JSON object keys must be strings, got 2$")),
    "nan": ({"a": [float("nan")]}, (ValueError, "^cannot serialize non-finite value nan$")),
    "inf": ([float("inf")], (ValueError, "^cannot serialize non-finite value inf$")),
    "minus-inf": (-np.inf, (ValueError, "^cannot serialize non-finite value -inf$")),
    "set": (set(), (TypeError, "^cannot serialize set to JSON$")),
    "set-in-list": ([set()], (TypeError, "^cannot serialize set to JSON$")),
}


@pytest.mark.parametrize("value, expected", DUMPS_JSON_CASES.values(), ids=DUMPS_JSON_CASES)
def test_dumps_json_text_is_pinned(value, expected):
    if isinstance(expected, str):
        assert dumps_json(value) == expected
    else:
        with pytest.raises(expected[0], match=expected[1]):
            dumps_json(value)


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
    save_family(path, lines)
    back = load_lineset(path)
    assert back.size == lines.size
    np.testing.assert_array_equal(back.vectors, lines.vectors)
    assert back.common_cos == pytest.approx(lines.common_cos, abs=1e-15)


def test_lines_file_round_trips_its_metadata(tmp_path, lines):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_family(first, lines)
    metadata = json.loads(first.read_text())["metadata"]
    assert metadata == {"common_cos": lines.common_cos, "construction": "simplex-lines", "n": 3}
    save_family(second, load_lineset(first))
    assert second.read_bytes() == first.read_bytes()


def test_a_line_set_saves_as_a_line_file(tmp_path):
    # the file README shows for `grasspack construct simplex-lines n=2 -o lines.json`
    path = tmp_path / "lines.json"
    save_family(path, simplex_lines(2))
    assert path.read_text() == """{
  "schema_version": "1",
  "kind": "lines",
  "n": 2,
  "k": 1,
  "members": [
    [0.70710678118654746, 0.70710678118654746],
    [-0.96592582628906831, 0.25881904510252079],
    [0.25881904510252079, -0.96592582628906831]
  ],
  "metadata": {
    "common_cos": 0.5,
    "construction": "simplex-lines",
    "n": 2
  }
}
"""


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
    save_family(path, lines)
    fam = load_family(path)
    assert (fam.k, fam.n) == (1, 3)
    assert len(fam) == 4


def test_metadata_preserved(tmp_path, family):
    path = tmp_path / "family.json"
    save_family(path, SubspaceFamily(family.reps, dict(family.metadata, note="hello")))
    back = load_family(path)
    assert back.metadata["note"] == "hello"
    assert back.metadata["construction"] == "lift"


def test_unknown_schema_version_rejected(tmp_path, lines):
    doc = family_to_doc(lines)
    doc["schema_version"] = "2"
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError):
        load_family(path)


def test_bad_kind_rejected(tmp_path, lines):
    doc = family_to_doc(lines)
    doc["kind"] = "planes"
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError):
        load_family(path)


def test_lines_kind_requires_k1(tmp_path, lines):
    doc = family_to_doc(lines)
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


LINE_DOC = {"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": [[1.0, 0.0]], "metadata": {}}
NO_FAMILY = "a 'packing_result' file must hold a 'family' object"


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "family file must contain a JSON object"),
        (dict(LINE_DOC, kind="subspaces", k=3), "need k <= n, got k=3, n=2"),
        (dict(LINE_DOC, members={}), "members must be a list"),
        (dict(LINE_DOC, metadata=[]), "metadata must be an object"),
        ({"kind": "packing_result"}, NO_FAMILY),
        ({"kind": "packing_result", "family": [LINE_DOC]}, NO_FAMILY),
        ({"kind": "packing_result", "family": {}}, r"unsupported schema_version None \(expected '1'\)"),
    ],
    ids=["not-object", "k-above-n", "members-object", "metadata-list", "result-no-family",
         "result-family-list", "result-family-empty"],
)
def test_malformed_doc_rejected(doc, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
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


class Real(float):
    pass


@pytest.mark.parametrize(
    "leaf, numeric",
    [(np.float32(0.5), True), (np.int64(0), True), (Real(0.5), True), (np.bool_(False), False)],
    ids=["float32", "int64", "float-subclass", "numpy-bool"],
)
def test_library_doc_leaf_types(leaf, numeric):
    # leaves a JSON file cannot hold, passed in a doc built in Python
    for kind, k, member in (("lines", 1, [leaf, 1.0]), ("subspaces", 2, [[leaf, 1.0], [1.0, 0.0]])):
        doc = {"schema_version": "1", "kind": kind, "n": 2, "k": k, "members": [member]}
        if numeric:
            assert parse_family_doc(doc).reps.shape == (1, 2, k)
        else:
            with pytest.raises(ParseError, match="^member 0 is not numeric$"):
                parse_family_doc(doc)


PLANE = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
OTHER_PLANE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
RANK_ONE = [[1.0, 2.0], [0.0, 0.0], [2.0, 4.0]]
SLOPPY_PLANE = [[2.0 * x for x in row] for row in PLANE]


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
        # a sloppy but independent member is cleaned, so the next one names the error
        ([PLANE, SLOPPY_PLANE, [[1.0, 0.0]]], r"member 2: expected an 3x2 matrix, got shape \(1, 2\)"),
        ([PLANE, SLOPPY_PLANE, RANK_ONE], "member 2: columns are numerically dependent"),
    ],
    ids=["shape", "nan", "inf", "string", "rank-before-shape", "shape-before-rank", "ragged",
         "sloppy-before-shape", "sloppy-before-rank"],
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


def test_lines_load_checks_kind_before_members():
    doc = {"schema_version": "1", "kind": "subspaces", "n": 3, "k": 2, "members": [PLANE, RANK_ONE], "metadata": {}}
    with pytest.raises(ParseError, match="^expected kind 'lines', got 'subspaces'$"):
        parse_lineset_doc(doc)


def test_metadata_may_be_absent(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": [[1, 0], [0, 1]]}))
    assert load_family(path).metadata == {}
    assert load_lineset(path).common_cos == 0.0


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


def test_mixed_clean_and_sloppy_members_load_bit_for_bit(tmp_path):
    # clean members load as written; each sloppy one as its own orthonormalize
    clean = [PLANE, OTHER_PLANE, [[0.6, 0.0], [0.0, -1.0], [0.8, 0.0]]]
    sloppy = [
        [[2.0, 1.0], [0.0, 0.0], [0.0, 3.0]],
        [[1.0, 0.5], [1.0, -0.25], [1.0, 2.0]],
        [[0.0, 0.8], [1.0 + 1e-9, 0.0], [0.0, -0.6]],
    ]
    members = [clean[0], sloppy[0], clean[1], sloppy[1], sloppy[2], clean[2]]
    doc = {"schema_version": "1", "kind": "subspaces", "n": 3, "k": 2, "members": members}
    path = tmp_path / "mixed.json"
    path.write_text(dumps_json(doc))
    reps = load_family(path).reps
    expected = [np.array(m) if m in clean else orthonormalize(m) for m in members]
    for rep, want in zip(reps, expected):
        assert rep.tobytes() == want.tobytes()
    assert not np.array_equal(reps[4], np.array(sloppy[2]))


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


def test_a_line_file_is_checked_once(tmp_path, monkeypatch, lines):
    # one orthonormality check, one distinctness scan and one common-|cos| scan:
    # two passes over the member pairs
    path = tmp_path / "lines.json"
    save_family(path, lines)
    family = load_family(path)
    # the same lines checked twice: as a family, then as a LineSet of its vectors
    reference = LineSet(family.reps[:, :, 0], tol=1e-8, metadata=family.metadata)
    passes = []

    def counted(reps):
        passes.append(reps.shape)
        return pair_chunks(reps)

    monkeypatch.setattr(grassmann, "pair_chunks", counted)
    monkeypatch.setattr(constructions, "pair_chunks", counted)
    loaded = load_lineset(path)
    assert passes == [(4, 3, 1), (4, 3, 1)]
    assert loaded.vectors.tobytes() == reference.vectors.tobytes() == lines.vectors.tobytes()
    assert loaded.common_cos == reference.common_cos == lines.common_cos
    assert loaded.metadata == reference.metadata == lines.metadata


LINE_FILES_WITHOUT_A_LINE_SET = {
    # lines of R^2 at 0, 30 and 90 degrees
    "skew": ([[math.cos(t), math.sin(t)] for t in (0.0, math.pi / 6, math.pi / 2)],
             "line set is not equiangular: |<u,v>| spread 4.553e-01 exceeds 1.0e-08"),
    # distinct lines 1.2e-10 rad apart, whose |cos| rounds to 1
    "near": ([[math.cos(math.pi / 8 + t), math.sin(math.pi / 8 + t)] for t in (0.0, 1.2e-10)],
             "common_cos must lie in [0, 1), got 1.0"),
    "empty": ([], "expected an (N, n) vector array, got (0, 2)"),
}


@pytest.mark.parametrize("case", LINE_FILES_WITHOUT_A_LINE_SET)
def test_a_line_file_without_a_line_set_raises_parse_error(tmp_path, case):
    members, message = LINE_FILES_WITHOUT_A_LINE_SET[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "lines", "n": 2, "k": 1, "members": members}))
    with pytest.raises(ParseError) as caught:
        load_lineset(path)
    assert str(caught.value) == message
    # the file still loads as a family of lines
    assert len(load_family(path)) == len(members)


@pytest.mark.parametrize("k, n", [(1, 3), (2, 4)])
def test_packing_result_round_trip(tmp_path, k, n):
    from grasspack.packing import PackingProblem, solve

    problem = PackingProblem(k=k, n=n, m=4, metric="chordal", seed=2, restarts=2, max_iters=200)
    result = solve(problem)
    path = tmp_path / "result.json"
    save_packing_result(path, problem, result)
    doc = read_json(path)
    assert doc["kind"] == "packing_result"
    assert PackingProblem.from_dict(doc["problem"]) == problem
    assert doc["history"] == [list(entry) for entry in result.history]
    family = parse_family_doc(doc)
    assert family.reps.tobytes() == result.family.reps.tobytes()
    assert family.metadata == result.family.metadata
