"""FamilyFile JSON round-trip: the on-disk format shared by all CLI commands.

Files carry schema_version "1", a kind ("lines" or "subspaces"), the (n, k)
shape, the members as row-major nested lists, and a free-form metadata map.
Floats are emitted with 17 significant digits, so writing and re-reading a
file reproduces every double bit-for-bit except -0.0: it is written as the
JSON integer -0, which reads back as +0.0.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .constructions import LineSet, SubspaceFamily
from .errors import GrasspackError, ParseError
from .linalg import EPS_ORTH, orthonormalize_stack

SCHEMA_VERSION = "1"

KIND_LINES = "lines"
KIND_SUBSPACES = "subspaces"


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any IEEE-754 double."""
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dumps_json(value) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    Lists whose elements are all scalars stay on one line; containers nest
    with two-space indentation.  Key order is insertion order.
    """
    parts: list[str] = []
    _emit(value, parts, 0)
    parts.append("\n")
    return "".join(parts)


def _emit(value, parts: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: ")
            _emit(item, parts, depth + 1)
            parts.append(",\n" if i < len(value) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value.tolist()) if isinstance(value, np.ndarray) else list(value)
        if not items:
            parts.append("[]")
            return
        if all(_is_scalar(item) for item in items):
            parts.append("[" + ", ".join(_atom(item) for item in items) + "]")
            return
        parts.append("[\n")
        for i, item in enumerate(items):
            parts.append(inner)
            _emit(item, parts, depth + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(_atom(value))


def _is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, np.integer, np.floating)
    )


def _atom(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _doc(kind: str, n: int, k: int, members: list, metadata: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "n": n, "k": k, "members": members,
            "metadata": metadata}


def lineset_to_doc(lines: LineSet, metadata: dict | None = None) -> dict:
    meta = {"common_cos": float(lines.common_cos), **(metadata or {})}
    return _doc(KIND_LINES, lines.n, 1, lines.vectors.tolist(), meta)


def family_to_doc(family: SubspaceFamily, metadata: dict | None = None) -> dict:
    meta = dict(family.metadata)
    if family.provenance:
        meta.setdefault("provenance", family.provenance)
    meta.update(metadata or {})
    return _doc(KIND_SUBSPACES, family.n, family.k, family.reps.tolist(), meta)


def _validate_doc(doc) -> dict:
    if not isinstance(doc, dict):
        raise ParseError("family file must contain a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})"
        )
    kind = doc.get("kind")
    if kind not in (KIND_LINES, KIND_SUBSPACES):
        raise ParseError(f"unknown kind {kind!r}")
    n, k = doc.get("n"), doc.get("k")
    # type(...) is int: JSON true/false would pass isinstance(..., int)
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise ParseError(f"n and k must be positive integers, got n={n!r}, k={k!r}")
    if kind == KIND_LINES and k != 1:
        raise ParseError(f"kind 'lines' requires k = 1, got k={k}")
    if k > n:
        raise ParseError(f"need k <= n, got k={k}, n={n}")
    members = doc.get("members")
    if not isinstance(members, list):
        raise ParseError("members must be a list")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    return doc


def _member_matrix(entry, n: int, k: int, kind: str, index: int) -> np.ndarray:
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"member {index} is not numeric") from None
    if kind == KIND_LINES:
        if arr.shape != (n,):
            raise ParseError(
                f"member {index}: expected a length-{n} vector, got shape {arr.shape}"
            )
        arr = arr.reshape(n, 1)
    elif arr.shape != (n, k):
        raise ParseError(
            f"member {index}: expected an {n}x{k} matrix, got shape {arr.shape}"
        )
    # numpy's float conversion also accepts strings such as "1" and booleans
    leaves = np.asarray(entry, dtype=object).flat
    if not all(isinstance(x, (int, float, np.number)) and not isinstance(x, bool) for x in leaves):
        raise ParseError(f"member {index} is not numeric")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"member {index} has non-finite entries")
    return arr


def parse_family_doc(doc) -> SubspaceFamily:
    """Build a SubspaceFamily from a validated doc; lines load as Gr(1, n).

    Representatives are re-orthonormalized on load (span-preserving; a no-op
    within roundoff for files this package wrote).  The first member that is
    malformed or rank-deficient fails the load, named by its index.
    """
    doc = _validate_doc(doc)
    n, k, entries = doc["n"], doc["k"], doc["members"]
    # a malformed member's error waits until the members before it pass the rank check
    reps, malformed = np.empty((len(entries), n, k)), None
    for index, entry in enumerate(entries):
        try:
            reps[index] = _member_matrix(entry, n, k, doc["kind"], index)
        except ParseError as exc:
            reps, malformed = reps[:index], exc
            break
    residual = np.abs(np.swapaxes(reps, -1, -2) @ reps - np.eye(k)).max(axis=(-2, -1))
    sloppy = np.flatnonzero(residual > EPS_ORTH)  # sloppy hand-written spans get cleaned
    reps[sloppy], independent = orthonormalize_stack(reps[sloppy])
    if not independent.all():
        index = sloppy[np.argmin(independent)]
        raise ParseError(f"member {index}: columns are numerically dependent")
    if malformed is not None:
        raise malformed
    try:
        return SubspaceFamily.from_stack(
            reps,
            provenance=str(doc["metadata"].get("provenance", "")),
            metadata=dict(doc["metadata"]),
        )
    except (GrasspackError, ValueError) as exc:
        raise ParseError(str(exc)) from None


def parse_lineset_doc(doc) -> LineSet:
    """Build a LineSet from a doc of kind 'lines', checking equiangularity.

    The members load through `parse_family_doc` as a Gr(1, n) family, so a
    line file gets the same checks and normalization as any other.
    """
    doc = _validate_doc(doc)
    if doc["kind"] != KIND_LINES:
        raise ParseError(f"expected kind 'lines', got {doc['kind']!r}")
    return LineSet.from_vectors(parse_family_doc(doc).reps[:, :, 0], tol=1e-8)


def read_json(path):
    """Parsed JSON content of a file; ParseError when unreadable or not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_doc(path) -> dict:
    return _validate_doc(read_json(path))


def load_family(path) -> SubspaceFamily:
    return parse_family_doc(load_doc(path))


def load_lineset(path) -> LineSet:
    return parse_lineset_doc(load_doc(path))


def save_lineset(path, lines: LineSet, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_json(lineset_to_doc(lines, metadata)), encoding="utf-8")


def save_family(path, family: SubspaceFamily, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_json(family_to_doc(family, metadata)), encoding="utf-8")
