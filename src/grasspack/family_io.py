"""FamilyFile JSON round-trip: the on-disk format shared by all CLI commands.

Files carry schema_version "1", a kind ("lines" or "subspaces"), the (n, k)
shape, the members as row-major nested lists, and a free-form metadata map.
`family_to_doc` and `save_family` write every family; a LineSet, a k = 1
family, as kind "lines" with its measured common_cos first in the metadata.
`load_family` reads a `grasspack pack` result as its "family" doc, and
`load_lineset` a "lines" file as a LineSet, checked once; any file that
holds none, lines that are not equiangular too, raises ParseError.
Floats are emitted with 17 significant digits and -0.0 as ``-0.0``, so
writing and re-reading a file reproduces every double bit-for-bit.  A float
with an integral value is written as a JSON integer (``1``, ``0``); the
parser reads the members as floats, so such an entry loads back as the same
double.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GrasspackError, ParseError

# numpy and the numerical modules load in the parse functions: writing JSON needs none
if TYPE_CHECKING:
    import numpy as np

    from .constructions import LineSet, SubspaceFamily
    from .packing import PackingProblem, PackingResult

SCHEMA_VERSION = "1"

KIND_LINES = "lines"
KIND_SUBSPACES = "subspaces"
# what `grasspack pack` writes: the problem, the run, and the family as a family doc
KIND_PACKING_RESULT = "packing_result"


def format_float(x: float) -> str:
    """17 significant digits, enough to round-trip any IEEE-754 double; -0.0 as ``-0.0``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def format_int(value: int) -> str:
    """All the digits of an int, also past the int-to-str limit that guards json.loads."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def dumps_json(value) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    Lists whose elements are all scalars stay on one line; containers nest
    with two-space indentation.  Key order is insertion order.  A value
    nested deeper than the recursion limit allows raises ValueError.
    """
    try:
        return _json_text(value, "") + "\n"
    except RecursionError:
        raise ValueError("document is nested too deeply to write as JSON") from None


def _json_text(value, pad: str) -> str:
    """The JSON text of value, laid out for a position indented by pad."""
    # numpy arrays and scalars as the Python lists and scalars they hold
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return format_int(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if isinstance(value, dict):
        brackets, items, one_line = "{}", [], not value
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {_json_text(item, inner)}")
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [_json_text(item, inner) for item in value]
        one_line = not any(text[0] in "[{" for text in items)  # no item is a container
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
    if one_line:
        return brackets[0] + ", ".join(items) + brackets[1]
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def family_to_doc(family: SubspaceFamily) -> dict:
    """The family's file doc; a LineSet writes kind "lines", its vectors as the
    members and its measured common_cos first in the metadata."""
    from .constructions import LineSet

    # a copy: the doc is the caller's to change, the family's metadata is not
    kind, members, metadata = KIND_SUBSPACES, family.reps, dict(family.metadata)
    if isinstance(family, LineSet):
        kind, members, metadata = KIND_LINES, family.vectors, {"common_cos": family.common_cos, **metadata}
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "n": family.n, "k": family.k,
            "members": members.tolist(), "metadata": metadata}


def _validate_doc(doc) -> tuple[str, int, int, list, dict]:
    """The kind, n, k, members and metadata of a family doc (metadata may be absent)."""
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
    return kind, n, k, members, metadata


def _member(entry, n: int, k: int, kind: str, index: int) -> np.ndarray:
    """Member `index` as an n x k matrix; a sloppy span is re-orthonormalized."""
    import numpy as np

    from .linalg import EPS_ORTH, orthonormality_residuals, orthonormalize_stack

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
    # numpy's float conversion also accepts strings such as "1" and booleans;
    # the shape check has fixed the leaves to the n (or n x k) entries walked here
    leaves = entry if kind == KIND_LINES else itertools.chain.from_iterable(entry)
    numeric = (int, float, np.number)
    if not all(type(x) in (float, int) or (isinstance(x, numeric) and not isinstance(x, bool))
               for x in leaves):
        raise ParseError(f"member {index} is not numeric")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"member {index} has non-finite entries")
    if orthonormality_residuals(arr) <= EPS_ORTH:
        return arr
    clean, independent = orthonormalize_stack(arr)
    if not independent:
        raise ParseError(f"member {index}: columns are numerically dependent")
    return clean


def parse_family_doc(doc) -> SubspaceFamily:
    """Build a SubspaceFamily from a family doc; lines load as Gr(1, n).

    A pack result (kind 'packing_result') loads as the family doc under its
    "family" key.  Members are read in file order: each is checked, and one
    whose columns are not orthonormal within EPS_ORTH is re-orthonormalized
    (span-preserving; files this package wrote need none).  The first member
    that is malformed or rank-deficient fails the load, named by its index.
    """
    if isinstance(doc, dict) and doc.get("kind") == KIND_PACKING_RESULT:
        doc = doc.get("family")
        if not isinstance(doc, dict):
            raise ParseError(f"a {KIND_PACKING_RESULT!r} file must hold a 'family' object")
    return _parse_members(*_validate_doc(doc))


def save_packing_result(path, problem: PackingProblem, result: PackingResult) -> None:
    """Write a pack run as a 'packing_result' file, which parse_family_doc reads."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": KIND_PACKING_RESULT,
           "problem": problem.to_dict(), "objective_value": result.objective_value,
           "best_iteration": result.best_iteration, "history": result.history,
           "family": family_to_doc(result.family)}
    Path(path).write_text(dumps_json(doc), encoding="utf-8")


def _parse_members(kind: str, n: int, k: int, entries: list, metadata: dict, lines: bool = False):
    import numpy as np

    from .constructions import LineSet, SubspaceFamily

    # in file order, so the first bad member names the error; the stack is
    # sized by the members read, never by the declared n and k alone
    members = [_member(entry, n, k, kind, index) for index, entry in enumerate(entries)]
    reps = np.stack(members) if members else np.empty((0, n, k))
    try:
        return LineSet(reps[:, :, 0], 1e-8, metadata) if lines else SubspaceFamily(reps, metadata)
    except (GrasspackError, ValueError) as exc:
        raise ParseError(str(exc)) from None


def parse_lineset_doc(doc) -> LineSet:
    """Build a LineSet from a doc of kind 'lines', checking equiangularity.

    The members are read as for any other file and checked once, by the
    LineSet, which keeps the file's metadata; each failure is a ParseError.
    """
    kind, *rest = _validate_doc(doc)
    if kind != KIND_LINES:
        raise ParseError(f"expected kind 'lines', got {kind!r}")
    return _parse_members(kind, *rest, lines=True)


def read_json(path):
    """Parsed JSON content of a file; ParseError when unreadable, not JSON or
    nested deeper than the recursion limit allows."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} is nested too deeply to parse as JSON") from None
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_family(path) -> SubspaceFamily:
    return parse_family_doc(read_json(path))


def load_lineset(path) -> LineSet:
    return parse_lineset_doc(read_json(path))


def save_family(path, family: SubspaceFamily) -> None:
    Path(path).write_text(dumps_json(family_to_doc(family)), encoding="utf-8")
