"""Graph file schema and deterministic report serialization.

Graphs and analysis reports travel as JSON documents.  Serialization is
byte-deterministic and written in one pass by `dumps`: one key per line in
insertion order, an array of scalars alone on one line, ASCII text with
`\\uXXXX` escapes, and every float as `%.17g`, which round-trips doubles
exactly.  A non-finite value raises NumericError naming its report path, so
the command exits 2.  Tables are assembled in numpy: `format_rows` formats
each distinct value of a column once and joins the cells of every row with
bytes operations, and `stream_rows` writes a table in blocks of 4,096 lines
(`TABLE_BLOCK_ROWS`), joining each block's theta text from formatted axis
texts, so no per-row Python string is built and the table's text is never
held whole.  The text is the same as one `%.17g` per cell joined by tabs.
Parsing is strict; unknown fields are rejected with the offending path.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import NumericError, ValidationError
from .graph import EdgeRecord, PeriodicGraphSpec, VertexInfo

GRAPH_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1


def format_float(value: float) -> str:
    # Parsed inputs are checked to be finite, so this is a computation fault.
    if not math.isfinite(value):
        raise NumericError("non-finite number computed for the report")
    return "%.17g" % value


def format_rows(table) -> np.ndarray:
    """Tab-separated rows of a 2-D float table, each cell as `format_float`.

    Returns a fixed-width bytes array with one entry per row.  Each distinct
    value of a column is formatted once and its text gathered to every row
    that holds it.  Values are told apart by their bit pattern, so -0.0 and
    0.0 keep their own text.
    """
    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all():
        raise NumericError("non-finite value computed for the dispersion table")
    rows = np.zeros(len(table), dtype="S1")  # the rows of a table without columns
    for j, column in enumerate(table.T):
        distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
        values = distinct.view(np.float64).tolist()
        # One %-format over every distinct value, split back into their texts;
        # every cell after the first carries its tab.
        template = b"%.17g\n" if j == 0 else b"\t%.17g\n"
        texts = np.array((template * len(values) % tuple(values)).split(b"\n")[:-1], dtype="S")
        rows = texts[inverse] if j == 0 else np.strings.add(rows, texts[inverse])
    return rows


# Lines per block of `stream_rows`: the text of one block is held at a time.
TABLE_BLOCK_ROWS = 4096


def stream_rows(parts, right: np.ndarray, index: np.ndarray):
    """Yield the text of the lines `theta[i] + "\t" + right[index[i]] + "\n"`,
    at most TABLE_BLOCK_ROWS at a time, from `format_rows` outputs.

    The theta rows are `parts` in order, each a list of axes of texts whose
    row k joins by tabs the texts at the row-major coordinates of k: a grid is
    d axes of m texts, a path or an odd grid's pi corners one axis.
    """
    right = np.strings.add(np.strings.add(b"\t", right), b"\n")
    for axes in parts:
        texts = [axes[0], *(np.strings.add(b"\t", axis) for axis in axes[1:])]
        shape = [len(axis) for axis in axes]
        # Trailing axes whose rows fit in a block are broadcast, the rest (the first always) gathered.
        lead = next((j for j in range(1, len(shape)) if math.prod(shape[j:]) <= TABLE_BLOCK_ROWS), len(shape))
        heads, step = math.prod(shape[:lead]), TABLE_BLOCK_ROWS // math.prod(shape[lead:])
        for start in range(0, heads, step):
            picks = np.unravel_index(np.arange(start, min(start + step, heads)), shape[:lead])
            lines = texts[0][picks[0]]
            for text, pick in zip(texts[1:], picks[1:]):
                lines = np.strings.add(lines, text[pick])
            for text in texts[lead:]:
                lines = np.strings.add(lines[:, None], text).ravel()
            block = np.strings.add(lines, right[index[: len(lines)]])
            index = index[len(lines) :]
            # Texts hold no NUL byte, so dropping the padding joins the lines.
            raw = block.view(np.uint8)
            yield raw[raw != 0].tobytes().decode("ascii")


def dumps(document) -> str:
    """Render a JSON document as deterministic, ASCII-only text.

    The layout: an object puts one key per line and an array holding an
    object or array puts one item per line, indented two spaces a level; an
    array of scalars alone goes on one line.  Strings and keys are written
    with `\\uXXXX` escapes for every non-ASCII character, floats as `%.17g`,
    which round-trips doubles exactly.  A non-finite float raises
    NumericError naming its report path, such as `flat_bands[1].value`, which
    the command line reports with exit code 2.  Any other value type raises
    ValidationError.
    """
    try:
        return _text(document, "") + "\n"
    except NumericError as exc:
        steps = _nonfinite_steps(document)
        if not steps:  # the document is the value
            raise
        # A key of the document itself is named without its leading dot.
        path = "".join(steps).removeprefix(".")
        raise NumericError(f"{exc} at {path}") from None


_LEAVES = {
    float: format_float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    str: encode_basestring_ascii,
}


def _text(node, pad: str) -> str:
    """Text of `node`, whose line starts with the indentation `pad`.

    Values of the exact types in `_LEAVES` are written by them; every other
    value goes through `isinstance` tests, so subclasses such as np.float64
    are written as their base type, by the same writer: an int subclass
    through `int.__repr__`, never through its own `__str__`.
    """
    leaf = _LEAVES.get(type(node))
    if leaf is not None:
        return leaf(node)
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = pad + "  "
        items = []
        for key, value in node.items():
            leaf = _LEAVES.get(type(value))
            text = leaf(value) if leaf is not None else _text(value, inner)
            items.append(f"{inner}{encode_basestring_ascii(str(key))}: {text}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        try:
            return "[" + ", ".join([_LEAVES[type(x)](x) for x in node]) + "]"
        except KeyError:  # an item of another type: nested, a subclass or unsupported
            pass
        if any(isinstance(x, (dict, list, tuple)) for x in node):
            inner = pad + "  "
            return "[\n" + ",\n".join([inner + _text(x, inner) for x in node]) + "\n" + pad + "]"
        return "[" + ", ".join([_text(x, pad) for x in node]) + "]"
    if isinstance(node, int):  # bool cannot be subclassed: it is a leaf
        return int.__repr__(node)
    if isinstance(node, float):
        return format_float(node)
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    raise ValidationError(f"cannot serialize value of type {type(node).__name__}")


def _nonfinite_steps(node):
    """Path steps, such as `[".flat_bands", "[1]", ".value"]`, to the first
    non-finite float under `node` in document order, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else []
    if isinstance(node, dict):
        children = ((f".{key}", value) for key, value in node.items())
    elif isinstance(node, (list, tuple)):
        children = ((f"[{i}]", value) for i, value in enumerate(node))
    else:
        return None
    for step, value in children:
        steps = _nonfinite_steps(value)
        if steps is not None:
            return [step, *steps]
    return None


def graph_to_document(spec: PeriodicGraphSpec) -> dict:
    vertices = []
    for v in spec.vertices:
        entry = {"label": v.label, "q": float(v.potential)}
        if v.position is not None:
            entry["position"] = [float(x) for x in v.position]
        vertices.append(entry)
    edges = [
        {"tail": e.tail, "head": e.head, "index": list(e.index)} for e in spec.edges
    ]
    return {
        "format_version": GRAPH_FORMAT_VERSION,
        "dimension": spec.dimension,
        "vertices": vertices,
        "edges": edges,
    }


def serialize_graph(spec: PeriodicGraphSpec) -> str:
    return dumps(graph_to_document(spec))


def _require_keys(entry: dict, required: set, optional: set, path: str) -> None:
    if not isinstance(entry, dict):
        raise ValidationError(f"{path}: expected an object")
    for key in entry:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in entry:
            raise ValidationError(f"{path}.{key}: missing field")


# An integer literal of more digits than int() converts (the interpreter's
# int_max_str_digits: 4,300 by default, at least 640 unless unlimited) lies
# far beyond the float64 range; the decoder reads it as this marker, which
# `_as_int` and `_as_number` report at its path.
_BEYOND_FLOAT64 = object()


def _parse_int(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _BEYOND_FLOAT64


def _as_int(value, path: str) -> int:
    if value is _BEYOND_FLOAT64:
        raise ValidationError(f"{path}: number beyond the float64 range")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    return value


def _as_number(value, path: str) -> float:
    if value is _BEYOND_FLOAT64:
        raise ValidationError(f"{path}: number beyond the float64 range")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float64 range
        raise ValidationError(f"{path}: number beyond the float64 range") from None


def graph_from_document(document) -> PeriodicGraphSpec:
    _require_keys(
        document,
        {"format_version", "dimension", "vertices", "edges"},
        set(),
        "$",
    )
    version = _as_int(document["format_version"], "$.format_version")
    if version != GRAPH_FORMAT_VERSION:
        raise ValidationError(f"$.format_version: unsupported version {version}")
    dimension = _as_int(document["dimension"], "$.dimension")
    raw_vertices = document["vertices"]
    raw_edges = document["edges"]
    if not isinstance(raw_vertices, list):
        raise ValidationError("$.vertices: expected an array")
    if not isinstance(raw_edges, list):
        raise ValidationError("$.edges: expected an array")
    vertices = []
    for j, entry in enumerate(raw_vertices):
        path = f"$.vertices[{j}]"
        _require_keys(entry, {"label", "q"}, {"position"}, path)
        if not isinstance(entry["label"], str):
            raise ValidationError(f"{path}.label: expected a string")
        position = None
        if "position" in entry:
            raw = entry["position"]
            if not isinstance(raw, list):
                raise ValidationError(f"{path}.position: expected an array")
            position = tuple(
                _as_number(x, f"{path}.position[{i}]") for i, x in enumerate(raw)
            )
        vertices.append(
            VertexInfo(entry["label"], _as_number(entry["q"], f"{path}.q"), position)
        )
    edges = []
    for i, entry in enumerate(raw_edges):
        path = f"$.edges[{i}]"
        _require_keys(entry, {"tail", "head", "index"}, set(), path)
        raw = entry["index"]
        if not isinstance(raw, list):
            raise ValidationError(f"{path}.index: expected an array of integers")
        index = tuple(_as_int(x, f"{path}.index[{k}]") for k, x in enumerate(raw))
        edges.append(
            EdgeRecord(
                _as_int(entry["tail"], f"{path}.tail"),
                _as_int(entry["head"], f"{path}.head"),
                index,
            )
        )
    try:
        return PeriodicGraphSpec(dimension, tuple(vertices), tuple(edges))
    except ValidationError as exc:
        raise ValidationError(f"$: {exc}") from None


def parse_graph(text: str) -> PeriodicGraphSpec:
    # Besides malformed text, the decoder refuses arrays or objects nested
    # deeper than the interpreter's recursion limit.
    try:
        document = json.loads(text, parse_int=_parse_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    return graph_from_document(document)


def load_graph(path) -> PeriodicGraphSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    return parse_graph(text)


def save_graph(spec: PeriodicGraphSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_graph(spec))
