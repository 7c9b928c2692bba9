"""Graph file schema and deterministic report serialization.

Graphs and analysis reports travel as JSON documents.  Serialization is
byte-deterministic: keys keep their insertion order and every float is
rendered with 17 significant digits, which round-trips doubles exactly.
Tables are assembled in numpy: `format_rows` formats each distinct value of
a column once and joins the cells of every row with bytes operations, and
`stream_rows` writes the rows in blocks of `TABLE_BLOCK_ROWS`, so no
per-row Python string is built.  The text is the same as one `%.17g` per
cell joined by tabs.
Parsing is strict; unknown fields are rejected with the offending path.
"""

from __future__ import annotations

import json
import math

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


# Rows per block of `stream_rows`: the text of one block is held at a time.
TABLE_BLOCK_ROWS = 16384


def stream_rows(left: np.ndarray, right: np.ndarray, index: np.ndarray):
    """Yield the text of the lines `left[i] + "\t" + right[index[i]] + "\n"`,
    TABLE_BLOCK_ROWS lines at a time, from `format_rows` outputs."""
    right = np.strings.add(np.strings.add(b"\t", right), b"\n")
    for start in range(0, len(left), TABLE_BLOCK_ROWS):
        stop = start + TABLE_BLOCK_ROWS
        block = np.strings.add(left[start:stop], right[index[start:stop]])
        # Texts hold no NUL byte, so dropping the padding joins the lines.
        raw = block.view(np.uint8)
        yield raw[raw != 0].tobytes().decode("ascii")


def dumps(document) -> str:
    """Render a JSON document with deterministic float formatting."""
    pieces: list[str] = []
    _emit(document, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(node, out: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _emit(value, out, depth + 1)
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        flat = all(not isinstance(x, (dict, list, tuple)) for x in node)
        if flat:
            out.append("[" + ", ".join(_scalar(x) for x in node) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(node):
            out.append(inner)
            _emit(value, out, depth + 1)
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(node))


def _scalar(node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return str(node)
    if isinstance(node, float):
        return format_float(node)
    if isinstance(node, str):
        return json.dumps(node)
    raise ValidationError(f"cannot serialize value of type {type(node).__name__}")


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


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    return float(value)


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
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
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
