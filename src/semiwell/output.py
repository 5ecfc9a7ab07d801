"""Structured output documents, serialization, and plot-ready curves.

JSON is emitted by a small writer of our own because the stdlib encoder
offers no control over float formatting; every float is written with 17
significant digits so the decimal text round-trips to the same binary
value.  One function writes a document value as JSON text, and its
scalar cases (null, booleans, ints and floats) are also the CSV cells, so
JSON and CSV renderings of one document agree digit for digit by
construction.  A command's rows travel as a :class:`Table`, a header and
row tuples: JSON writes it as a list of objects, CSV writes it as its
table, and a document without one writes its results as one CSV row.
Serialization is deterministic: same document, same bytes.

The plot-ready curves are evaluated a grid at a time, so no sample costs
a Python call.  The curves of one well share one picture, the last one
kept: its grid, sines and cosines, and the points of y = +z0 sin z and
y = -z0 sin z, from which the sign rule of :mod:`semiwell.variants` picks
each rewritten right-hand side z0 g(z) without computing a height.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple

from .dimensionless import WellStrength, _check_int, _circle_scale, strength_value
from .errors import DomainError
from .variants import _G, VariantKind, _Picture

SCHEMA_VERSION = "1"

# cot curve samples this close to a pole of cot are dropped
_POLE_BAND = 1e-6

_DOCUMENT_FIELDS = "command inputs results diagnostics schema_version"


class Table(namedtuple("Table", "header rows")):
    """A command's rows: header, the column names, and rows, cell tuples in header order."""

    __slots__ = ()


class OutputDocument(namedtuple("OutputDocument", _DOCUMENT_FIELDS)):
    """One CLI result: envelope fields plus per-command payload.

    inputs, results and diagnostics are dicts; diagnostics defaults to a
    new empty one.  A results value may be a :class:`Table`, the rows of
    the command.
    """

    __slots__ = ()

    def __new__(
        cls,
        command: str,
        inputs: dict[str, object],
        results: dict[str, object],
        diagnostics: dict[str, object] | None = None,
        schema_version: str = SCHEMA_VERSION,
    ) -> OutputDocument:
        if diagnostics is None:
            diagnostics = {}
        return tuple.__new__(
            cls, (command, inputs, results, diagnostics, schema_version)
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "diagnostics": self.diagnostics,
        }


def format_float(x: float) -> str:
    """Decimal text with 17 significant digits; round-trips exactly.

    Whole values keep a trailing ".0" (2.0, not 2), so JSON readers see a
    float wherever the schema has one.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite value has no serialized form: {x!r}")
    text = format(x, ".17g")
    if "." in text or "e" in text:
        return text
    return text + ".0"


def _json_text(value: object) -> str:
    # JSON text of a document value; a scalar's text is also its CSV cell
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        value = value.replace("\\", "\\\\").replace('"', '\\"')
        return '"' + "".join([f"\\u{ord(c):04x}" if c < " " else c for c in value]) + '"'
    if isinstance(value, dict):
        items = [f"{_json_text(str(k))}: {_json_text(v)}" for k, v in value.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, Table):
        # a list of objects, each key's text built once per table
        keys = [_json_text(k) + ": " for k in value.header]
        rows = [", ".join([k + _json_text(v) for k, v in zip(keys, row)]) for row in value.rows]
        return "[" + ", ".join(["{" + row + "}" for row in rows]) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([_json_text(v) for v in value]) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_table(doc: OutputDocument) -> Table:
    # the document's table, or else its scalar results as one row
    values = doc.results.values()
    for value in values:
        if isinstance(value, Table):
            return value
    if any(isinstance(v, (list, tuple, dict)) for v in values):
        raise ValueError(f"no CSV table defined for command {doc.command!r}")
    return Table(tuple(doc.results), [tuple(values)])


def serialize(doc: OutputDocument, fmt: str) -> bytes:
    """Render a document as UTF-8 bytes in the named format (json or csv)."""
    if fmt == "json":
        return (_json_text(doc.to_dict()) + "\n").encode("utf-8")
    if fmt == "csv":
        # every cell is a fixed header name, an int, a float or a bool, so
        # none needs quoting
        header, rows = _csv_table(doc)
        lines = [",".join(header)]
        lines += [",".join([_json_text(v) for v in row]) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unsupported output format {fmt!r}")


class CurveKind(enum.Enum):
    """Curves whose crossings make the graphical solution.

    CIRCLE and COT are the two sides of the exact eigenvalue equation;
    the remaining kinds are the right-hand sides z0 g(z) of the rewritten
    forms, sharing names with :class:`semiwell.variants.VariantKind`.
    """

    CIRCLE = "circle"
    COT = "cot"
    SIN = "sin"
    ABS_SIN = "abs-sin"
    NEG_SIN = "neg-sin"
    CORRECT = "correct"


@functools.lru_cache(maxsize=1)
def _grid(v: float, samples: int) -> _Picture:
    # the picture of a validated z0 v over its grid in [0, v]; v * (i / n)
    # never leaves [0, v], so no sample is range-checked
    n = samples - 1
    return _Picture(v, tuple([v * (i / n) for i in range(samples)]))


def emit_curves(
    z0: WellStrength | float,
    kind: CurveKind | VariantKind,
    samples: int = 1000,
) -> list[tuple[float, float]]:
    """Evenly spaced (z, value) samples of one curve over [0, z0].

    The cot curve has poles at nonzero multiples of pi (and a removable
    0/0 at z = 0); samples with |sin z| < 1e-6 are dropped there, so that
    curve may return fewer than the requested number of points; above
    z0 of about 1.8e302, where its height can pass float64, an overflow
    raises DomainError.  All other kinds are total on [0, z0] and keep the
    full grid, endpoints included.
    """
    v = strength_value(z0)
    _check_int("samples", samples, 2)
    if not isinstance(kind, (CurveKind, VariantKind)):
        raise DomainError(f"kind must be a CurveKind or VariantKind, got {kind!r}")
    p = _grid(v, samples)
    if kind is CurveKind.CIRCLE:
        s = _circle_scale(v)
        u = v * s
        return [(z, math.sqrt((u - z * s) * (u + z * s)) / s) for z in p.grid]
    if kind is not CurveKind.COT:
        return _G[VariantKind(kind.value)](p)
    # |z cot z| <= z0 / _POLE_BAND on the kept samples, which may overflow
    band, grid = _POLE_BAND, p.grid
    points = [(z, -z * (c / s)) for z, s, c in zip(grid, p.sines, p.cosines) if abs(s) >= band]
    if math.isinf(v / band) and any(math.isinf(y) for _, y in points):
        raise DomainError(f"the cot curve -z cot(z) overflows float64 for z0={v!r}")
    return points
