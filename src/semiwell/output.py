"""Structured output documents, serialization, and plot-ready curves.

JSON is emitted by a small writer of our own because the stdlib encoder
offers no control over float formatting; every float is written with 17
significant digits so the decimal text round-trips to the same binary
value, and JSON and CSV renderings of one document agree digit for
digit.  Serialization is deterministic: same document, same bytes.

The plot-ready curves come from one table, ``_curve``, which gives each
curve as a function of z for a validated z0; :func:`curve_value` checks its
inputs and reads one value from it, and :func:`emit_curves` checks z0 once
and evaluates the one chosen function over the whole grid.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import Any, Callable

from .dimensionless import WellStrength, _check_int, cot, strength_value
from .errors import DomainError
from .variants import _G, VariantKind

SCHEMA_VERSION = "1"

# cot curve samples this close to a pole of cot are dropped
_POLE_BAND = 1e-6

_DOCUMENT_FIELDS = "command inputs results diagnostics schema_version"


class OutputDocument(namedtuple("OutputDocument", _DOCUMENT_FIELDS)):
    """One CLI result: envelope fields plus per-command payload.

    inputs, results and diagnostics are dicts; diagnostics defaults to a
    new empty one.
    """

    __slots__ = ()

    def __new__(
        cls,
        command: str,
        inputs: dict[str, Any],
        results: dict[str, Any],
        diagnostics: dict[str, Any] | None = None,
        schema_version: str = SCHEMA_VERSION,
    ) -> OutputDocument:
        if diagnostics is None:
            diagnostics = {}
        return tuple.__new__(
            cls, (command, inputs, results, diagnostics, schema_version)
        )

    def to_dict(self) -> dict[str, Any]:
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


def _write_json(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(_escape_json_string(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(_escape_json_string(str(key)))
            out.append(": ")
            _write_json(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _escape_json_string(s: str) -> str:
    safe = s.replace("\\", "\\\\").replace('"', '\\"')
    chunks = []
    for ch in safe:
        code = ord(ch)
        chunks.append(f"\\u{code:04x}" if code < 0x20 else ch)
    return '"' + "".join(chunks) + '"'


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _csv_table(doc: OutputDocument) -> tuple[list[str], list[list[Any]]]:
    r = doc.results
    if doc.command == "count":
        return ["count"], [[r["count"]]]
    if doc.command == "solve":
        header = ["m", "z", "z_tilde", "energy_ratio", "residual", "newton_iters"]
        return header, [[row[h] for h in header] for row in r["roots"]]
    if doc.command == "exact":
        # the results are the fields of ExactSolutionRecord, in order
        return list(r), [list(r.values())]
    if doc.command == "variants":
        header = ["position", "z", "spurious"]
        return header, [[row[h] for h in header] for row in r["intersections"]]
    if doc.command == "wavefn":
        return ["x", "psi"], [[p["x"], p["psi"]] for p in r["points"]]
    if doc.command == "curves":
        return ["z", "value"], [[p["z"], p["value"]] for p in r["points"]]
    raise ValueError(f"no CSV table defined for command {doc.command!r}")


def serialize(doc: OutputDocument, fmt: str) -> bytes:
    """Render a document as UTF-8 bytes in the named format (json or csv)."""
    if fmt == "json":
        out: list[str] = []
        _write_json(doc.to_dict(), out)
        out.append("\n")
        return "".join(out).encode("utf-8")
    if fmt == "csv":
        # every cell is a fixed header name, an int, a float or a bool, so
        # none needs quoting
        header, rows = _csv_table(doc)
        lines = [",".join(header)]
        lines += [",".join([_cell(v) for v in row]) for row in rows]
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


# the exact left-hand-side curve, under its conventional name
EXACT_CIRCLE = CurveKind.CIRCLE


def _curve(kind: CurveKind, v: float) -> Callable[[float], float]:
    # the named curve as a function of z, for an already validated z0 = v
    if kind is CurveKind.CIRCLE:
        return lambda z: math.sqrt((v - z) * (v + z))
    if kind is CurveKind.COT:
        return lambda z: -z * cot(z)
    g = _G[VariantKind(kind.value)]
    return lambda z: v * g(z)


def curve_value(kind: CurveKind, z: float, z0: WellStrength | float) -> float:
    """Height of the named curve at z, for z in [0, z0]."""
    v = strength_value(z0)
    if not 0.0 <= z <= v:
        raise DomainError(f"z must lie in [0, z0]: z={z!r}, z0={v!r}")
    return _curve(kind, v)(z)


def emit_curves(
    z0: WellStrength | float,
    kind: CurveKind | VariantKind,
    samples: int = 1000,
) -> list[tuple[float, float]]:
    """Evenly spaced (z, value) samples of one curve over [0, z0].

    The cot curve has poles at nonzero multiples of pi (and a removable
    0/0 at z = 0); samples with |sin z| < 1e-6 are dropped there, so that
    curve may return fewer than the requested number of points.  All
    other kinds are total on [0, z0] and keep the full grid, endpoints
    included.
    """
    v = strength_value(z0)
    kind = CurveKind(kind.value)
    _check_int("samples", samples, 2)
    curve = _curve(kind, v)
    # v * (i / (samples - 1)) never leaves [0, v], so no sample is range-checked
    grid = [v * (i / (samples - 1)) for i in range(samples)]
    if kind is CurveKind.COT:
        grid = [z for z in grid if not abs(math.sin(z)) < _POLE_BAND]
    return [(z, curve(z)) for z in grid]
