"""Document serialization and the plot-curve sampler."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from semiwell import (
    EXACT_CIRCLE,
    CurveKind,
    DomainError,
    OutputDocument,
    VariantKind,
    curve_value,
    emit_curves,
    format_float,
    serialize,
)


def sample_doc() -> OutputDocument:
    return OutputDocument(
        command="solve",
        inputs={"z0": 15.0, "tol": 1e-12, "max_iter": 50},
        results={
            "count": 1,
            "roots": [
                {
                    "m": 1,
                    "z": 2.9440408044848854,
                    "z_tilde": 14.708250193055869,
                    "energy_ratio": 0.03852167225987626,
                    "residual": -1.8e-15,
                    "newton_iters": 5,
                }
            ],
        },
        diagnostics={"newton_iters_total": 5},
    )


def test_format_float_round_trips():
    for x in [0.1, 2.9440408044848854, 1e-300, -3.5, 1234567890.123456, 5e-324, 2.0, -0.0]:
        assert float(format_float(x)) == x
    # whole floats keep their decimal point, so JSON readers see floats
    assert format_float(2.0) == "2.0"
    assert format_float(-0.0) == "-0.0"
    with pytest.raises(ValueError):
        format_float(math.inf)
    with pytest.raises(ValueError):
        format_float(math.nan)


def test_json_is_parseable_and_exact():
    doc = sample_doc()
    payload = serialize(doc, "json")
    parsed = json.loads(payload.decode("utf-8"))
    assert parsed == doc.to_dict()
    # envelope order is fixed
    assert list(parsed) == ["schema_version", "command", "inputs", "results", "diagnostics"]
    assert parsed["schema_version"] == "1"


def test_json_floats_survive_to_the_bit():
    payload = serialize(sample_doc(), "json").decode("utf-8")
    parsed = json.loads(payload)
    assert parsed["results"]["roots"][0]["z"] == 2.9440408044848854


def test_serialization_is_deterministic():
    assert serialize(sample_doc(), "json") == serialize(sample_doc(), "json")
    assert serialize(sample_doc(), "csv") == serialize(sample_doc(), "csv")


def test_csv_solve_table():
    payload = serialize(sample_doc(), "csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(payload)))
    assert rows[0] == ["m", "z", "z_tilde", "energy_ratio", "residual", "newton_iters"]
    assert len(rows) == 2
    assert rows[1][0] == "1"
    assert float(rows[1][1]) == 2.9440408044848854


def test_csv_and_json_agree_digit_for_digit():
    doc = sample_doc()
    json_z = json.loads(serialize(doc, "json").decode())["results"]["roots"][0]["z"]
    csv_rows = list(csv.reader(io.StringIO(serialize(doc, "csv").decode())))
    assert csv_rows[1][1] == format_float(json_z)


def test_csv_uses_unix_line_endings():
    payload = serialize(sample_doc(), "csv")
    assert b"\r" not in payload
    assert payload.endswith(b"\n")


def test_variant_doc_booleans():
    doc = OutputDocument(
        command="variants",
        inputs={"z0": 15.0, "kind": "sin"},
        results={
            "kind": "sin",
            "n_total": 1,
            "n_spurious": 1,
            "intersections": [{"position": 1, "z": 6.75, "spurious": True}],
        },
    )
    assert json.loads(serialize(doc, "json"))["results"]["intersections"][0]["spurious"] is True
    rows = list(csv.reader(io.StringIO(serialize(doc, "csv").decode())))
    assert rows[0] == ["position", "z", "spurious"]
    assert rows[1][2] == "true"


def test_unsupported_format_rejected():
    with pytest.raises(ValueError):
        serialize(sample_doc(), "yaml")


def test_string_escaping():
    doc = OutputDocument(command="count", inputs={"note": 'a "b"\n'}, results={"count": 0})
    parsed = json.loads(serialize(doc, "json").decode())
    assert parsed["inputs"]["note"] == 'a "b"\n'


class TestCurves:
    def test_circle_endpoints(self):
        pts = emit_curves(15.0, CurveKind.CIRCLE, samples=101)
        assert len(pts) == 101
        z0_at_origin = pts[0]
        assert z0_at_origin == (0.0, 15.0)
        z_last, v_last = pts[-1]
        assert z_last == 15.0
        assert v_last == 0.0

    def test_exact_circle_alias(self):
        assert EXACT_CIRCLE is CurveKind.CIRCLE

    def test_circle_curve_is_monotone_decreasing(self):
        pts = emit_curves(15.0, CurveKind.CIRCLE, samples=200)
        values = [v for _, v in pts]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cot_curve_skips_pole_neighborhoods(self):
        pts = emit_curves(15.0, CurveKind.COT, samples=2001)
        assert 0 < len(pts) < 2001
        for z, _ in pts:
            assert abs(math.sin(z)) >= 1e-6

    def test_cot_curve_value_at_cot_zero(self):
        # -z cot z crosses zero where cos does
        assert abs(curve_value(CurveKind.COT, math.pi / 2, 15.0)) < 1e-14

    def test_variant_kind_accepted_directly(self):
        a = emit_curves(15.0, VariantKind.SIN, samples=50)
        b = emit_curves(15.0, CurveKind.SIN, samples=50)
        assert a == b

    def test_sin_curve_bounded_by_strength(self):
        for kind in (CurveKind.SIN, CurveKind.ABS_SIN, CurveKind.NEG_SIN, CurveKind.CORRECT):
            pts = emit_curves(7.0, kind, samples=301)
            assert len(pts) == 301
            assert all(abs(v) <= 7.0 + 1e-12 for _, v in pts)

    def test_abs_sin_curve_nonnegative(self):
        pts = emit_curves(7.0, CurveKind.ABS_SIN, samples=301)
        assert all(v >= 0.0 for _, v in pts)

    def test_sample_grid_is_even(self):
        pts = emit_curves(10.0, CurveKind.SIN, samples=11)
        zs = [z for z, _ in pts]
        for i, z in enumerate(zs):
            assert z == pytest.approx(i * 1.0, abs=1e-12)

    def test_rejects_degenerate_sampling(self):
        with pytest.raises(DomainError):
            emit_curves(10.0, CurveKind.SIN, samples=1)

    @pytest.mark.parametrize("samples", [2.5, 3.0, True, "5"])
    def test_sample_count_must_be_an_int(self, samples):
        # 2.5 used to end in a bare TypeError from range()
        with pytest.raises(DomainError, match="samples"):
            emit_curves(15.0, CurveKind.SIN, samples)

    @pytest.mark.parametrize("z0", [15.0, 7.7898, 177.4971, 3 * math.pi])
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_emit_curves_is_curve_value_sample_by_sample(self, kind, z0):
        # the grid loop of curve_value calls, bit for bit; at z0 = 3 pi the
        # samples i = 333, 666 and 999 sit on the poles at pi, 2 pi and 3 pi,
        # so cot drops them and the 0/0 at z = 0
        want = []
        for i in range(1000):
            z = z0 * (i / 999)
            if kind is CurveKind.COT and abs(math.sin(z)) < 1e-6:
                continue
            want.append((z, curve_value(kind, z, z0)))
        got = emit_curves(z0, kind)
        assert repr(got) == repr(want)
        if kind is CurveKind.COT and z0 == 3 * math.pi:
            assert len(got) == 996

    def test_curve_value_domain(self):
        with pytest.raises(DomainError):
            curve_value(CurveKind.CIRCLE, -0.5, 15.0)
        with pytest.raises(DomainError):
            curve_value(CurveKind.CIRCLE, 15.5, 15.0)
        with pytest.raises(DomainError):
            curve_value(CurveKind.COT, 0.0, 15.0)

    def test_circle_meets_cot_at_the_roots(self):
        """Sign changes of (circle - cot) between consecutive samples in the
        same pi-cell reproduce the solved spectrum to grid resolution; pairs
        straddling a multiple of pi are skipped because the cot curve flips
        sign across its pole there as well."""
        from semiwell import solve_all

        z0 = 15.0
        samples = 20001
        step = z0 / (samples - 1)
        circle = dict(emit_curves(z0, CurveKind.CIRCLE, samples))
        pts = emit_curves(z0, CurveKind.COT, samples)
        crossings = []
        for (z1, c1), (z2, c2) in zip(pts, pts[1:]):
            if math.floor(z1 / math.pi) != math.floor(z2 / math.pi):
                continue
            d1 = circle[z1] - c1
            d2 = circle[z2] - c2
            if (d1 < 0.0) != (d2 < 0.0):
                crossings.append(0.5 * (z1 + z2))
        roots = [s.z for s in solve_all(z0)]
        assert len(crossings) == len(roots)
        for found, want in zip(crossings, roots):
            assert abs(found - want) <= 2.0 * step
