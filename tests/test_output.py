"""Document serialization and the plot-curve sampler."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiwell.output
from semiwell import (
    CurveKind,
    DomainError,
    OutputDocument,
    VariantKind,
    cot,
    emit_curves,
    exact_solution,
    format_float,
    residual_exact,
    serialize,
)
from semiwell.cli import _dispatch, build_parser
from semiwell.output import Table, _csv_table, _json_text


def sample_doc() -> OutputDocument:
    return OutputDocument(
        command="solve",
        inputs={"z0": 15.0, "tol": 1e-12, "max_iter": 50},
        results={
            "count": 1,
            "roots": Table(
                ("m", "z", "z_tilde", "energy_ratio", "residual", "newton_iters"),
                [(1, 2.9440408044848854, 14.708250193055869, 0.03852167225987626, -1.8e-15, 5)],
            ),
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
    # the roots table reads back as one object per row
    want = doc.to_dict()
    roots = want["results"]["roots"]
    want["results"] = {**want["results"], "roots": [dict(zip(roots.header, r)) for r in roots.rows]}
    assert parsed == want
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


def csv_writer_bytes(doc: OutputDocument) -> bytes:
    # the table written by the standard library's csv module, the reference
    header, rows = _csv_table(doc)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_json_text(v) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        "count --z0 15",
        "count --z0 1.0",
        "solve --z0 25",
        "solve --z0 1.0",
        "solve --mass 1 --width 1 --depth 1 --units ev-nm",
        "exact --n 3",
        "wavefn --z0 15 --state 2 --samples 50",
        "variants --kind sin --z0 25",
        "variants --kind neg-sin --z0 1.0",
        "curves --kind cot --z0 15 --samples 64",
        "curves --kind circle --z0 15 --samples 64",
    ],
)
def test_csv_is_byte_for_byte_the_csv_module_table(argv):
    parser = build_parser()
    args = parser.parse_args(argv.split())
    doc = _dispatch(parser, args)
    assert serialize(doc, "csv") == csv_writer_bytes(doc)
    # the rows reach the writer as a Table, never as a list of dicts
    assert not any(isinstance(v, (list, dict)) for v in doc.results.values())
    # one table feeds both formats: each JSON row object has the CSV header
    # as its keys and the CSV cells as its values' text; a document without a
    # table writes its results object as the one row
    results = json.loads(serialize(doc, "json"))["results"]
    header, *rows = csv.reader(io.StringIO(serialize(doc, "csv").decode()))
    tables = [v for v in results.values() if isinstance(v, list)]
    objects = tables[0] if tables else [results]
    assert len(objects) == len(rows)
    for obj, row in zip(objects, rows):
        assert list(obj) == header
        assert [_json_text(v) for v in obj.values()] == row


def test_exact_csv_columns_are_the_record_fields():
    parser = build_parser()
    doc = _dispatch(parser, parser.parse_args(["exact", "--n", "3"]))
    rows = list(csv.reader(io.StringIO(serialize(doc, "csv").decode())))
    assert rows[0] == [
        "n",
        "z",
        "z0",
        "z_tilde",
        "energy_over_v0",
        "v0_natural",
        "amplitude_sq_times_a",
        "p_inside",
    ]
    assert rows[1] == [_json_text(v) for v in exact_solution(3)]


def test_variant_doc_booleans():
    doc = OutputDocument(
        command="variants",
        inputs={"z0": 15.0, "kind": "sin"},
        results={
            "kind": "sin",
            "n_total": 1,
            "n_spurious": 1,
            "intersections": Table(("position", "z", "spurious"), [(1, 6.75, True)]),
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


def edge_doc() -> OutputDocument:
    # every value kind the writer knows, and the strings and floats at its edges
    return OutputDocument(
        command="edge",
        inputs={
            "quote": 'a "b"',
            "backslash": "c:\\d",
            "newline": "e\nf",
            "control": "\x00\x01\x1f",
            "del": "g\x7fh",
            "non_ascii": "z\u2080 \u00e9 \u00a0 \u2028 \U0001d70b",
            "empty": "",
            'k"e\\y\n': "key escapes",
            7: "int key",
        },
        results={
            "flags": [True, False, None],
            "ints": [0, -1, 2**53 + 1, 10**30, -(10**30)],
            "floats": [
                -0.0, 5e-324, 0.1, 1e16, 1e17, 2.0, 0.0, -2.5e-308, 1.7976931348623157e308
            ],
            "nested": {
                "tuple": (1, (2.0, [3, {"x": ()}]), {}),
                "list": [[], [[]], {"y": {"z": None}}],
            },
        },
        diagnostics={
            "empty": {},
            "row": {"m": 1, "z": 2.9440408044848854, "spurious": False},
        },
    )


def test_edge_document_bytes_are_frozen():
    # SHA-256 frozen from the writer before JSON and CSV shared one scalar rule
    payload = serialize(edge_doc(), "json")
    assert hashlib.sha256(payload).hexdigest() == (
        "147e89023b7409c8e41ebd4e043d62600b2b71c6c4e0af1d31b27c1953fcccc6"
    )
    # the standard library reads back what it would write, 7 as the key "7"
    assert json.loads(payload) == json.loads(json.dumps(edge_doc().to_dict()))


def test_a_list_without_a_table_has_no_csv():
    # a document's rows are a Table; a list or dict among its results, with
    # no Table, is no CSV table
    with pytest.raises(ValueError, match="no CSV table defined for command 'edge'"):
        serialize(edge_doc(), "csv")
    rows = OutputDocument(command="solve", inputs={}, results={"roots": [{"m": 1}]})
    with pytest.raises(ValueError, match="no CSV table defined for command 'solve'"):
        serialize(rows, "csv")


# SHA-256 of the CSV of each command's table, empty ones included, frozen
# before JSON and CSV shared one scalar rule
CSV_DIGESTS = {
    "count --z0 15": "f8771c1196055b84f66d28565fcc3327d10c59ebe4203ad9cdbec47b0d81ddf1",
    "solve --z0 25": "f63f9db52d6318679d146951914edb7f735cd3701f071abe3cc45b83be8e67a0",
    "solve --z0 1.0": "10cf7ba5c9f2a46b25cf7c61cc0c60865a1583750ef5b83d42b3e56688398a6e",
    "exact --n 3": "e4ad7c0e1dd057e700fb66676ea9e65e300da83183762965fdec32f579ee322d",
    "wavefn --z0 15 --state 2 --samples 50": (
        "101679faf70f179ff2ed38039f027e69379a7e147d58c8d5ba4ccbc7a157b3a1"
    ),
    "variants --kind sin --z0 25": (
        "d6226068438f56abfdd29645f72b522e59c983002fac6208d3f121c7c30d208e"
    ),
    "variants --kind neg-sin --z0 1.0": (
        "9a80c3cabefee1ae9cbb0cb89cb55605233b055b4c37c533d1ebfd40688e8089"
    ),
    "curves --kind cot --z0 15 --samples 64": (
        "9885574f6dcf97d7cfff82db96146d3bc46cffb3e8deeb7e5bee26e9fc414ace"
    ),
}


@pytest.mark.parametrize("argv", list(CSV_DIGESTS))
def test_csv_bytes_are_frozen(argv):
    parser = build_parser()
    doc = _dispatch(parser, parser.parse_args(argv.split()))
    assert hashlib.sha256(serialize(doc, "csv")).hexdigest() == CSV_DIGESTS[argv]


def test_a_scalar_cell_is_its_json_text():
    # one rule writes a scalar in both formats, so the two agree by construction
    for value in [None, True, False, 0, -(10**30), -0.0, 5e-324, 0.1, 1e17, 2.0]:
        doc = OutputDocument(command="count", inputs={}, results={"count": value})
        cell = serialize(doc, "csv").decode().splitlines()[1]
        assert cell == _json_text(value)
        assert json.loads(serialize(doc, "json"))["results"]["count"] == json.loads(cell)


# SHA-256 of emit_curves(z0, kind), "z value" a line as float.hex, frozen
# before the curves were computed a grid at a time
CURVE_DIGESTS = {
    150.0: {
        "CIRCLE": "b31a16e4adaca9f9605a4c1bb7a28bdcc18a88ba08f72e532f2712291ce11d3e",
        "COT": "2df75ae075e084b8edbf09d8e692a1b55f51ede3de9fb26e912f80769a28eec3",
        "SIN": "a76aaccee11f1bb43f5a36f2d40ab605f4a21d24e8e2523a73614ccb7e2bce22",
        "ABS_SIN": "d54642e68abeaf87a831e99dc1b1ffb099906d408dead7fd0d8af4f88f3dd4e1",
        "NEG_SIN": "ff5f8fb6b9b3ce736f41d334849f8ce6182d8d1bf35c3b6ee1f624a3dda8826b",
        "CORRECT": "a6f14456577b1557e4f98698281e89f1aebae37a19a3f5d3d910d57386adb9fc",
    },
    177.4971: {
        "CIRCLE": "2e18121716828b678b8eda1a8bd024acf0f32580b4dc48b53e2f2b0b4ad3ba0f",
        "COT": "307625ebd7859e8bbe186e171cebb01277bde8eb80633442e48dc921abc8f456",
        "SIN": "177cf65f9e122280af4d7b7f3b13d83e6bed7ac20652cceee919261ea934aae0",
        "ABS_SIN": "ba9167d1b810d2c9c5e3f4fa06c31854ad3529a06a5e0cd391e5b7e41588057d",
        "NEG_SIN": "24130f58143762b00f918aa7d7af6f3a1d8eda01ca008bd4ab074e60ee6907f4",
        "CORRECT": "ae4094f57d2a8be5a1f14cf3ad8a312ff8b92b07ceead2a5ccbce9cee883ceb3",
    },
    252.896: {
        "CIRCLE": "8b4d378f712cf4019caf161b5c1be557a9c4907ee90c7bcf9d0b50cd5604b833",
        "COT": "3cd777d7c0c5a988b0abc8662664366d1da9346d621670bdea008441102c3692",
        "SIN": "04699b6d9b82f41818c4ada0a24ec237c3cb0972a054da2b1e234a93f1b9851e",
        "ABS_SIN": "aa0325e664ef393791df8d7275004b32e0942107f42fefca713608ee94e5ffe8",
        "NEG_SIN": "748c109f876a62c0e890b2048ebec5c377071b5d6b55ec7734f7027529511496",
        "CORRECT": "fde6611b4f21baec37e4c29bc1096d7b20428bf5bc4719f6c41e5a0e54cea148",
    },
    299.0: {
        "CIRCLE": "9764e0059aced7ec87e84d223ae9519ca34c9ef3dd3cacd971c8f5f48422daff",
        "COT": "704b86929e31898d38d3caa1966bc76f098a5e85e9be7bec3fcf672ac95b008a",
        "SIN": "5e7c34e4b633a9b10e127a2e6983e6ead4b3c6e5c94c2a3e825ad1db7a10a311",
        "ABS_SIN": "e744c80aeae5af8e105c234bca806e9da9130af749b8671fe40f00daacb52226",
        "NEG_SIN": "bccd8021d9162dba7682e96fa4f97a0775b95108ceecf8269d49b1da73a8c38d",
        "CORRECT": "e979c3621ef52403f0b70cbda6265b427dae2d27b3f0eaffbba98150edc06b9f",
    },
    3 * math.pi: {
        "CIRCLE": "16ebd61ac0129b246303d01b3896cda9cbea84e2248375e118c89c10d200727a",
        "COT": "cce0559214eb009a10021596769b767fefee633361741afd0a139e5f294eaf61",
        "SIN": "75d7e770bdad3e23173827aaaf21fa51e70ea84ef83ce7b698b4e9d477a333a8",
        "ABS_SIN": "74ec15a73858f7de03d4c59509428c4cafb301ec3f4d2ec7f7bd224e83b901a0",
        "NEG_SIN": "a851cfe6ec2c57d6b63572520951415b706377af8426cd014693dab31cd4119f",
        "CORRECT": "01fca0253fbd4dd82bde50f7420d9508d6fe9340452550d42123df31bd0fa110",
    },
}

# sqrt(z0^2 - z^2) at z = z0 i / 4, i = 0..4, from mpmath at 200 bits
CIRCLE_DEEP = {
    1e200: [1e200, 9.682458365518542e199, 8.660254037844386e199, 6.614378277661476e199, 0.0],
    1e308: [1e308, 9.682458365518542e307, 8.660254037844386e307, 6.614378277661477e307, 0.0],
}


class TestCurves:
    def test_circle_endpoints(self):
        pts = emit_curves(15.0, CurveKind.CIRCLE, samples=101)
        assert len(pts) == 101
        z0_at_origin = pts[0]
        assert z0_at_origin == (0.0, 15.0)
        z_last, v_last = pts[-1]
        assert z_last == 15.0
        assert v_last == 0.0

    def test_circle_curve_is_monotone_decreasing(self):
        pts = emit_curves(15.0, CurveKind.CIRCLE, samples=200)
        values = [v for _, v in pts]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cot_curve_skips_pole_neighborhoods(self):
        pts = emit_curves(15.0, CurveKind.COT, samples=2001)
        assert 0 < len(pts) < 2001
        for z, _ in pts:
            assert abs(math.sin(z)) >= 1e-6

    def test_cot_curve_at_cot_zero(self):
        # -z cot z crosses zero where cos does: of the grid 0, pi/2, pi the
        # cot curve keeps only the sample off its poles
        [(z, height)] = emit_curves(math.pi, CurveKind.COT, 3)
        assert z == math.pi / 2
        assert abs(height) < 1e-14

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
    def test_emit_curves_is_the_textbook_curve_sample_by_sample(self, kind, z0):
        # each sample is the curve's textbook expression, bit for bit; at
        # z0 = 3 pi the samples i = 333, 666 and 999 sit on the poles at pi,
        # 2 pi and 3 pi, so cot drops them and the 0/0 at z = 0
        height = {
            CurveKind.CIRCLE: lambda z: math.sqrt((z0 - z) * (z0 + z)),
            CurveKind.COT: lambda z: -z * (math.cos(z) / math.sin(z)),
            CurveKind.SIN: lambda z: z0 * math.sin(z),
            CurveKind.ABS_SIN: lambda z: z0 * abs(math.sin(z)),
            CurveKind.NEG_SIN: lambda z: z0 * -math.sin(z),
            CurveKind.CORRECT: lambda z: z0 * (-math.sin(z) * math.copysign(1.0, math.cos(z))),
        }[kind]
        want = []
        for i in range(1000):
            z = z0 * (i / 999)
            if kind is CurveKind.COT and abs(math.sin(z)) < 1e-6:
                continue
            want.append((z, height(z)))
        got = emit_curves(z0, kind)
        assert repr(got) == repr(want)
        if kind is CurveKind.COT and z0 == 3 * math.pi:
            assert len(got) == 996

    @pytest.mark.parametrize("z0", list(CURVE_DIGESTS))
    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_curve_bits_are_frozen(self, kind, z0):
        text = "\n".join(f"{z.hex()} {y.hex()}" for z, y in emit_curves(z0, kind))
        assert hashlib.sha256(text.encode()).hexdigest() == CURVE_DIGESTS[z0][kind.name]

    def test_the_curves_of_one_well_share_one_grid_in_any_order(self):
        # a cold grid read by the last kind first gives the frozen bits, and
        # each new well replaces the one grid kept
        semiwell.output._grid.cache_clear()
        for z0, digests in CURVE_DIGESTS.items():
            for kind in reversed(CurveKind):
                text = "\n".join(f"{z.hex()} {y.hex()}" for z, y in emit_curves(z0, kind))
                assert hashlib.sha256(text.encode()).hexdigest() == digests[kind.name]
            info = semiwell.output._grid.cache_info()
            assert info.currsize == 1 and info.hits == 5 * info.misses

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        z0=st.floats(min_value=-3.0, max_value=300.0).map(lambda e: 10.0**e),
        samples=st.integers(min_value=2, max_value=64),
        kinds=st.permutations(list(CurveKind)),
    )
    @example(z0=0.5, samples=64, kinds=list(CurveKind))
    @example(z0=2.0**500, samples=64, kinds=list(reversed(CurveKind)))
    @example(z0=math.nextafter(2.0**500, math.inf), samples=64, kinds=list(CurveKind))
    def test_every_curve_is_its_textbook_formula_in_any_order(self, z0, samples, kinds):
        # z0 drawn by its log over [1e-3, 1e300], the kinds asked in any order
        # of one well, so that any kind fills the kept picture first; the
        # heights compare by .hex(), so the signed zeros at z = 0 count too
        def height(kind, z):
            if kind is CurveKind.CIRCLE:
                # sqrt((z0 - z)(z0 + z)) with z0 and z scaled by one power of
                # two into [0.5, 1): no bit changes, and the product stays finite
                e = math.frexp(z0)[1]
                a, b = math.ldexp(z0, -e), math.ldexp(z, -e)
                return math.ldexp(math.sqrt((a - b) * (a + b)), e)
            return {
                CurveKind.COT: lambda: -z * (math.cos(z) / math.sin(z)),
                CurveKind.SIN: lambda: z0 * math.sin(z),
                CurveKind.ABS_SIN: lambda: z0 * abs(math.sin(z)),
                CurveKind.NEG_SIN: lambda: z0 * -math.sin(z),
                CurveKind.CORRECT: lambda: z0 * (-math.sin(z) * math.copysign(1.0, math.cos(z))),
            }[kind]()

        grid = [z0 * (i / (samples - 1)) for i in range(samples)]
        for kind in kinds:
            zs = [z for z in grid if kind is not CurveKind.COT or abs(math.sin(z)) >= 1e-6]
            want = [(z.hex(), height(kind, z).hex()) for z in zs]
            got = [(z.hex(), y.hex()) for z, y in emit_curves(z0, kind, samples)]
            assert got == want, kind

    @pytest.mark.parametrize("z0", [0.5, 15.0, 3 * math.pi, 2.0**501])
    def test_the_rewritten_curves_pick_points_of_two_kept_sets(self, z0):
        # every ABS_SIN and CORRECT point is the SIN or the NEG_SIN point at
        # its index, the very tuple: no rewritten curve builds a point of its own
        sin = emit_curves(z0, CurveKind.SIN, 64)
        neg = emit_curves(z0, CurveKind.NEG_SIN, 64)
        for kind in (CurveKind.ABS_SIN, CurveKind.CORRECT):
            for i, point in enumerate(emit_curves(z0, kind, 64)):
                assert point is sin[i] or point is neg[i], (kind, i)
        assert all(a is b for a, b in zip(emit_curves(z0, CurveKind.SIN, 64), sin))
        assert all(a is b for a, b in zip(emit_curves(z0, CurveKind.NEG_SIN, 64), neg))

    def test_a_returned_curve_shares_no_mutable_state(self):
        first = emit_curves(15.0, CurveKind.SIN, samples=11)
        first[0] = (1.0, 2.0)
        assert emit_curves(15.0, CurveKind.SIN, samples=11)[0] == (0.0, 0.0)

    @pytest.mark.parametrize("z0, heights", CIRCLE_DEEP.items())
    def test_circle_stays_finite_in_the_deepest_wells(self, z0, heights):
        # (z0 - z)(z0 + z) overflows above z0 of about 1.34e154, and z0 + z
        # itself above 9e307
        got = emit_curves(z0, CurveKind.CIRCLE, samples=5)
        assert [z for z, _ in got] == [z0 * (i / 4) for i in range(5)]
        for (_, y), want in zip(got, heights):
            assert abs(y - want) <= 2.0 * math.ulp(want)
        z = z0 / 2
        assert residual_exact(z, z0) == got[2][1] + z * cot(z)

    def test_cot_curve_overflow_is_a_domain_error(self):
        # |z cot z| reaches z0 / 1e-6 on the kept samples, past float64 for
        # z0 above about 1.8e302
        with pytest.raises(DomainError, match="overflows float64"):
            emit_curves(1e308, CurveKind.COT)
        assert all(math.isfinite(y) for _, y in emit_curves(1.7e302, CurveKind.COT))
        assert all(math.isfinite(y) for _, y in emit_curves(1e305, CurveKind.COT))

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
