"""End-to-end CLI behavior: schemas, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semiwell
import semiwell.cli
import semiwell.solver
from semiwell import format_float
from semiwell.cli import run

ROOTS_15_TABLE = [2.94404, 5.88035, 8.79801, 11.67442, 14.41691]


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_document(capsys):
    code, out, err = invoke(capsys, "solve", "--z0", "15")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "command", "inputs", "results", "diagnostics"]
    assert doc["schema_version"] == "1"
    assert doc["command"] == "solve"
    assert doc["inputs"]["z0"] == 15.0
    assert doc["results"]["count"] == 5
    roots = doc["results"]["roots"]
    assert [r["m"] for r in roots] == [1, 2, 3, 4, 5]
    for row, want in zip(roots, ROOTS_15_TABLE):
        assert row["z"] == pytest.approx(want, abs=1e-5)
        assert abs(row["residual"]) < 1e-9
        assert row["newton_iters"] >= 1
    assert doc["diagnostics"]["fallback_bisections_total"] == 0


def test_solve_csv_matches_json_digit_for_digit(capsys):
    code, json_out, _ = invoke(capsys, "solve", "--z0", "25")
    assert code == 0
    code, csv_out, _ = invoke(capsys, "solve", "--z0", "25", "--format", "csv")
    assert code == 0
    doc = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["m", "z", "z_tilde", "energy_ratio", "residual", "newton_iters"]
    assert len(rows) == 1 + doc["results"]["count"]
    for row, root in zip(rows[1:], doc["results"]["roots"]):
        assert row[0] == str(root["m"])
        assert row[1] == format_float(root["z"])
        assert row[2] == format_float(root["z_tilde"])
        assert row[3] == format_float(root["energy_ratio"])


def test_count_command(capsys):
    code, out, _ = invoke(capsys, "count", "--z0", "25")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 8


def test_count_of_stateless_well_is_success(capsys):
    # an empty spectrum is an answer, not an error
    code, out, _ = invoke(capsys, "count", "--z0", "1.0")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 0


def test_solve_of_stateless_well_returns_empty_list(capsys):
    code, out, _ = invoke(capsys, "solve", "--z0", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 0
    assert doc["results"]["roots"] == []


def test_solve_one_float_above_the_first_edge_returns_empty_list(capsys):
    # no float lies strictly between pi/2 and this z0, so no state fits
    code, out, _ = invoke(capsys, "solve", "--z0", "1.5707963267948968")
    assert code == 0
    assert json.loads(out)["results"] == {"count": 0, "roots": []}


def test_count_answers_at_any_depth(capsys):
    code, out, _ = invoke(capsys, "count", "--z0", "1e308")
    assert code == 0
    count = json.loads(out)["results"]["count"]
    assert isinstance(count, int) and count > 10**307


def test_exact_command(capsys):
    code, out, _ = invoke(capsys, "exact", "--n", "0")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["energy_over_v0"] == 0.5
    assert res["p_inside"] == pytest.approx(0.851, abs=5e-4)
    assert res["z0"] == pytest.approx(math.sqrt(2) * res["z"], rel=1e-15)


def test_exact_rejects_negative_index(capsys):
    code, out, err = invoke(capsys, "exact", "--n", "-1")
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("n", [6 * 10**152, 10**160])
def test_exact_refuses_an_index_whose_depth_overflows(capsys, n):
    # V0 of the member was inf, or (8n + 3)^2 had no float: a traceback
    code, out, err = invoke(capsys, "exact", "--n", str(n))
    assert code == 1 and out == ""
    assert err.startswith("error: family index") and "Traceback" not in err


def test_variants_command(capsys):
    code, out, _ = invoke(capsys, "variants", "--kind", "sin", "--z0", "25")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["n_total"] == 7
    assert res["n_spurious"] == 3
    spurious = [i["position"] for i in res["intersections"] if i["spurious"]]
    assert spurious == [2, 4, 6]


def test_variants_csv(capsys):
    code, out, _ = invoke(capsys, "variants", "--kind", "neg-sin", "--z0", "15", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["position", "z", "spurious"]
    assert [r[2] for r in rows[1:]] == ["true", "false", "true", "false"]


@pytest.mark.parametrize("z0", ["25", "1.6", repr(3 * math.pi / 2 + 1e-9)])
def test_variants_correct_prints_the_solved_roots(capsys, z0):
    # the correct form's crossings are the spectrum's roots, digit for digit
    code, solved, _ = invoke(capsys, "solve", "--z0", z0, "--format", "csv")
    assert code == 0
    code, crossed, _ = invoke(capsys, "variants", "--kind", "correct", "--z0", z0, "--format", "csv")
    assert code == 0
    roots = [row[1] for row in csv.reader(io.StringIO(solved))]
    crossings = [row[1] for row in csv.reader(io.StringIO(crossed))]
    assert roots[0] == crossings[0] == "z"
    assert len(roots) > 1
    assert crossings == roots


def test_wavefn_command(capsys):
    code, out, _ = invoke(capsys, "wavefn", "--z0", "15", "--state", "2", "--samples", "200")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["m"] == 2
    assert len(res["points"]) == 200
    assert res["points"][0] == {"x": 0.0, "psi": 0.0}
    assert 0.0 < res["probability_inside"] < 1.0
    # grid reaches past the well into the evanescent tail
    assert res["points"][-1]["x"] > res["a"]


def test_wavefn_of_an_extremely_deep_well(capsys):
    # E/V0 underflows to 0.0 above z0 of about 1.6e162; the state stands
    code, out, err = invoke(capsys, "wavefn", "--z0", "1e300", "--state", "1", "--samples", "2")
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["z"] == math.pi
    assert results["energy_ratio"] == 0.0
    assert results["k_tilde"] == 1e300


def test_wavefn_of_a_low_state_of_a_very_deep_well(capsys):
    # the root is the float nearest 11 pi, one ulp above 11 * math.pi
    code, out, err = invoke(capsys, "wavefn", "--z0", "1e17", "--state", "11", "--samples", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["z"] == 34.55751918948773


def test_wavefn_refuses_a_band_past_float64_resolution(capsys):
    # the top band of z0 = 1e17 is past band 2^52, whose 2m - 1 has no float
    code, out, err = invoke(capsys, "wavefn", "--z0", "1e17", "--state", "31830988618379068")
    assert code == 1 and out == ""
    assert "float64's band resolution" in err
    assert "holds no root" not in err


def test_wavefn_rejects_state_beyond_count(capsys):
    code, out, err = invoke(capsys, "wavefn", "--z0", "15", "--state", "6")
    assert code == 1
    assert "5 bound state" in err


def test_curves_command(capsys):
    code, out, _ = invoke(capsys, "curves", "--kind", "circle", "--z0", "15", "--samples", "5")
    assert code == 0
    pts = json.loads(out)["results"]["points"]
    assert len(pts) == 5
    assert pts[0] == {"z": 0.0, "value": 15.0}
    assert pts[-1] == {"z": 15.0, "value": 0.0}


def test_whole_floats_keep_their_decimal_point(capsys):
    code, out, _ = invoke(capsys, "curves", "--z0", "2", "--kind", "sin", "--samples", "3")
    assert code == 0
    assert '"inputs": {"z0": 2.0, ' in out
    assert '"points": [{"z": 0.0, "value": 0.0}, ' in out


def test_curves_cot_drops_pole_points(capsys):
    code, out, _ = invoke(capsys, "curves", "--kind", "cot", "--z0", "15", "--samples", "1001")
    assert code == 0
    pts = json.loads(out)["results"]["points"]
    assert len(pts) < 1001
    assert all(abs(math.sin(p["z"])) >= 1e-6 for p in pts)


def test_curves_of_the_deepest_wells(capsys):
    # the circle's (z0 - z)(z0 + z) would overflow to inf, which has no
    # serialized form; the cot curve's height passes float64 itself
    code, out, err = invoke(capsys, "curves", "--kind", "circle", "--z0", "1e200", "--samples", "3")
    assert code == 0 and err == ""
    pts = json.loads(out)["results"]["points"]
    assert [p["value"] for p in pts] == [1e200, 8.660254037844386e199, 0.0]
    code, out, err = invoke(capsys, "curves", "--kind", "cot", "--z0", "1e308")
    assert code == 1 and out == ""
    assert err.startswith("error: the cot curve") and "overflows float64" in err


def test_physical_units_ev_nm(capsys):
    code, out, _ = invoke(
        capsys, "solve",
        "--mass", "1", "--width", "1", "--depth", "1", "--units", "ev-nm",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["z0"] == pytest.approx(5.1231672228139935, rel=1e-12)
    assert doc["results"]["count"] == 2


def test_physical_units_si_natural_triple(capsys):
    # SI interpretation of a hand-built natural system is nonsense; the
    # tool should refuse the resulting astronomically deep spectrum
    code, out, err = invoke(capsys, "solve", "--mass", "0.5", "--width", "1", "--depth", "225")
    assert code == 1
    assert "count" in err
    # counting the same well is fine
    code, out, _ = invoke(capsys, "count", "--mass", "0.5", "--width", "1", "--depth", "225")
    assert code == 0


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "solve")[0] == 2  # no well at all
    assert invoke(capsys, "solve", "--z0", "15", "--mass", "1")[0] == 2
    assert invoke(capsys, "solve", "--z0", "15", "--units", "si")[0] == 2
    assert invoke(capsys, "solve", "--mass", "1", "--width", "1")[0] == 2  # missing depth
    assert invoke(capsys, "bogus")[0] == 2
    assert invoke(capsys, "variants", "--z0", "5", "--kind", "nope")[0] == 2
    assert invoke(capsys, "solve", "--z0", "abc")[0] == 2
    assert invoke(capsys)[0] == 2


def test_domain_errors_exit_1(capsys):
    assert invoke(capsys, "solve", "--z0", "-3")[0] == 1
    assert invoke(capsys, "solve", "--z0", "0")[0] == 1
    assert invoke(capsys, "count", "--mass", "-1", "--width", "1", "--depth", "1")[0] == 1
    assert invoke(capsys, "wavefn", "--z0", "15", "--state", "0")[0] == 1
    assert invoke(capsys, "wavefn", "--z0", "15", "--state", "1", "--samples", "1")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--z0", "1e6"),
        ("variants", "--kind", "abs-sin", "--z0", "1e9"),
        ("solve", "--z0", "1e308"),
        ("variants", "--kind", "sin", "--z0", "1e308"),
    ],
)
def test_deep_enumeration_is_refused_before_it_starts(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "above the enumeration cap (100000)" in err


def test_underflowing_physical_well_exits_1(capsys):
    # the strength's 2 m V0 underflows: the error names that, not a z0 of 0.0
    argv = "solve --mass 1 --width 1 --depth 1e-300 --units ev-nm".split()
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: well parameters underflow the strength z0; check units\n"


def modules_loaded_by_import() -> list[str]:
    """Modules that `import semiwell` adds to sys.modules in a fresh process.

    The probe runs under -S, so that no module imported by site (or by a .pth
    file it runs) is already loaded and hidden from the difference.
    """
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import semiwell\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(semiwell.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


def test_import_loads_only_the_standard_library():
    top_level = {name.partition(".")[0] for name in modules_loaded_by_import()}
    assert top_level - set(sys.stdlib_module_names) == {"semiwell"}


def test_import_loads_no_dataclasses_inspect_or_csv():
    # each would cost milliseconds on every cold call; typing (which brings re)
    # is needed by no annotation, as none is evaluated
    loaded = modules_loaded_by_import()
    assert "semiwell" in loaded
    assert {"dataclasses", "inspect", "csv", "typing", "re"}.isdisjoint(loaded)


def test_output_goes_to_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = invoke(capsys, "count", "--z0", "15", "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["count"] == 5


def test_output_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "doc.csv"
    invoke(capsys, "solve", "--z0", "15", "--format", "csv", "--output", str(target))
    _, stdout_payload, _ = invoke(capsys, "solve", "--z0", "15", "--format", "csv")
    assert target.read_text() == stdout_payload


def test_unwritable_output_exits_1(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "count", "--z0", "15", "--output", str(tmp_path / "no" / "dir" / "x.json")
    )
    assert code == 1
    assert "cannot write" in err


def test_byte_identical_repeat_runs(capsys):
    _, first, _ = invoke(capsys, "solve", "--z0", "25")
    _, second, _ = invoke(capsys, "solve", "--z0", "25")
    assert first == second
    _, third, _ = invoke(capsys, "curves", "--kind", "correct", "--z0", "9", "--samples", "333")
    _, fourth, _ = invoke(capsys, "curves", "--kind", "correct", "--z0", "9", "--samples", "333")
    assert third == fourth


def test_loose_tolerance_still_solves(capsys):
    code, out, _ = invoke(capsys, "solve", "--z0", "15", "--tol", "1e-6")
    assert code == 0
    roots = json.loads(out)["results"]["roots"]
    for row, want in zip(roots, ROOTS_15_TABLE):
        assert row["z"] == pytest.approx(want, abs=1e-4)
    # so loose that Newton stops past z0 in band 2 of 5.0: refused
    code, out, err = invoke(capsys, "solve", "--z0", "5", "--tol", "10")
    assert code == 1 and out == ""
    assert "root_tol=10.0 is too loose" in err


def test_an_iteration_cap_too_low_is_refused(capsys):
    # the first band needs more than one Newton step from its midpoint
    code, out, err = invoke(capsys, "solve", "--z0", "15", "--max-iter", "1")
    assert code == 1 and out == ""
    assert err == "error: no convergence after 1 iterations for m=1, z0=15.0\n"


# SHA-256 of the stdout of fixed invocations: a change meant to keep the
# output (a speed-up, a refactor) and that moves any byte of it fails here
GOLDEN_STDOUT = {
    "count --z0 15": "a1e958da1529bdcb2ec16c27b44b0b6c66584e7a7dbb3304233aef832d23b0a7",
    "solve --z0 25": "1a96befe140eec0f69d659616303c81beadfe2aa0a71f7ea494339ed5ddea49b",
    "solve --z0 25 --format csv": "f63f9db52d6318679d146951914edb7f735cd3701f071abe3cc45b83be8e67a0",
    "wavefn --z0 15 --state 2 --samples 500": "a9a245c6185a2dd61bf32ba30d64b35c17fe9ad6308ac477921e50939871cf05",
    "variants --kind sin --z0 25": "9fdb1099ad47ce3f271f22b50c0d3ec4ff7b1f4fadbac4366e4daddba4e5621c",
    "variants --kind abs-sin --z0 25": "9b20d31d5563d26223eb6f37f52642e90979eb38f0d9abfbc557ea5d822ec62c",
    "variants --kind neg-sin --z0 25": "536ae3d949a9bfbfacba589b40ebcfd065fbb3e09e5592027f94259a83be243d",
    "variants --kind correct --z0 25": "03adb7f73c99ca0b8764a70e50d7b06274117cc543c719b4f19a7a5208d8560c",
    "curves --kind circle --z0 15": "1dd96ecb19a69b9c6bb7c9d2bc664417e86283bfece615524571f0e3d460c99f",
    "curves --kind cot --z0 15": "50f49fb36d77677009284d677c38ed0c0ec9ec4f50241da681079b82a86f154d",
    "curves --kind sin --z0 15": "9cf8492652df9fe522c1717136ff9e54de2f6c4b87854fec8cdcc3906197c3ef",
    "curves --kind abs-sin --z0 15": "12c317db175c6e6517e3f8df650d700a5f974a6cf86c1cb6e957dbdd7156067e",
    "curves --kind neg-sin --z0 15": "fcf0cda2370dbac3dc739a7fc6f1570259a8f4c52311ea8a4d5c9a9e2e131d19",
    "curves --kind correct --z0 15": "ab22f54093da130c5c2a218672b7e93a90bb49ea2ae2a664074de7fab6c9640d",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_stdout_matches_golden_digest(capsys, command):
    code, out, err = invoke(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[command]


def test_solve_counts_the_states_once(capsys, monkeypatch):
    calls = []
    count = semiwell.solver.count_bound_states

    def counting(z0):
        calls.append(z0)
        return count(z0)

    monkeypatch.setattr(semiwell.cli, "count_bound_states", counting)
    monkeypatch.setattr(semiwell.solver, "count_bound_states", counting)
    code, out, _ = invoke(capsys, "solve", "--z0", "25")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 8
    assert len(calls) == 1


@pytest.mark.parametrize("z0", ["25", "1e3"])
def test_solve_rows_are_the_library_states_and_steps(capsys, z0):
    # each row is newton_solve's state and step count for its band, and
    # solve_all, which solves the bands without a trace, must agree with it
    code, out, _ = invoke(capsys, "solve", "--z0", z0)
    assert code == 0
    roots = json.loads(out)["results"]["roots"]
    states = semiwell.solve_all(float(z0))
    assert len(roots) == len(states)
    for row, state in zip(roots, states):
        assert [row[k] for k in state._fields] == list(state)
        trace = semiwell.newton_solve(state.m, float(z0))[1]
        assert row["newton_iters"] == len(trace.iterates) - 1


def test_solve_reads_the_spectrum_not_newton_solve(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("semiwell solve called newton_solve")

    monkeypatch.setattr(semiwell.cli, "newton_solve", refuse)
    monkeypatch.setattr(semiwell.solver, "newton_solve", refuse)
    code, out, err = invoke(capsys, "solve", "--z0", "25")
    assert code == 0 and err == ""
    spectrum = semiwell.solve_spectrum(25.0)
    roots = json.loads(out)["results"]["roots"]
    assert [row["newton_iters"] for row in roots] == spectrum.newton_iters


def test_the_enumeration_cap_counts_only_a_well_that_can_pass_it(capsys, monkeypatch):
    # with a cap of 5, band 6 opens at 11 pi / 2: the float nearest it is a
    # threshold, holds 5 states and is solved; the float above holds 6 and
    # is refused
    monkeypatch.setattr(semiwell.cli, "_MAX_ENUMERATED_STATES", 5)
    at = 17.278759594743864
    above = math.nextafter(at, math.inf)
    assert semiwell.count_bound_states(at) == 5
    assert semiwell.count_bound_states(above) == 6
    for command in ("solve", "variants --kind sin"):
        code, out, _ = invoke(capsys, *command.split(), "--z0", repr(at))
        assert code == 0 and out
        code, out, err = invoke(capsys, *command.split(), "--z0", repr(above))
        assert code == 1 and out == ""
        assert err == (
            "error: well holds 6 states, above the enumeration cap (5); "
            "use the count command\n"
        )
    # a well no deeper than cap pi is never counted, since it cannot pass
    counted = []
    count = semiwell.cli.count_bound_states
    monkeypatch.setattr(
        semiwell.cli, "count_bound_states", lambda z0: counted.append(z0) or count(z0)
    )
    assert invoke(capsys, "solve", "--z0", repr(5 * math.pi))[0] == 0
    assert counted == []
