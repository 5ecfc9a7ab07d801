"""Show that the benchmark's checks accept right answers and reject wrong ones.

    python3 bench/selftest.py

Takes real semiwell output on small wells, confirms the checks pass it,
then damages it the ways a faulty program would (a perturbed z_tilde, a
dropped state, a missing variant crossing, and a few more) and confirms
each damaged answer is rejected.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import semiwell as sw  # noqa: E402

import oracle as O  # noqa: E402
import workloads as W  # noqa: E402


def spectrum_output(z0: float) -> dict:
    states = sw.solve_all(z0)
    rows = []
    for s in states:
        spec = sw.build_wavefunction(s, z0)
        rows.append([s.m, s.z, s.z_tilde, s.energy_ratio, spec.amplitude, sw.probability_inside(spec)])
    return {"n": sw.count_bound_states(z0), "states": rows}


def crossings_output(kind: str, z0: float) -> list:
    report = sw.enumerate_intersections(sw.VariantKind(kind), z0)
    return [[i.z, i.spurious] for i in report.intersections]


def main() -> int:
    results = []

    def expect(label: str, problems: list[tuple[str, str]], accept: bool) -> None:
        ok = (not problems) == accept
        results.append(ok)
        verdict = "accepted" if not problems else f"rejected ({problems[0][1]})"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")

    z0 = 15.0
    ref = O.spectrum_ref(z0)
    good = spectrum_output(z0)
    expect("solve_all at z0=15 as computed", O.check_states(ref, good["n"], good["states"]), True)

    st = ref.states[2]
    for factor, accept in ((0.5, True), (4.0, False)):
        bad = copy.deepcopy(good)
        bad["states"][2][2] = st.zt + factor * st.tol_zt
        expect(f"z_tilde of state 3 off by {factor} x its tolerance", O.check_states(ref, bad["n"], bad["states"]), accept)

    bad = copy.deepcopy(good)
    bad["states"][1][2] *= 1.0 + 1e-9
    expect("z_tilde of state 2 off by 1e-9 relative", O.check_states(ref, bad["n"], bad["states"]), False)

    bad = copy.deepcopy(good)
    del bad["states"][-1]
    bad["n"] -= 1
    expect("top state dropped, count lowered to match", O.check_states(ref, bad["n"], bad["states"]), False)

    bad = copy.deepcopy(good)
    bad["states"][0][5] += 10.0 * ref.states[0].tol_p
    expect("P_inside of the ground state off by 10 x its tolerance", O.check_states(ref, bad["n"], bad["states"]), False)

    near = 3 * 3.141592653589793 / 2 + 1e-9
    ref = O.spectrum_ref(near)
    out = spectrum_output(near)
    expect("z0 = 3 pi/2 + 1e-9 as computed (known fault)", O.check_states(ref, out["n"], out["states"]), False)
    op = W.Op({"z0": near}, ref, W.z_tilde_fault(ref))
    expect("  ... failing only where the known fault shows", W.unexpected(op, O.check_states(ref, out["n"], out["states"])), True)
    bad = copy.deepcopy(out)
    bad["states"][0][1] *= 1.0 + 1e-9
    expect("  ... and a ground-state z off by 1e-9 relative", W.unexpected(op, O.check_states(ref, bad["n"], bad["states"])), False)

    z0 = 25.0
    for kind in O.VARIANT_KINDS:
        refs = O.crossings_ref(kind, z0)
        got = crossings_output(kind, z0)
        expect(f"{kind} crossings at z0=25 as computed", O.check_crossings(kind, z0, refs, got), True)
    refs = O.crossings_ref("sin", z0)
    got = crossings_output("sin", z0)
    expect("sin crossing 2 missing", O.check_crossings("sin", z0, refs, got[:1] + got[2:]), False)
    flipped = copy.deepcopy(got)
    flipped[0][1] = not flipped[0][1]
    expect("sin crossing 1 with its spurious flag flipped", O.check_crossings("sin", z0, refs, flipped), False)

    tangent = W.sin_tangency(1) + W.TANGENCY_DELTA
    refs = O.crossings_ref("sin", tangent)
    got = crossings_output("sin", tangent)
    expect("sin crossings just above the z0=7.79 tangency (known fault)", O.check_crossings("sin", tangent, refs, got), False)
    op = W.Op({"z0": tangent}, None, W.SCAN_FAULT)
    expect("  ... failing only where the known fault shows", W.unexpected(op, O.check_crossings("sin", tangent, refs, got)), True)
    refs = O.crossings_ref("neg-sin", tangent)
    got = crossings_output("neg-sin", tangent)
    expect("  ... and a neg-sin crossing missing there", W.unexpected(op, O.check_crossings("neg-sin", tangent, refs, got[1:])), False)

    z0 = 15.0
    keep, _ = O.curve_grid_ref("cot", z0, W.CURVE_SAMPLES)
    points = [list(p) for p in sw.emit_curves(z0, sw.CurveKind.COT)]
    expect("cot curve at z0=15 as computed", O.check_curve("cot", z0, W.CURVE_SAMPLES, keep, points), True)
    points[100][1] *= 1.0 + 1e-12
    expect("cot curve point 100 off by 1e-12 relative", O.check_curve("cot", z0, W.CURVE_SAMPLES, keep, points), False)

    print(f"{sum(results)} of {len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
