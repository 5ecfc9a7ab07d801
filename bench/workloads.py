"""Seeded inputs for the four workloads, with their reference answers.

Every workload is a round of operations that a run repeats whole, so the
share of failed operations is the same in every run.  The seed draws the
wells; the inputs that expose a known fault are fixed and do not depend on
it.  Seeded wells are stratified (one well per equal slice of log z0) so
that every seed gives a round of the same make-up, and are redrawn inside
their slice when the reference shows they sit where a known fault could
show on some seeds only (near a tangency threshold, or with two crossings
closer than the variant scan's probe spacing).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from mpmath import mp, mpf

import oracle as O

# workload parameters (see README.md)
DEEP_WELLS = 8
DEEP_RANGE = (1e4 / math.sqrt(2.0), 1e4 * math.sqrt(2.0))
SHALLOW_WELLS = 40
SHALLOW_RANGE = (math.pi / 2, 50.0)
CLOSED_FORM_N = range(6)
THRESHOLD_K = (3, 5, 7, 21)
THRESHOLD_DELTA = (1e-9, 1e-7)
GRAPHICAL_WELLS = 10
GRAPHICAL_RANGE = (150.0, 300.0)
SIN_TANGENCY_I = (28, 40)  # tangencies tan z = z in (2 i pi, 2 i pi + pi/2)
TANGENCY_DELTA = 1e-4
CURVE_SAMPLES = 1000  # emit_curves default
PSI_GRID = tuple(0.125 * j for j in range(25))  # x / a over [0, 3]
CLI_RANGE = (2.0, 50.0)

# seeded wells keep every state this far from the z_tilde -> 0 threshold
MIN_Z_TILDE = 0.1
# seeded wells keep crossings this many probe spacings apart, and this far
# from a cell edge
MIN_GAP_PROBES = 2.0
MIN_EDGE = 1e-6


def z_tilde_fault(ref: O.SpectrumRef) -> frozenset[str]:
    """z_tilde = sqrt((z0 - z)(z0 + z)) cancels just above a threshold: the
    top state's z_tilde is wrong, and so is everything computed from it."""
    m = ref.states[-1].m
    return frozenset(f"m={m} {label}" for label in ("z_tilde", "amplitude", "P_inside", "psi"))


# the 64-probe variant scan misses two crossings closer than its spacing;
# NEG_SIN and CORRECT have none so close, and the missed SIN and ABS_SIN
# crossings are spurious, so that filtered_equivalence is still right
SCAN_FAULT = frozenset({"sin count", "abs-sin count"})


@dataclass
class Op:
    args: object  # what the program is given: a dict, or a CLI argv
    ref: object  # reference answers
    fault: frozenset[str] = frozenset()  # checks at which a known fault shows on this input
    extra: dict = field(default_factory=dict)


def _strata(rng: random.Random, count: int, lo: float, hi: float):
    """For each of count equal slices of [log lo, log hi], a draw function."""
    span = math.log(hi / lo)

    def draw(i: int) -> float:
        return lo * math.exp(span * (i + rng.random()) / count)

    return draw


def _steady_spectrum(z0: float) -> O.SpectrumRef | None:
    ref = O.spectrum_ref(z0)
    if ref.n == 0 or min(st.zt for st in ref.states) < MIN_Z_TILDE:
        return None
    return ref


def _probe_step(kind: str) -> float:
    cell = math.pi if kind in ("sin", "neg-sin") else math.pi / 2
    return cell / 64


def _steady_crossings(kind: str, z0: float):
    refs = O.crossings_ref(kind, z0)
    for c in refs:
        if c.gap < MIN_GAP_PROBES * _probe_step(kind) or c.edge < MIN_EDGE:
            return None
    return refs


def _draw(draw, i: int, make):
    for _ in range(200):
        z0 = draw(i)
        ref = make(z0)
        if ref is not None:
            return z0, ref
    raise RuntimeError("no admissible well in this slice")


def _stratified(rng: random.Random, count: int, lo: float, hi: float, make) -> list:
    """(z0, reference) for one admissible well in each slice."""
    draw = _strata(rng, count, lo, hi)
    return [_draw(draw, i, make) for i in range(count)]


# ------------------------------------------------------------ in-process


def deep_spectrum(seed: int) -> list[Op]:
    rng = random.Random(f"deep-spectrum:{seed}")
    wells = _stratified(rng, DEEP_WELLS, *DEEP_RANGE, _steady_spectrum)
    return [Op({"z0": z0}, (ref, None)) for z0, ref in wells]


def _with_psi(ref: O.SpectrumRef) -> tuple[O.SpectrumRef, list]:
    """The spectrum with psi and its tolerance on PSI_GRID for every state."""
    return ref, [[O.psi_ref(st, x) for x in PSI_GRID] for st in ref.states]


def shallow_wells(seed: int) -> list[Op]:
    rng = random.Random(f"shallow-wells:{seed}")
    wells = _stratified(rng, SHALLOW_WELLS, *SHALLOW_RANGE, _steady_spectrum)
    ops = [Op({"z0": z0, "n": None}, _with_psi(ref)) for z0, ref in wells]
    for n in CLOSED_FORM_N:
        z0 = math.sqrt(2.0) * (8 * n + 3) * math.pi / 4.0
        ref = O.closed_form_spectrum(n, z0)
        ops.append(Op({"z0": z0, "n": n}, _with_psi(ref)))
    for k in THRESHOLD_K:
        for delta in THRESHOLD_DELTA:
            z0 = k * math.pi / 2.0 + delta
            ref = O.spectrum_ref(z0)
            ops.append(Op({"z0": z0, "n": None}, _with_psi(ref), z_tilde_fault(ref)))
    return ops


def sin_tangency(i: int) -> float:
    """Depth z0* = sqrt(1 + z*^2) at which y = z0 sin z touches y = z, where
    tan z* = z* in (2 i pi, 2 i pi + pi/2)."""
    z = 2 * i * mp.pi + mp.pi / 2
    for _ in range(100):
        # Newton on z cos z - sin z, whose root is tan z = z
        c, s = mp.cos_sin(z)
        step = (z * c - s) / (-z * s)
        z -= step
        if abs(step) < mpf(2) ** -100:
            break
    return float(mp.sqrt(1 + z * z))


def _graphical_ref(z0: float, steady: bool):
    kinds = {}
    spectrum = O.spectrum_ref(z0)
    for kind in O.VARIANT_KINDS:
        refs = _steady_crossings(kind, z0) if steady else O.crossings_ref(kind, z0)
        if refs is None:
            return None
        kinds[kind] = (refs, O.equivalence_ref(refs, spectrum))
    curves = {}
    for kind in O.CURVE_KINDS:
        keep, ambiguous = O.curve_grid_ref(kind, z0, CURVE_SAMPLES)
        if ambiguous:
            return None
        curves[kind] = keep
    return kinds, curves


def graphical(seed: int) -> list[Op]:
    rng = random.Random(f"graphical:{seed}")
    wells = _stratified(rng, GRAPHICAL_WELLS, *GRAPHICAL_RANGE, lambda z0: _graphical_ref(z0, True))
    ops = [Op({"z0": z0}, ref) for z0, ref in wells]
    for i in SIN_TANGENCY_I:
        z0 = sin_tangency(i) + TANGENCY_DELTA
        ops.append(Op({"z0": z0}, _graphical_ref(z0, False), SCAN_FAULT))
    return ops


def unexpected(op: Op, problems: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The problems that are not where the op's known fault shows."""
    return [p for p in problems if p[0] not in op.fault]


def check_spectrum_op(op: Op, out: dict) -> list[tuple[str, str]]:
    ref, psi = op.ref
    bad = O.check_states(ref, out["n"], out["states"])
    if psi is None or any(where == "count" for where, _ in bad):
        return bad
    for st, row, want in zip(ref.states, out["psi"], psi):
        for x, got, (value, tol) in zip(PSI_GRID, row, want):
            if not abs(got - value) <= tol:
                bad.append(
                    (f"m={st.m} psi", f"z0={ref.z0!r} m={st.m}: psi({x})={got!r}, expected {value!r} +- {tol:.3g}")
                )
                break
    if op.args.get("n") is not None and out["xval"] is not True:
        bad.append(("cross_validate", f"cross_validate({op.args['n']}) returned {out['xval']!r}"))
    return bad


def check_graphical_op(op: Op, out: dict) -> list[tuple[str, str]]:
    z0 = op.args["z0"]
    kinds, curves = op.ref
    bad = []
    for kind, (refs, equiv) in kinds.items():
        got = out["kinds"][kind]
        bad += O.check_crossings(kind, z0, refs, got["crossings"])
        if got["equiv"] is not equiv:
            bad.append((f"{kind} equivalence", f"z0={z0!r} {kind}: filtered_equivalence {got['equiv']}, expected {equiv}"))
    for kind, keep in curves.items():
        bad += O.check_curve(kind, z0, CURVE_SAMPLES, keep, out["curves"][kind])
    return bad


# -------------------------------------------------------------- cli-cold


def cli_cold(seed: int) -> list[Op]:
    """One fresh process per subcommand, plus a solve in ev-nm units."""
    rng = random.Random(f"cli-cold:{seed}")
    lo, hi = CLI_RANGE
    draw = _strata(rng, 1, lo, hi)
    ops = []

    z0, ref = _draw(draw, 0, _steady_spectrum)
    ops.append(Op(["count", "--z0", repr(z0)], ref, extra={"z0": z0}))

    z0, ref = _draw(draw, 0, _steady_spectrum)
    ops.append(Op(["solve", "--z0", repr(z0)], ref, extra={"z0": z0}))

    n = rng.randrange(len(CLOSED_FORM_N))
    ops.append(Op(["exact", "--n", str(n)], O.closed_form(n), extra={"n": n}))

    z0, ref = _draw(draw, 0, _steady_spectrum)
    m = rng.randint(1, ref.n)
    ops.append(
        Op(
            ["wavefn", "--z0", repr(z0), "--state", str(m)],
            ref.states[m - 1],
            extra={"z0": z0, "state": m},
        )
    )

    kind = rng.choice(O.VARIANT_KINDS)
    z0, refs = _draw(draw, 0, lambda z: _steady_crossings(kind, z))
    ops.append(
        Op(["variants", "--z0", repr(z0), "--kind", kind], refs, extra={"z0": z0, "kind": kind})
    )

    kind = rng.choice(O.CURVE_KINDS)

    def curve(z):
        keep, ambiguous = O.curve_grid_ref(kind, z, CURVE_SAMPLES)
        return None if ambiguous else keep

    z0, keep = _draw(draw, 0, curve)
    ops.append(
        Op(["curves", "--z0", repr(z0), "--kind", kind], keep, extra={"z0": z0, "kind": kind})
    )

    for _ in range(200):
        width = 0.5 + 1.5 * rng.random()
        depth = 1.0 + 19.0 * rng.random()
        z0_exact = O.z0_from_ev_nm(1.0, width, depth)
        ref = _steady_spectrum(float(z0_exact))
        if ref is not None:
            break
    argv = ["solve", "--mass", "1.0", "--width", repr(width), "--depth", repr(depth), "--units", "ev-nm"]
    ops.append(
        Op(argv, ref, extra={"mass": 1.0, "width": width, "depth": depth, "z0_exact": z0_exact})
    )
    return ops


def _check_solve(op: Op, doc: dict) -> list[str]:
    ref: O.SpectrumRef = op.ref
    bad = []
    inputs = doc["inputs"]
    if "z0_exact" in op.extra:
        want = {k: op.extra[k] for k in ("mass", "width", "depth")}
        want["units"] = "ev-nm"
        got = {k: inputs.get(k) for k in want}
        if got != want:
            bad.append(f"solve echoed {got}, expected {want}")
        z0 = float(op.extra["z0_exact"])
        if not O.close(inputs.get("z0"), z0, 8.0 * O.U * z0):
            bad.append(f"ev-nm z0={inputs.get('z0')!r}, expected {z0!r}")
    elif inputs.get("z0") != op.extra["z0"]:
        bad.append(f"solve echoed z0={inputs.get('z0')!r}")
    if inputs.get("tol") != O.ROOT_TOL or inputs.get("max_iter") != O.MAX_ITER:
        bad.append(f"solve echoed tol/max_iter {inputs.get('tol')!r}/{inputs.get('max_iter')!r}")
    results = doc["results"]
    roots = results["roots"]
    rows = [[r["m"], r["z"], r["z_tilde"], r["energy_ratio"]] for r in roots]
    if results["count"] != ref.n:
        bad.append(f"solve count {results['count']}, expected {ref.n}")
    if len(rows) != ref.n:
        return bad + [f"solve returned {len(rows)} roots, expected {ref.n}"]
    for root, st in zip(roots, ref.states):
        for label, want, tol in (("z", st.z, st.tol_z), ("z_tilde", st.zt, st.tol_zt), ("energy_ratio", st.e, st.tol_e)):
            if root["m"] != st.m or not O.close(root[label], want, tol):
                bad.append(f"solve m={st.m}: {label}={root[label]!r}, expected {want!r} +- {tol:.3g}")
        # the reported residual is the exact residual at the returned z:
        # its slope at the root times the root tolerance, plus rounding
        slope = st.z / st.zt + st.zt / st.z + ref.z0**2 / st.z
        cap = slope * st.tol_z + 16.0 * O.U * (st.zt + st.z)
        if not O.close(root["residual"], 0.0, cap):
            bad.append(f"solve m={st.m}: residual {root['residual']!r} above {cap:.3g}")
        if not 0 <= root["newton_iters"] <= O.MAX_ITER:
            bad.append(f"solve m={st.m}: newton_iters {root['newton_iters']}")
    diag = doc["diagnostics"]
    if diag.get("newton_iters_total") != sum(r["newton_iters"] for r in roots):
        bad.append("solve diagnostics: newton_iters_total is not the sum")
    if diag.get("max_abs_residual") != max((abs(r["residual"]) for r in roots), default=0.0):
        bad.append("solve diagnostics: max_abs_residual is not the maximum")
    fb = diag.get("fallback_bisections_total")
    if not (isinstance(fb, int) and 0 <= fb <= diag.get("newton_iters_total", 0)):
        bad.append(f"solve diagnostics: fallback_bisections_total {fb!r}")
    return bad


def _check_wavefn(op: Op, doc: dict) -> list[str]:
    st: O.StateRef = op.ref
    res = doc["results"]
    bad = []
    if doc["inputs"] != {"z0": op.extra["z0"], "state": op.extra["state"], "samples": CURVE_SAMPLES, "tol": O.ROOT_TOL, "max_iter": O.MAX_ITER}:
        bad.append(f"wavefn echoed {doc['inputs']}")
    checks = (
        ("z", st.z, st.tol_z),
        ("z_tilde", st.zt, st.tol_zt),
        ("energy_ratio", st.e, st.tol_e),
        ("k", st.z, st.tol_z),
        ("k_tilde", st.zt, st.tol_zt),
        ("amplitude", st.amp, st.tol_amp),
        ("outside_coeff", st.b, st.tol_b),
        ("probability_inside", st.p, st.tol_p),
    )
    for label, want, tol in checks:
        if not O.close(res.get(label), want, tol):
            bad.append(f"wavefn {label}={res.get(label)!r}, expected {want!r} +- {tol:.3g}")
    if res.get("m") != st.m or res.get("a") != 1.0:
        bad.append(f"wavefn m/a = {res.get('m')}/{res.get('a')}")
    points = res["points"]
    if len(points) != CURVE_SAMPLES:
        return bad + [f"wavefn returned {len(points)} points"]
    # x_i = (a + 8 / k_tilde) i / (samples - 1)
    x_max = 1.0 + 8.0 / st.zt
    tol_x_max = 8.0 * st.tol_zt / st.zt**2 + 8.0 * O.U * x_max
    for i, point in enumerate(points):
        frac = i / (CURVE_SAMPLES - 1)
        x = point["x"]
        if not O.close(x, x_max * frac, tol_x_max * frac + 2.0 * math.ulp(x_max)):
            bad.append(f"wavefn x[{i}]={x!r}, expected {x_max * frac!r}")
            break
        value, tol = O.psi_ref(st, x)
        if not O.close(point["psi"], value, tol):
            bad.append(f"wavefn psi({x!r})={point['psi']!r}, expected {value!r} +- {tol:.3g}")
            break
    return bad


def check_cli_op(op: Op, returncode: int, stdout: str) -> list[tuple[str, str]]:
    """No CLI input exposes a known fault: each problem is named by its subcommand."""
    return [(op.args[0], message) for message in _cli_problems(op, returncode, stdout)]


def _cli_problems(op: Op, returncode: int, stdout: str) -> list[str]:
    if returncode != 0:
        return [f"{' '.join(op.args)}: exit status {returncode}"]
    doc = json.loads(stdout)
    command = op.args[0]
    if doc.get("schema_version") != "1" or doc.get("command") != command:
        return [f"{command}: envelope {doc.get('schema_version')!r}/{doc.get('command')!r}"]
    res = doc["results"]
    if command == "count":
        if doc["inputs"] != {"z0": op.extra["z0"]} or res != {"count": op.ref.n}:
            return [f"count: {doc['inputs']} -> {res}, expected count {op.ref.n}"]
        return []
    if command == "solve":
        return _check_solve(op, doc)
    if command == "exact":
        bad = []
        if doc["inputs"] != {"n": op.extra["n"]} or res.get("n") != op.extra["n"]:
            bad.append(f"exact echoed {doc['inputs']}")
        for label, want in op.ref.items():
            if label == "n":
                continue
            w = float(want)
            if not O.close(res.get(label), w, 8.0 * O.U * abs(w)):
                bad.append(f"exact {label}={res.get(label)!r}, expected {w!r}")
        return bad
    if command == "wavefn":
        return _check_wavefn(op, doc)
    if command == "variants":
        kind = op.extra["kind"]
        got = [(i["z"], i["spurious"]) for i in res["intersections"]]
        bad = [message for _, message in O.check_crossings(kind, op.extra["z0"], op.ref, got)]
        positions = [i["position"] for i in res["intersections"]]
        if positions != list(range(1, len(got) + 1)):
            bad.append("variants positions are not 1..n")
        n_spurious = sum(1 for c in op.ref if c.spurious)
        if res["kind"] != kind or res["n_total"] != len(op.ref) or res["n_spurious"] != n_spurious:
            bad.append(f"variants totals {res['n_total']}/{res['n_spurious']}")
        return bad
    if command == "curves":
        kind = op.extra["kind"]
        if res["kind"] != kind or doc["inputs"].get("samples") != CURVE_SAMPLES:
            return [f"curves echoed {doc['inputs']}"]
        got = [(p["z"], p["value"]) for p in res["points"]]
        return [message for _, message in O.check_curve(kind, op.extra["z0"], CURVE_SAMPLES, op.ref, got)]
    return [f"unknown command {command}"]


GENERATORS = {
    "cli-cold": cli_cold,
    "deep-spectrum": deep_spectrum,
    "shallow-wells": shallow_wells,
    "graphical": graphical,
}
