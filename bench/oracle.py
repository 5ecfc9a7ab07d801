"""Reference answers for the benchmark, made in mpmath and closed form.

Nothing here imports semiwell or looks at its output: every reference value
comes from a 113-bit mpmath computation or a closed form, and every
tolerance comes from float64 conditioning (the unit roundoff U, the
sensitivity of the quantity at the true root) plus the step tolerance the
solver's default configuration states.  The ``check_*`` functions take a
reference and the program's answer as plain numbers and return a list of
problems, each a pair (where, message): ``where`` names the check that
failed, such as ``"m=3 z_tilde"`` or ``"sin count"``, so that a known
fault can be told from any other failure.  An empty list means the answer
is right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import libmp, mp, mpf

mp.prec = 113

U = 2.0**-53  # float64 unit roundoff
ROOT_TOL = 1e-12  # default SolveConfig.root_tol: Newton stops below this step
MAX_ITER = 50  # default SolveConfig.max_newton_iters
SCAN_TOL = 1e-13  # variant crossings are bisected to this width, relative to the cell end
POLE_BAND = 1e-6  # cot curve samples with |sin z| below this are dropped
VARIANT_KINDS = ("sin", "abs-sin", "neg-sin", "correct")
CURVE_KINDS = ("circle", "cot") + VARIANT_KINDS

# CODATA 2018 values, as published to ten digits, for the ev-nm unit system
HBAR_SI = mpf("1.054571817e-34")
ELECTRON_MASS_SI = mpf("9.1093837015e-31")
EV_SI = mpf("1.602176634e-19")
NM_SI = mpf("1e-9")


def state_count(z0: float) -> int:
    """Bands m >= 1 with (2m - 1) pi / 2 < z0, by exact comparison."""
    t = 2 * mpf(z0) / mp.pi
    if t <= 1:
        return 0
    return int(mp.ceil((t + 1) / 2)) - 1


def _float_guess(m: int, z0: float, lo: float, hi: float) -> float:
    # safeguarded float64 Newton on f(z) = z -/+ z0 sin z, as a starting point
    sign = -1.0 if m % 2 else 1.0
    z = 0.5 * (lo + hi)
    for _ in range(60):
        f = z + sign * z0 * math.sin(z)
        if f < 0.0:
            lo = z
        elif f > 0.0:
            hi = z
        else:
            return z
        nz = z - f / (1.0 + sign * z0 * math.cos(z))
        if not lo < nz < hi:
            nz = 0.5 * (lo + hi)
        if abs(nz - z) <= 4.0 * math.ulp(z):
            return nz
        z = nz
    return z


# The root search and the state values run for thousands of bands per well,
# so they use mpmath's raw 113-bit arithmetic (libmp) rather than mpf objects.
_P = mp.prec
_RN = libmp.round_nearest
_ONE = libmp.fone


def _mul(a, b):
    return libmp.mpf_mul(a, b, _P, _RN)


def _add(a, b):
    return libmp.mpf_add(a, b, _P, _RN)


def _sub(a, b):
    return libmp.mpf_sub(a, b, _P, _RN)


def _div(a, b):
    return libmp.mpf_div(a, b, _P, _RN)


def _brackets_root(z, c, s, v) -> bool:
    """Does the exact residual R = sqrt(z0^2 - z^2) + z cot z fall from
    positive to negative across [z - eps, z + eps], eps = 2^-64 z?

    In a band cot z < 0, so sign(R) = sign((z0^2 - z^2) sin^2 z - z^2 cos^2 z),
    which needs no square root.  cos and sin at z +- eps come from the
    first-order addition formulas; the eps^2 terms they drop move that
    expression by a factor eps less than the eps-sized change being tested.
    """
    eps = libmp.mpf_shift(z, -64)
    signs = []
    for d in (libmp.mpf_neg(eps), eps):
        x = _add(z, d)
        cx = _sub(c, _mul(s, d))
        sx = _add(s, _mul(c, d))
        if libmp.mpf_sign(cx) == libmp.mpf_sign(sx) or not libmp.mpf_lt(x, v):
            return False
        q = _sub(_mul(_mul(_sub(v, x), _add(v, x)), _mul(sx, sx)), _mul(_mul(x, x), _mul(cx, cx)))
        signs.append(libmp.mpf_sign(q))
    return signs == [1, -1]


_PI = libmp.mpf_pi(_P)
_HALF_PI = libmp.mpf_shift(_PI, -1)


def band_root(m: int, z0: float):
    """The m-th root, with cos and sin there, as raw libmp values.

    Newton on f = z -/+ z0 sin z from a float64 start, kept inside the band
    by bisection, until the exact residual changes sign across the iterate
    to within 2^-64 relative.  Once a step is below 2^-30 relative, cos and
    sin at the following iterates come from the addition formulas, whose
    dropped terms lie below the working precision, and two steps from there
    reach it.
    """
    v = libmp.from_float(z0)
    lo = _mul(libmp.from_int(2 * m - 1), _HALF_PI)
    hi = _mul(libmp.from_int(m), _PI)
    if libmp.mpf_lt(v, hi):
        hi = v
    odd = m % 2 == 1
    z = libmp.from_float(_float_guess(m, z0, libmp.to_float(lo), libmp.to_float(hi)))
    for _ in range(120):
        if not (libmp.mpf_lt(lo, z) and libmp.mpf_lt(z, hi)):
            z = libmp.mpf_shift(_add(lo, hi), -1)
        c, s = libmp.mpf_cos_sin(z, _P, _RN)
        vs, vc = _mul(v, s), _mul(v, c)
        f = _sub(z, vs) if odd else _add(z, vs)
        if libmp.mpf_sign(f) < 0:
            lo = z
        else:
            hi = z
        d = libmp.mpf_neg(_div(f, _sub(_ONE, vc) if odd else _add(_ONE, vc)))
        z = _add(z, d)
        if libmp.mpf_lt(libmp.mpf_abs(d), libmp.mpf_shift(z, -30)):
            d2 = libmp.mpf_shift(_mul(d, d), -1)
            cos_d = _sub(_ONE, d2)
            sin_d = _sub(d, _div(_mul(d, d2), libmp.from_int(3)))
            c, s = _sub(_mul(c, cos_d), _mul(s, sin_d)), _add(_mul(s, cos_d), _mul(c, sin_d))
            # one more step squares the error again; its own rotation is first order
            vs, vc = _mul(v, s), _mul(v, c)
            f = _sub(z, vs) if odd else _add(z, vs)
            d = libmp.mpf_neg(_div(f, _sub(_ONE, vc) if odd else _add(_ONE, vc)))
            z = _add(z, d)
            c, s = _sub(c, _mul(s, d)), _add(s, _mul(c, d))
            if _brackets_root(z, c, s, v):
                return z, c, s
    raise ArithmeticError(f"no certified root for m={m}, z0={z0!r}")


@dataclass(frozen=True)
class StateRef:
    """One bound state from the mpmath root, with float64 tolerances."""

    m: int
    raw: tuple  # root, z_tilde, amplitude, cos and sin at the root (libmp values)
    z: float
    zt: float
    e: float
    amp: float
    p: float
    tol_z: float
    tol_zt: float
    tol_e: float
    tol_amp: float
    tol_p: float
    amp_dz: float  # dA/dz and dA/dz_tilde, for the tolerance of psi
    amp_dzt: float
    b: float  # outside coefficient A sin z
    tol_b: float


def state_ref(m: int, z0: float, r=None, z0_error: float = 0.0) -> StateRef:
    """Reference state for band m.  r may be a closed-form root; z0_error
    is how far the float z0 lies from the depth r belongs to."""
    if r is None:
        r, c, s = band_root(m, z0)
    else:
        r = r._mpf_
        c, s = libmp.mpf_cos_sin(r, _P, _RN)
    v = libmp.from_float(z0)
    rt = libmp.mpf_sqrt(_mul(_sub(v, r), _add(v, r)), _P, _RN)
    i1 = _div(_sub(r, _mul(s, c)), libmp.mpf_shift(r, 1))
    i2 = _div(_mul(s, s), libmp.mpf_shift(rt, 1))
    total = _add(i1, i2)
    amp = _div(_ONE, libmp.mpf_sqrt(total, _P, _RN))
    flt = libmp.to_float
    z, zt, fs, fc = flt(r), flt(rt), flt(s), flt(c)
    fi1, fi2, famp, fp = flt(i1), flt(i2), flt(amp), flt(_div(i1, total))
    e = flt(_div(_mul(r, r), _mul(v, v)))
    # float64 floor of f = z -/+ z0 sin z at the root, divided by f' = 1 + z_tilde
    tol_z = ROOT_TOL + 4.0 * math.ulp(z) + 16.0 * U * z / (1.0 + zt) + z0_error
    # z_tilde from z: the circle form has slope z / z_tilde, the cot form
    # -z cot z has slope z + (z_tilde + z_tilde^2) / z; float64 can reach the smaller
    kappa = min(z / zt, z + (zt + zt * zt) / z)
    tol_zt = kappa * tol_z + 8.0 * U * zt + z0_error
    tol_e = 2.0 * e * tol_z / z + 8.0 * U * e
    ftotal = fi1 + fi2
    di1_dz = fs * fs / z - fi1 / z
    di2_dz = fs * fc / zt
    di2_dzt = -fi2 / zt
    dp_dz = (di1_dz * fi2 - fi1 * di2_dz) / ftotal**2
    dp_dzt = -fi1 * di2_dzt / ftotal**2
    amp_dz = -0.5 * famp * (di1_dz + di2_dz) / ftotal
    amp_dzt = -0.5 * famp * di2_dzt / ftotal
    return StateRef(
        m=m,
        raw=(r, rt, amp, c, s),
        z=z,
        zt=zt,
        e=e,
        amp=famp,
        p=fp,
        tol_z=tol_z,
        tol_zt=tol_zt,
        tol_e=tol_e,
        tol_amp=abs(amp_dz) * tol_z + abs(amp_dzt) * tol_zt + 16.0 * U * famp,
        tol_p=abs(dp_dz) * tol_z + abs(dp_dzt) * tol_zt + 32.0 * U * fp,
        amp_dz=amp_dz,
        amp_dzt=amp_dzt,
        b=famp * fs,
        tol_b=abs(amp_dz * fs + famp * fc) * tol_z + abs(amp_dzt * fs) * tol_zt + 16.0 * U * abs(famp * fs),
    )


def psi_ref(st: StateRef, x: float) -> tuple[float, float]:
    """psi(x) of the reference state (a = 1) and its float64 tolerance."""
    r, rt, a_mp, c, s = (mp.make_mpf(value) for value in st.raw)
    xm = mpf(x)
    if x <= 1.0:
        cx, sx = mp.cos_sin(r * xm)
        value = a_mp * sx
        d_z = st.amp_dz * float(sx) + st.amp * x * float(cx)
        d_zt = st.amp_dzt * float(sx)
        floor = 8.0 * U * st.amp * (1.0 + st.z * x)
    else:
        ex = mp.exp(-rt * (xm - 1))
        value = a_mp * s * ex
        fe = float(ex)
        d_z = (st.amp_dz * float(s) + st.amp * float(c)) * fe
        d_zt = (st.amp_dzt * float(s) - st.amp * float(s) * (x - 1.0)) * fe
        floor = 8.0 * U * abs(float(value)) * (1.0 + st.zt * (x - 1.0))
    tol = abs(d_z) * st.tol_z + abs(d_zt) * st.tol_zt + floor
    return float(value), tol


# --------------------------------------------------------------- spectra


@dataclass(frozen=True)
class SpectrumRef:
    z0: float
    n: int
    states: tuple[StateRef, ...]


def spectrum_ref(z0: float) -> SpectrumRef:
    n = state_count(z0)
    return SpectrumRef(z0, n, tuple(state_ref(m, z0) for m in range(1, n + 1)))


def closed_form(n: int) -> dict[str, object]:
    """Family member n: z = (8n + 3) pi / 4 = z_tilde, z0 = sqrt(2) z."""
    odd = 8 * n + 3
    z = odd * mp.pi / 4
    return {
        "n": n,
        "z": z,
        "z0": mp.sqrt(2) * z,
        "z_tilde": z,
        "energy_over_v0": mpf(1) / 2,
        "v0_natural": odd * odd * mp.pi**2 / 16,
        "amplitude_sq_times_a": 2 * odd * mp.pi / (odd * mp.pi + 4),
        "p_inside": (odd * mp.pi + 2) / (odd * mp.pi + 4),
    }


def closed_form_spectrum(n: int, z0: float) -> SpectrumRef:
    """Spectrum of the well z0 ~ z0_n, with band 2n + 1 from the closed form."""
    cf = closed_form(n)
    z0_error = float(abs(mpf(z0) - cf["z0"]))
    count = state_count(z0)
    states = []
    for m in range(1, count + 1):
        if m == 2 * n + 1:
            states.append(state_ref(m, z0, r=cf["z"], z0_error=z0_error))
        else:
            states.append(state_ref(m, z0))
    return SpectrumRef(z0, count, tuple(states))


def close(got, want: float, tol: float) -> bool:
    """got is a number (JSON writes 0.0 as 0) within tol of want."""
    return isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - want) <= tol


def check_states(ref: SpectrumRef, n: int, states: list) -> list[tuple[str, str]]:
    """states: rows (m, z, z_tilde, E/V0, amplitude, P_inside)."""
    bad = []
    if n != ref.n:
        bad.append(("count", f"z0={ref.z0!r}: count {n}, expected {ref.n}"))
    if len(states) != ref.n:
        bad.append(("count", f"z0={ref.z0!r}: {len(states)} states, expected {ref.n}"))
        return bad
    for row, st in zip(states, ref.states):
        m, z, zt, e, amp, p = row
        for label, got, want, tol in (
            ("z", z, st.z, st.tol_z),
            ("z_tilde", zt, st.zt, st.tol_zt),
            ("E/V0", e, st.e, st.tol_e),
            ("amplitude", amp, st.amp, st.tol_amp),
            ("P_inside", p, st.p, st.tol_p),
        ):
            if m != st.m or not close(got, want, tol):
                bad.append(
                    (
                        f"m={st.m} {label}",
                        f"z0={ref.z0!r} m={st.m}: {label}={got!r}, expected {want!r} +- {tol:.3g}",
                    )
                )
    return bad


# ------------------------------------------------------------- variants


def _cell_sign(kind: str, j: int) -> int:
    # on the half-pi cell (j pi/2, (j+1) pi/2) every variant is g = eps sin z
    sin_pos = j % 4 in (0, 1)
    cos_pos = j % 4 in (0, 3)
    if kind == "sin":
        return 1
    if kind == "neg-sin":
        return -1
    if kind == "abs-sin":
        return 1 if sin_pos else -1
    return -1 if cos_pos else 1


def _refine(v, eps: int, a, b):
    # h = z - eps z0 sin z is monotone on [a, b] and changes sign there
    ha = a - eps * v * mp.sin(a)
    z = (a + b) / 2
    lo, hi = a, b
    for _ in range(200):
        c, s = mp.cos_sin(z)
        h = z - eps * v * s
        if (h < 0) == (ha < 0):
            lo = z
        else:
            hi = z
        dh = 1 - eps * v * c
        nz = z - h / dh if dh != 0 else (lo + hi) / 2
        if abs(nz - z) <= z * mpf(2) ** -100:
            return z, dh
        z = nz if lo < nz < hi else (lo + hi) / 2
    raise ArithmeticError("variant crossing refinement did not converge")


@dataclass(frozen=True)
class CrossingRef:
    z: float
    spurious: bool
    tol: float
    gap: float  # distance to the nearest other crossing in the same scan cell
    edge: float  # distance to the nearest cell edge or to z0


def crossings_ref(kind: str, z0: float) -> tuple[CrossingRef, ...]:
    """Crossings of y = z with y = z0 g(z) on (0, z0].

    On each half-pi cell g = eps sin z, so h = z - eps z0 sin z has at most
    one critical point, where cos z = eps / z0.  Splitting the cell there
    leaves monotone pieces, each holding a root exactly when h changes sign
    across it.
    """
    v = mpf(z0)
    half = mp.pi / 2
    # the program scans cells of pi for SIN and NEG_SIN, of pi/2 otherwise
    cells_per_scan = 2 if kind in ("sin", "neg-sin") else 1
    base = mp.acos(1 / v) if v > 1 else None
    raw = []
    j = 0
    while j * half < v:
        lo = j * half
        hi = min((j + 1) * half, v)
        eps = _cell_sign(kind, j)
        points = [lo if j else mpf(2) ** -200, hi]
        if base is not None:
            # cos z = eps / z0 at z = +-acos(eps / z0) + 2 pi i
            acos_eps = base if eps > 0 else mp.pi - base
            for cand in (acos_eps, -acos_eps):
                i = mp.floor((lo - cand) / (2 * mp.pi)) + 1
                zc = cand + 2 * mp.pi * i
                if lo < zc < hi:
                    points.insert(1, zc)
        for a, b in zip(points, points[1:]):
            ha = a - eps * v * mp.sin(a)
            hb = b - eps * v * mp.sin(b)
            if (ha < 0) != (hb < 0) and ha != 0 and hb != 0:
                r, dh = _refine(v, eps, a, b)
                raw.append((r, dh, min(r - lo, hi - r), j // cells_per_scan))
        j += 1
    out = []
    for k, (r, dh, edge, cell) in enumerate(raw):
        z = float(r)
        gaps = [abs(r - raw[i][0]) for i in (k - 1, k + 1) if 0 <= i < len(raw) and raw[i][3] == cell]
        c, s = mp.cos_sin(r)
        # bisection width (cells are at most pi wide) plus the float64 floor
        # of h = z - z0 g(z), about 8 U z, over |h'| at the crossing
        cell_end = min(z + math.pi, z0)
        tol = SCAN_TOL * max(1.0, cell_end) + 16.0 * U * z / abs(float(dh)) + 2.0 * math.ulp(z)
        out.append(
            CrossingRef(
                z=z,
                spurious=bool(c / s > 0),
                tol=tol,
                gap=float(min(gaps)) if gaps else math.inf,
                edge=float(edge),
            )
        )
    return tuple(out)


def equivalence_ref(crossings: tuple[CrossingRef, ...], spectrum: SpectrumRef) -> bool:
    """Do the non-spurious crossings reproduce the true roots one for one?"""
    kept = [c.z for c in crossings if not c.spurious]
    if len(kept) != spectrum.n:
        return False
    return all(abs(k - st.z) <= 1e-9 for k, st in zip(kept, spectrum.states))


def check_crossings(
    kind: str, z0: float, refs: tuple[CrossingRef, ...], got: list
) -> list[tuple[str, str]]:
    """got: rows (z, spurious)."""
    if len(got) != len(refs):
        return [(f"{kind} count", f"z0={z0!r} {kind}: {len(got)} crossings, expected {len(refs)}")]
    bad = []
    for (z, spurious), ref in zip(got, refs):
        if not close(z, ref.z, ref.tol) or spurious != ref.spurious:
            bad.append(
                (
                    f"{kind} crossing",
                    f"z0={z0!r} {kind}: crossing ({z!r}, {spurious}), expected "
                    f"({ref.z!r} +- {ref.tol:.3g}, {ref.spurious})",
                )
            )
    return bad


# --------------------------------------------------------------- curves


def curve_value_ref(kind: str, z: float, z0: float) -> float:
    """The exact curve at the float abscissa z, rounded to float."""
    zr, v = libmp.from_float(float(z)), libmp.from_float(z0)
    if kind == "circle":
        return libmp.to_float(libmp.mpf_sqrt(_mul(_sub(v, zr), _add(v, zr)), _P, _RN))
    c, s = libmp.mpf_cos_sin(zr, _P, _RN)
    if kind == "cot":
        value = libmp.mpf_neg(_div(_mul(zr, c), s))
    elif kind == "sin":
        value = _mul(v, s)
    elif kind == "abs-sin":
        value = _mul(v, libmp.mpf_abs(s))
    elif kind == "neg-sin":
        value = libmp.mpf_neg(_mul(v, s))
    else:  # correct: -z0 sin z sign(cos z)
        value = _mul(v, s) if libmp.mpf_sign(c) < 0 else libmp.mpf_neg(_mul(v, s))
    return libmp.to_float(value)


def curve_grid_ref(kind: str, z0: float, samples: int) -> tuple[list[int], bool]:
    """Indices of the grid z_i = z0 i / (samples - 1) the curve keeps, and
    whether some |sin z_i| lies so close to the pole band that rounding of
    z_i could decide it."""
    v = mpf(z0)
    keep = []
    ambiguous = False
    for i in range(samples):
        if kind == "cot":
            s = abs(mp.sin(v * i / (samples - 1)))
            ambiguous = ambiguous or abs(s - POLE_BAND) < 1e-9 * POLE_BAND
            if s < POLE_BAND:
                continue
        keep.append(i)
    return keep, ambiguous


def check_curve(kind: str, z0: float, samples: int, keep: list[int], got: list) -> list[tuple[str, str]]:
    """got: rows (z, value).  Each abscissa must be the grid point z0 i / (n - 1)
    to two ulps, and each value the exact curve at that abscissa."""
    if len(got) != len(keep):
        return [(f"{kind} curve", f"z0={z0!r} curve {kind}: {len(got)} points, expected {len(keep)}")]
    v = libmp.from_float(z0)
    last = libmp.from_int(samples - 1)
    bad = []
    for (z, value), i in zip(got, keep):
        zi = libmp.to_float(_div(_mul(v, libmp.from_int(i)), last))
        want = curve_value_ref(kind, z, z0)
        tol = 8.0 * U * abs(want) + 1e-300
        if not close(z, zi, 2.0 * math.ulp(zi)) or not close(value, want, tol):
            bad.append(
                (
                    f"{kind} curve",
                    f"z0={z0!r} curve {kind} point {i}: ({z!r}, {value!r}), expected ({zi!r}, {want!r})",
                )
            )
            if len(bad) > 3:
                break
    return bad


# -------------------------------------------------------------- physical


def z0_from_ev_nm(mass: float, width: float, depth: float):
    """z0 = sqrt(2 m V0) a / hbar for electron masses, nm and eV."""
    m = mpf(mass) * ELECTRON_MASS_SI
    a = mpf(width) * NM_SI
    v0 = mpf(depth) * EV_SI
    return mp.sqrt(2 * m * v0) * a / HBAR_SI
