"""Command-line interface.

    semiwell count  --z0 15
    semiwell solve  --z0 25 --format csv
    semiwell solve  --mass 1 --width 1 --depth 1 --units ev-nm
    semiwell exact  --n 3
    semiwell wavefn --z0 15 --state 2 --samples 500
    semiwell variants --kind sin --z0 25
    semiwell curves --kind circle --z0 15 --output circle.csv --format csv

Exit status: 0 on success, 1 when the inputs are outside the physical or
numerical domain, 2 for malformed usage.  Output goes to stdout or to
--output, in JSON (default) or CSV.  Identical invocations produce
byte-identical output.

With --z0 the well width is the unit of length (a = 1).  The physical
triple --mass --width --depth is interpreted per --units: plain SI, or
ev-nm (electron masses, nanometers, electronvolts).
"""

from __future__ import annotations

import argparse
import math
import sys

from .dimensionless import WellStrength, residual_exact
from .errors import ConvergenceError, DomainError
from .exact import exact_solution
from .output import CurveKind, OutputDocument, emit_curves, serialize
from .solver import SolveConfig, count_bound_states, newton_solve, solve_spectrum
from .units import (
    ELECTRON_MASS_SI,
    EV_SI,
    NM_SI,
    PhysicalWell,
    strength_from_physical,
)
from .variants import VariantKind, enumerate_intersections
from .wavefunction import build_wavefunction, evaluate, probability_inside

# refuse to enumerate absurdly deep spectra or their variant crossings
# interactively; state counting still works at any depth
_MAX_ENUMERATED_STATES = 100_000


def _add_well_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("well parameters")
    group.add_argument("--z0", type=float, help="dimensionless well strength")
    group.add_argument("--mass", type=float, help="particle mass")
    group.add_argument("--width", type=float, help="well width a")
    group.add_argument("--depth", type=float, help="well depth V0")
    group.add_argument(
        "--units",
        choices=["si", "ev-nm"],
        default=None,
        help="units of the physical triple: SI, or electron masses / nm / eV",
    )


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol", type=float, default=1e-12, help="root tolerance (default 1e-12)"
    )
    parser.add_argument(
        "--max-iter", type=int, default=50, help="iteration cap (default 50)"
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--output", metavar="PATH", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiwell",
        description="Bound states of the semi-infinite square well.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="number of bound states")
    _add_well_arguments(p)
    _add_output_arguments(p)

    p = sub.add_parser("solve", help="all bound states with diagnostics")
    _add_well_arguments(p)
    _add_solver_arguments(p)
    _add_output_arguments(p)

    p = sub.add_parser("exact", help="closed-form solvable well number n")
    p.add_argument("--n", type=int, required=True, help="family index, n >= 0")
    _add_output_arguments(p)

    p = sub.add_parser("wavefn", help="sampled normalized eigenfunction")
    _add_well_arguments(p)
    _add_solver_arguments(p)
    p.add_argument(
        "--state", type=int, required=True, metavar="M", help="state index, 1-based"
    )
    p.add_argument("--samples", type=int, default=1000)
    _add_output_arguments(p)

    p = sub.add_parser("variants", help="intersections of a rewritten equation")
    _add_well_arguments(p)
    p.add_argument(
        "--kind",
        choices=[k.value for k in VariantKind],
        required=True,
        help="which rewriting of the eigenvalue equation",
    )
    _add_output_arguments(p)

    p = sub.add_parser("curves", help="plot-ready samples of one curve")
    _add_well_arguments(p)
    p.add_argument(
        "--kind",
        choices=[k.value for k in CurveKind],
        required=True,
    )
    p.add_argument("--samples", type=int, default=1000)
    _add_output_arguments(p)

    return parser


def _resolve_well(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[WellStrength, float, dict[str, object]]:
    """Well strength, well width, and the echoed inputs for the document."""
    physical = [args.mass, args.width, args.depth]
    has_physical = any(p is not None for p in physical)
    if args.z0 is not None and has_physical:
        parser.error("--z0 conflicts with --mass/--width/--depth")
    if args.z0 is not None:
        if args.units is not None:
            parser.error("--units applies only to --mass/--width/--depth")
        return WellStrength(args.z0), 1.0, {"z0": args.z0}
    if not all(p is not None for p in physical):
        parser.error("provide --z0, or all of --mass --width --depth")
    units = args.units or "si"
    if units == "ev-nm":
        well = PhysicalWell(
            mass=args.mass * ELECTRON_MASS_SI,
            width_a=args.width * NM_SI,
            depth_v0=args.depth * EV_SI,
        )
    else:
        well = PhysicalWell(mass=args.mass, width_a=args.width, depth_v0=args.depth)
    strength = strength_from_physical(well)
    inputs: dict[str, object] = {
        "mass": args.mass,
        "width": args.width,
        "depth": args.depth,
        "units": units,
        "z0": strength.z0,
    }
    return strength, well.width_a, inputs


def _solver_config(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(root_tol=args.tol, max_newton_iters=args.max_iter)


def _check_enumerable(strength: WellStrength) -> None:
    # refuse a well past the enumeration cap; band cap + 1 opens at
    # (cap + 1/2) pi, so only a well deeper than cap pi is counted
    cap = _MAX_ENUMERATED_STATES
    if strength.z0 > cap * math.pi and (n := count_bound_states(strength)) > cap:
        raise DomainError(
            f"well holds {n} states, above the enumeration cap ({cap}); "
            "use the count command"
        )


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> OutputDocument:
    if args.cmd == "count":
        strength, _, inputs = _resolve_well(parser, args)
        return OutputDocument(
            command="count",
            inputs=inputs,
            results={"count": count_bound_states(strength)},
        )

    if args.cmd == "solve":
        strength, _, inputs = _resolve_well(parser, args)
        config = _solver_config(args)
        inputs.update({"tol": config.root_tol, "max_iter": config.max_newton_iters})
        _check_enumerable(strength)
        states, steps = solve_spectrum(strength, config)
        roots = [
            {**s._asdict(), "residual": residual_exact(s.z, strength), "newton_iters": i}
            for s, i in zip(states, steps)
        ]
        diagnostics = {
            "newton_iters_total": sum(steps),
            "fallback_bisections_total": 0,  # Newton needs no fallback step
            "max_abs_residual": max((abs(r["residual"]) for r in roots), default=0.0),
        }
        results = {"count": len(states), "roots": roots}
        return OutputDocument(
            command="solve", inputs=inputs, results=results, diagnostics=diagnostics
        )

    if args.cmd == "exact":
        record = exact_solution(args.n)
        return OutputDocument(
            command="exact", inputs={"n": args.n}, results=record._asdict()
        )

    if args.cmd == "wavefn":
        strength, width, inputs = _resolve_well(parser, args)
        config = _solver_config(args)
        if args.samples < 2:
            raise DomainError(f"need at least 2 samples, got {args.samples}")
        inputs.update(
            {
                "state": args.state,
                "samples": args.samples,
                "tol": config.root_tol,
                "max_iter": config.max_newton_iters,
            }
        )
        state, _ = newton_solve(args.state, strength, config)
        spec = build_wavefunction(state, strength, a=width)
        x_max = spec.a + 8.0 / spec.k_tilde
        points = []
        for i in range(args.samples):
            x = x_max * (i / (args.samples - 1))
            points.append({"x": x, "psi": evaluate(spec, x)})
        return OutputDocument(
            command="wavefn",
            inputs=inputs,
            results={
                **state._asdict(),
                **spec._asdict(),
                "probability_inside": probability_inside(spec),
                "points": points,
            },
        )

    if args.cmd == "variants":
        strength, _, inputs = _resolve_well(parser, args)
        kind = VariantKind(args.kind)
        inputs["kind"] = kind.value
        _check_enumerable(strength)
        report = enumerate_intersections(kind, strength)
        return OutputDocument(
            command="variants",
            inputs=inputs,
            results={
                "kind": kind.value,
                "n_total": report.n_total,
                "n_spurious": report.n_spurious,
                "intersections": [
                    {"position": pos, "z": item.z, "spurious": item.spurious}
                    for pos, item in enumerate(report.intersections, start=1)
                ],
            },
        )

    if args.cmd == "curves":
        strength, _, inputs = _resolve_well(parser, args)
        kind = CurveKind(args.kind)
        inputs.update({"kind": kind.value, "samples": args.samples})
        samples = emit_curves(strength, kind, args.samples)
        return OutputDocument(
            command="curves",
            inputs=inputs,
            results={
                "kind": kind.value,
                "points": [{"z": z, "value": value} for z, value in samples],
            },
        )

    raise ValueError(f"unknown command {args.cmd!r}")  # unreachable


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute, write the document; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = _dispatch(parser, args)
        payload = serialize(doc, args.format)
    except SystemExit as exc:  # --help, or a usage error from the parser
        return exc.code if isinstance(exc.code, int) else 2
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())
