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

Every command is declared once, in _COMMANDS, and every document echoes
its inputs in one order: the well (z0, or mass, width, depth, units and
the derived z0), then the command's own arguments in their declaration
order, then tol and max_iter for solve and wavefn.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple

from .dimensionless import BoundState, WellStrength, _check_int, residual_exact
from .errors import ConvergenceError, DomainError
from .exact import exact_solution
from .output import CurveKind, OutputDocument, Table, emit_curves, serialize
from .solver import SolveConfig, count_bound_states, newton_solve, solve_spectrum
from .units import ELECTRON_MASS_SI, EV_SI, NM_SI, PhysicalWell, strength_from_physical
from .variants import VariantKind, enumerate_intersections
from .wavefunction import build_wavefunction, evaluate, probability_inside

# refuse to enumerate absurdly deep spectra or their variant crossings
# interactively; state counting still works at any depth
_MAX_ENUMERATED_STATES = 100_000


# the factors that take --mass --width --depth to SI, per --units
_UNIT_SCALES = {"si": (1.0, 1.0, 1.0), "ev-nm": (ELECTRON_MASS_SI, NM_SI, EV_SI)}


# every command once: its help, whether it takes the well parameters and
# the solver settings --tol/--max-iter, and its own arguments (name:
# add_argument keywords) in declaration order, echoed in that order
_Command = namedtuple("_Command", "help well solver own", defaults=(True, False, {}))
_COMMANDS = {
    "count": _Command("number of bound states"),
    "solve": _Command("all bound states with diagnostics", solver=True),
    "exact": _Command(
        "closed-form solvable well number n",
        well=False,
        own={"n": dict(type=int, required=True, help="family index, n >= 0")},
    ),
    "wavefn": _Command(
        "sampled normalized eigenfunction",
        solver=True,
        own={
            "state": dict(type=int, required=True, metavar="M", help="state index, 1-based"),
            "samples": dict(type=int, default=1000),
        },
    ),
    "variants": _Command(
        "intersections of a rewritten equation",
        own={
            "kind": dict(
                choices=[k.value for k in VariantKind],
                required=True,
                help="which rewriting of the eigenvalue equation",
            )
        },
    ),
    "curves": _Command(
        "plot-ready samples of one curve",
        own={
            "kind": dict(choices=[k.value for k in CurveKind], required=True),
            "samples": dict(type=int, default=1000),
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiwell",
        description="Bound states of the semi-infinite square well.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.well:
            group = p.add_argument_group("well parameters")
            group.add_argument("--z0", type=float, help="dimensionless well strength")
            group.add_argument("--mass", type=float, help="particle mass")
            group.add_argument("--width", type=float, help="well width a")
            group.add_argument("--depth", type=float, help="well depth V0")
            group.add_argument(
                "--units",
                choices=list(_UNIT_SCALES),
                default=None,
                help="units of the physical triple: SI, or electron masses / nm / eV",
            )
        if command.solver:
            p.add_argument(
                "--tol", type=float, default=1e-12, help="root tolerance (default 1e-12)"
            )
            p.add_argument(
                "--max-iter", type=int, default=50, help="iteration cap (default 50)"
            )
        for arg, keywords in command.own.items():
            p.add_argument(f"--{arg}", **keywords)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    return parser


def _resolve_well(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[WellStrength, float, dict[str, object]]:
    """Well strength, well width, and the echoed inputs for the document."""
    physical = [args.mass, args.width, args.depth]
    if args.z0 is not None:
        if any(p is not None for p in physical):
            parser.error("--z0 conflicts with --mass/--width/--depth")
        if args.units is not None:
            parser.error("--units applies only to --mass/--width/--depth")
        return WellStrength(args.z0), 1.0, {"z0": args.z0}
    if None in physical:
        parser.error("provide --z0, or all of --mass --width --depth")
    units = args.units or "si"
    mass, width, depth = _UNIT_SCALES[units]
    well = PhysicalWell(args.mass * mass, args.width * width, args.depth * depth)
    strength = strength_from_physical(well)
    return strength, well.width_a, {
        "mass": args.mass,
        "width": args.width,
        "depth": args.depth,
        "units": units,
        "z0": strength.z0,
    }


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
    command = _COMMANDS[args.cmd]
    inputs: dict[str, object] = {}
    if command.well:
        strength, width, inputs = _resolve_well(parser, args)
    inputs.update((name, getattr(args, name)) for name in command.own)
    if command.solver:
        config = SolveConfig(root_tol=args.tol, max_newton_iters=args.max_iter)
        inputs.update({"tol": config.root_tol, "max_iter": config.max_newton_iters})

    diagnostics: dict[str, object] = {}
    if args.cmd == "count":
        results = {"count": count_bound_states(strength)}
    elif args.cmd == "solve":
        _check_enumerable(strength)
        states, steps = solve_spectrum(strength, config)
        residuals = [residual_exact(s.z, strength) for s in states]
        header = (*BoundState._fields, "residual", "newton_iters")
        roots = Table(header, [(*s, r, i) for s, r, i in zip(states, residuals, steps)])
        diagnostics = {
            "newton_iters_total": sum(steps),
            "fallback_bisections_total": 0,  # Newton needs no fallback step
            "max_abs_residual": max(map(abs, residuals), default=0.0),
        }
        results = {"count": len(states), "roots": roots}
    elif args.cmd == "exact":
        results = exact_solution(args.n)._asdict()
    elif args.cmd == "wavefn":
        _check_int("samples", args.samples, 2)
        state, _ = newton_solve(args.state, strength, config)
        spec = build_wavefunction(state, strength, a=width)
        x_max = spec.a + 8.0 / spec.k_tilde
        xs = [x_max * (i / (args.samples - 1)) for i in range(args.samples)]
        results = {
            **state._asdict(),
            **spec._asdict(),
            "probability_inside": probability_inside(spec),
            "points": Table(("x", "psi"), [(x, evaluate(spec, x)) for x in xs]),
        }
    elif args.cmd == "variants":
        _check_enumerable(strength)
        report = enumerate_intersections(VariantKind(args.kind), strength)
        rows = [(pos, i.z, i.spurious) for pos, i in enumerate(report.intersections, 1)]
        results = {
            "kind": args.kind,
            "n_total": report.n_total,
            "n_spurious": report.n_spurious,
            "intersections": Table(("position", "z", "spurious"), rows),
        }
    else:  # curves
        samples = emit_curves(strength, CurveKind(args.kind), args.samples)
        results = {"kind": args.kind, "points": Table(("z", "value"), samples)}
    return OutputDocument(args.cmd, inputs, results, diagnostics)


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
