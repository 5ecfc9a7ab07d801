"""Spans and call counts recorded around the public functions of semiwell.

The tracer rebinds each traced function, in every semiwell module that
holds it, to a wrapper that records a span (name, start, end, parent, op).
Nothing inside semiwell changes.  Counts of the small inner functions
(input validation, residual evaluations) come from cProfile, which runs
only in the first round of a traced run; span timings come from the later
rounds, so the profiler does not distort them.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict

TRACED = {
    "cli": ("run",),
    "output": ("serialize", "emit_curves"),
    "solver": ("count_bound_states", "newton_solve", "solve_all"),
    "wavefunction": ("build_wavefunction", "evaluate", "probability_inside"),
    "exact": ("cross_validate", "exact_solution"),
    "variants": ("enumerate_intersections", "filtered_equivalence"),
}
SPAN_BASES = ("op",) + tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)
SUBCOMMANDS = ("count", "solve", "exact", "wavefn", "variants", "curves")
VARIANT_KINDS = ("sin", "abs-sin", "neg-sin", "correct")


class Tracer:
    """Records spans of one process into a list kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counters = defaultdict(int)
        self.serialized = array("d")

    def install(self) -> None:
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"semiwell.{modname}")
            for name in names:
                original = getattr(mod, name)
                wrapped = self._wrap(f"{modname}.{name}", original)
                for other in list(sys.modules.values()):
                    owner = getattr(other, "__name__", "")
                    if owner.split(".")[0] == "semiwell" and getattr(other, name, None) is original:
                        setattr(other, name, wrapped)

    def _wrap(self, name, fn):
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters
        serialized = self.serialized
        tracer = self

        def label(args, kwargs):
            if name == "cli.run":
                argv = args[0] if args else kwargs.get("argv")
                return f"{name}:{argv[0] if argv else ''}"
            if name == "variants.enumerate_intersections":
                kind = args[0] if args else kwargs["kind"]
                return f"{name}:{kind.value}"
            return name

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label(args, kwargs), t0, t1, parent, tracer.op)
            if name == "solver.newton_solve":
                counters["newton_calls"] += 1
                counters["newton_iters"] += len(result[1].iterates) - 1
                counters["fallbacks"] += result[1].fallback_bisections
            elif name == "variants.enumerate_intersections":
                counters["crossings"] += result.n_total
            elif name == "output.serialize":
                serialized.append(len(result))
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(("op", time.perf_counter(), None, -1, op))

    def end_op(self) -> None:
        idx = self.stack.pop()
        name, t0, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, t0, time.perf_counter(), parent, op)

    def take(self) -> tuple[list, dict, list]:
        """Spans, counters and serialized sizes since the last call."""
        spans, counters, sizes = list(self.spans), dict(self.counters), list(self.serialized)
        self.spans.clear()
        self.counters.clear()
        del self.serialized[:]
        return spans, counters, sizes


def profile_counts(profile, semiwell) -> dict[str, int]:
    """Calls of the inner functions, from a cProfile.Profile."""
    codes = {
        semiwell.dimensionless.WellStrength.__post_init__.__code__: "validations",
        semiwell.dimensionless.residual_interval.__code__: "residual_interval",
        semiwell.variants.variant_residual.__code__: "variant_residual",
    }
    counts = dict.fromkeys(codes.values(), 0)
    for entry in profile.getstats():
        key = codes.get(entry.code)
        if key:
            counts[key] += entry.callcount
    return counts


def import_metrics(samples: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over fresh processes of parse_importtime() plus a "modules" count."""
    return {
        "import.semiwell_ms": (statistics.median(s["semiwell_ms"] for s in samples), "ms"),
        "import.scipy_ms": (statistics.median(s["scipy_ms"] for s in samples), "ms"),
        "import.modules_loaded": (statistics.median(s["modules"] for s in samples), "count"),
    }


def parse_importtime(text: str) -> dict[str, float]:
    """semiwell's and scipy's cumulative import time from -X importtime."""
    semiwell_us = 0.0
    scipy = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = float(parts[1])
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        if module == "semiwell":
            semiwell_us = cumulative
        elif module == "scipy" or module.startswith("scipy."):
            scipy.append((depth, cumulative))
    top = min((d for d, _ in scipy), default=0)
    return {
        "semiwell_ms": semiwell_us / 1e3,
        "scipy_ms": sum(c for d, c in scipy if d == top) / 1e3,
    }


class Aggregate:
    """Per-layer totals over the traced rounds of a run."""

    def __init__(self) -> None:
        self.durations = defaultdict(lambda: array("d"))
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.round0 = defaultdict(int)
        self.profile = defaultdict(int)
        self.serialized = array("d")
        self.op_times = array("d")
        self.sample: list = []

    def fold(self, spans, counters, sizes, profile: dict | None, first_round: bool) -> None:
        """Add one operation's spans.  The first round only gives counts."""
        if first_round:
            for key, value in counters.items():
                self.round0[key] += value
            for key, value in (profile or {}).items():
                self.profile[key] += value
            return
        if not self.sample:
            self.sample = spans
        children = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                children[parent] += t1 - t0
        for idx, (name, t0, t1, parent, _) in enumerate(spans):
            duration = t1 - t0
            self.durations[name].append(duration)
            self.self_time[name.split(":")[0]] += duration - children[idx]
            if name == "op":
                self.op_times.append(duration)
        for key, value in counters.items():
            self.counters[key] += value
        self.serialized.extend(sizes)

    def metrics(self) -> dict[str, tuple[float, str]]:
        def median(name: str, scale: float) -> float:
            values = self.durations.get(name)
            return statistics.median(values) * scale if values else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        ops = len(self.op_times)
        out = {}
        for sub in SUBCOMMANDS:
            out[f"cli.run.{sub}_ms"] = (median(f"cli.run:{sub}", 1e3), "ms")
        out["output.serialize_ms"] = (median("output.serialize", 1e3), "ms")
        out["output.serialized_kb"] = (
            statistics.fmean(self.serialized) / 1024.0 if self.serialized else 0.0,
            "KiB",
        )
        out["output.emit_curves_ms"] = (median("output.emit_curves", 1e3), "ms")
        c, r0, prof = self.counters, self.round0, self.profile
        out["solver.solve_all_ms"] = (median("solver.solve_all", 1e3), "ms")
        out["solver.newton_solve_us"] = (median("solver.newton_solve", 1e6), "us")
        out["solver.newton_iters_per_band"] = (ratio(c["newton_iters"], c["newton_calls"]), "count")
        out["solver.fallback_bisections_per_band"] = (ratio(c["fallbacks"], c["newton_calls"]), "count")
        out["solver.count_bound_states_us"] = (median("solver.count_bound_states", 1e6), "us")
        out["dimensionless.validations_per_state"] = (ratio(prof["validations"], r0["newton_calls"]), "count")
        out["dimensionless.residual_evals_per_band"] = (
            ratio(prof["residual_interval"], r0["newton_calls"]),
            "count",
        )
        out["wavefunction.build_us"] = (median("wavefunction.build_wavefunction", 1e6), "us")
        out["wavefunction.evaluate_us"] = (median("wavefunction.evaluate", 1e6), "us")
        out["wavefunction.probability_inside_us"] = (median("wavefunction.probability_inside", 1e6), "us")
        out["exact.cross_validate_ms"] = (median("exact.cross_validate", 1e3), "ms")
        for kind in VARIANT_KINDS:
            out[f"variants.enumerate.{kind}_ms"] = (
                median(f"variants.enumerate_intersections:{kind}", 1e3),
                "ms",
            )
        out["variants.residual_evals_per_crossing"] = (
            ratio(prof["variant_residual"], r0["crossings"]),
            "count",
        )
        out["variants.filtered_equivalence_ms"] = (median("variants.filtered_equivalence", 1e3), "ms")
        out["trace.op_p50_ms"] = (statistics.median(self.op_times) * 1e3 if ops else 0.0, "ms")
        for base in SPAN_BASES:
            out[f"self.{base}_ms"] = (ratio(self.self_time[base], ops) * 1e3, "ms")
        return out
