"""Child process that runs the in-process workloads.

Protocol: after ``import semiwell`` the worker prints one line,
``ready <modules added by the import> <semiwell.__file__>``, and reads one
JSON job from stdin.  At end of input it exits at once, which is how the
parent measures set-up.  Otherwise it runs whole rounds of the job's
operations until both the time and the operation floor are reached, and
prints one JSON line per round, the wall times of its operations, and
then one JSON line with the outputs of the first round, how often a later
round's output differed from it, and the peak resident memory.  The times
leave the worker round by round, so its memory does not grow with the
number of operations it runs.  Only the calls into semiwell are timed;
turning the results into plain lists and comparing them happens between
timings.
"""

import sys
import time

sw = None  # semiwell, imported in main() so that set-up can be timed


def deep(args, grid):
    z0 = args["z0"]
    n = sw.count_bound_states(z0)
    states = sw.solve_all(z0)
    specs = [sw.build_wavefunction(s, z0) for s in states]
    probs = [sw.probability_inside(spec) for spec in specs]
    return n, states, specs, probs


def shallow(args, grid):
    n, states, specs, probs = deep(args, grid)
    psi = [[sw.evaluate(spec, x) for x in grid] for spec in specs]
    xval = sw.cross_validate(args["n"]) if args["n"] is not None else None
    return n, states, specs, probs, psi, xval


def graphical(args, grid):
    z0 = args["z0"]
    kinds = {
        kind.value: (sw.enumerate_intersections(kind, z0), sw.filtered_equivalence(kind, z0))
        for kind in sw.VariantKind
    }
    curves = {kind.value: sw.emit_curves(z0, kind) for kind in sw.CurveKind}
    return kinds, curves


def plain_spectrum(raw):
    n, states, specs, probs = raw[:4]
    out = {
        "n": n,
        "states": [
            [s.m, s.z, s.z_tilde, s.energy_ratio, spec.amplitude, p]
            for s, spec, p in zip(states, specs, probs)
        ],
    }
    if len(raw) > 4:
        out["psi"] = raw[4]
        out["xval"] = raw[5]
    return out


def plain_graphical(raw):
    kinds, curves = raw
    return {
        "kinds": {
            kind: {
                "crossings": [[i.z, i.spurious] for i in report.intersections],
                "equiv": equiv,
            }
            for kind, (report, equiv) in kinds.items()
        },
        "curves": {kind: [list(p) for p in points] for kind, points in curves.items()},
    }


OPS = {
    "deep-spectrum": (deep, plain_spectrum),
    "shallow-wells": (shallow, plain_spectrum),
    "graphical": (graphical, plain_graphical),
}


def run(job, emit):
    fn, plain = OPS[job["workload"]]
    ops, grid = job["ops"], job["grid"]
    trace = job["trace"]
    import cProfile
    import resource

    tracer = aggregate = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        aggregate = tracing.Aggregate()
    clock = time.perf_counter
    times, first, mismatches = [0.0] * len(ops), [], [0] * len(ops)
    rounds = 0
    start = clock()
    while True:
        profile = cProfile.Profile() if trace and rounds == 0 else None
        for i, args in enumerate(ops):
            if tracer:
                tracer.begin_op(rounds * len(ops) + i)
            if profile:
                profile.enable()
            t0 = clock()
            raw = fn(args, grid)
            t1 = clock()
            if profile:
                profile.disable()
            if tracer:
                tracer.end_op()
                spans, counters, sizes = tracer.take()
                counts = tracing.profile_counts(profile, sw) if profile else None
                aggregate.fold(spans, counters, sizes, counts, rounds == 0)
                if profile:
                    profile = cProfile.Profile()
            times[i] = t1 - t0
            out = plain(raw)
            if rounds == 0:
                first.append(out)
            elif out != first[i]:
                mismatches[i] += 1
        emit(times)
        rounds += 1
        if (
            clock() - start >= job["seconds"]
            and rounds * len(ops) >= job["min_ops"]
            and (rounds >= 2 or not trace)
        ):
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rounds": rounds,
        "outputs": first,
        "mismatches": mismatches,
        "maxrss_kb": maxrss_kb,
    }
    if trace:
        result["trace"] = {
            "metrics": aggregate.metrics(),
            "sample": aggregate.sample,
        }
    return result


def main():
    global sw
    before = len(sys.modules)
    import semiwell

    sw = semiwell
    print(f"ready {len(sys.modules) - before} {semiwell.__file__}", flush=True)
    import json

    line = sys.stdin.readline()
    if not line:
        return

    def emit(obj):
        json.dump(obj, sys.stdout)
        sys.stdout.write("\n")

    emit(run(json.loads(line), emit))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
