"""Benchmark for semiwell: one command, four workloads.

    python3 bench/run.py --workload deep-spectrum --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; semiwell is imported from ./src.
Each run builds its seeded inputs and their mpmath reference answers, times
set-up (fresh processes that import semiwell), then runs whole rounds of
operations in a closed loop with one client until --seconds have passed
and at least 40 operations are done.  Every operation's output is checked
against the reference.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 the per-layer metrics of a traced run.  The last line of
stdout is one JSON object; a copy and, when traced, a span sample go to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3  # set-up is measured this many times per run; the median is reported
MIN_OPS = 40  # the floor that gives op_p90_ms at least four samples above it


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def end_to_end(times: list[float], setups: list[float], rss_kb: int) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }


def tally(ops, problems: list[list[tuple[str, str]]], rounds: int, mismatches: list[int]):
    """attempted, failed, and whether every failure is a known fault.

    An operation fails when any check fails; the failure is a known fault
    only when every failed check is one at which the op's fault shows.
    """
    import workloads

    failed = 0
    correct = True
    for op, bad, changed in zip(ops, problems, mismatches):
        if bad:
            failed += rounds
            unexpected = workloads.unexpected(op, bad)
            if unexpected:
                correct = False
                print(f"unexpected failure: {unexpected[:3]}", file=sys.stderr)
        else:
            failed += changed
        if changed:
            correct = False
            print(f"output changed between identical calls: {op.args}", file=sys.stderr)
    return rounds * len(ops), failed, correct


# ------------------------------------------------------------ in-process


def run_in_process(name: str, ops, seconds: float, trace: bool, tag: str):
    import tracing
    import workloads

    stderr_path = os.path.join(OUT, f"{tag}.stderr")
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [os.path.join(HERE, "worker.py")]
    setups, imports = [], []
    for attempt in range(SETUPS):
        with open(stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True
            )
            ready = proc.stdout.readline().split()
            setups.append(time.perf_counter() - t0)
            if len(ready) != 3 or ready[0] != "ready" or not ready[2].startswith(SRC + os.sep):
                proc.kill()
                proc.wait()
                sys.exit(f"worker did not start on ./src: {ready}; see {stderr_path}")
            if attempt < SETUPS - 1:
                proc.stdin.close()
                proc.wait()
            else:
                job = {
                    "workload": name,
                    "ops": [op.args for op in ops],
                    "grid": list(workloads.PSI_GRID),
                    "seconds": seconds,
                    "min_ops": MIN_OPS,
                    "trace": trace,
                }
                out, _ = proc.communicate(json.dumps(job) + "\n")
        if trace:
            with open(stderr_path) as fh:
                sample = tracing.parse_importtime(fh.read())
            sample["modules"] = int(ready[1])
            imports.append(sample)
    if proc.returncode != 0:
        sys.exit(f"worker exited with {proc.returncode}; see {stderr_path}")
    *rounds, result = [json.loads(line) for line in out.splitlines()]
    times = [t for round_times in rounds for t in round_times]
    check = workloads.check_graphical_op if name == "graphical" else workloads.check_spectrum_op
    problems = [check(op, output) for op, output in zip(ops, result["outputs"])]
    attempted, failed, correct = tally(ops, problems, result["rounds"], result["mismatches"])
    if trace:
        metrics = {**tracing.import_metrics(imports), **result["trace"]["metrics"]}
        sample = result["trace"]["sample"]
    else:
        metrics = end_to_end(times, setups, result["maxrss_kb"])
        sample = None
    return attempted, failed, correct, metrics, sample


# -------------------------------------------------------------- cli-cold


def run_cli(ops, seconds: float, trace: bool, tag: str):
    import tracing
    import workloads

    stderr_path = os.path.join(OUT, f"{tag}.stderr")
    trace_path = os.path.join(OUT, f"{tag}.child-spans.json")
    aggregate = tracing.Aggregate()
    imports: list[dict] = []

    def invoke(argv, traced: bool, round_no: int = 0, op_id: int = 0):
        if traced:
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_shim.py")]
            cmd += ["--trace-out", trace_path, "--profile", "1" if round_no == 0 else "0", "--op", str(op_id), "--"]
        else:
            cmd = [sys.executable, "-m", "semiwell"]
        with open(stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd + argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
            )
            t1 = time.perf_counter()
        return t0, t1, proc.returncode, proc.stdout

    # set-up: the first call of the cycle, kept out of the per-call numbers
    setups = []
    for _ in range(SETUPS):
        t0, t1, code, _ = invoke(ops[0].args, False)
        if code != 0:
            sys.exit(f"semiwell did not run from ./src; see {stderr_path}")
        setups.append(t1 - t0)

    times, first, mismatches = [], [], [0] * len(ops)
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            op_id = rounds * len(ops) + i
            t0, t1, code, stdout = invoke(op.args, trace, rounds, op_id)
            times.append(t1 - t0)
            if rounds == 0:
                first.append((code, stdout))
            elif (code, stdout) != first[i]:
                mismatches[i] += 1
            if trace:
                imports.append(_fold_cli_trace(aggregate, trace_path, stderr_path, t0, t1, op_id, rounds == 0))
        rounds += 1
        if time.perf_counter() - start >= seconds and len(times) >= MIN_OPS and (rounds >= 2 or not trace):
            break

    problems = [workloads.check_cli_op(op, code, out.decode()) for op, (code, out) in zip(ops, first)]
    attempted, failed, correct = tally(ops, problems, rounds, mismatches)
    if trace:
        metrics = {**tracing.import_metrics(imports), **aggregate.metrics()}
        return attempted, failed, correct, metrics, aggregate.sample
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return attempted, failed, correct, end_to_end(times, setups, rss_kb), None


def _fold_cli_trace(aggregate, trace_path, stderr_path, t0, t1, op_id, first_round) -> dict:
    """Fold one traced call's spans into aggregate; return its import sample."""
    import tracing

    with open(trace_path) as fh:
        child = json.load(fh)
    os.remove(trace_path)
    with open(stderr_path) as fh:
        sample = tracing.parse_importtime(fh.read())
    sample["modules"] = child["modules"]
    # the child's top-level spans hang under one op span for the whole process
    spans = [("op", t0, t1, -1, op_id)]
    spans += [(name, a, b, parent + 1, op_id) for name, a, b, parent, _ in child["spans"]]
    aggregate.fold(spans, child["counters"], child["sizes"], child["profile"], first_round)
    return sample


# ------------------------------------------------------------------ main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli-cold", "deep-spectrum", "shallow-wells", "graphical"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "semiwell", "__init__.py")):
        print(f"error: no semiwell sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.GENERATORS[args.workload](args.seed)
    if args.workload == "cli-cold":
        attempted, failed, correct, metrics, sample = run_cli(ops, args.seconds, bool(args.trace), tag)
    else:
        attempted, failed, correct, metrics, sample = run_in_process(
            args.workload, ops, args.seconds, bool(args.trace), tag
        )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>14} {name:<40} {value:>14.6g} {unit}")
    print(f"{args.workload:>14} attempted {attempted}, failed {failed}, correct {correct}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if sample is not None:
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": sample}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
