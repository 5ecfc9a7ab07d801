"""Run one semiwell CLI call under the tracer, in a fresh process.

    python3 -X importtime bench/cli_shim.py --trace-out PATH --profile 0|1 --op N -- <semiwell args>

Stdout and the exit status are those of ``python -m semiwell <args>``.
The spans, counters and (with --profile 1) cProfile call counts of the call
go to PATH as JSON; -X importtime writes the import times to stderr.
"""

import sys


def main() -> int:
    split = sys.argv.index("--")
    opts = dict(zip(sys.argv[1:split:2], sys.argv[2:split:2]))
    cli_args = sys.argv[split + 1 :]

    before = len(sys.modules)
    import semiwell

    modules_added = len(sys.modules) - before
    import semiwell.cli
    import cProfile
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = int(opts["--op"])
    profile = cProfile.Profile() if opts["--profile"] == "1" else None
    if profile:
        profile.enable()
    code = semiwell.cli.run(cli_args)
    if profile:
        profile.disable()
    sys.stdout.flush()
    spans, counters, sizes = tracer.take()
    with open(opts["--trace-out"], "w") as fh:
        json.dump(
            {
                "spans": spans,
                "counters": counters,
                "sizes": sizes,
                "profile": tracing.profile_counts(profile, semiwell) if profile else None,
                "modules": modules_added,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
