"""One filterlab CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py SPEC.json RESULT.json

SPEC holds ``argv`` (the CLI arguments), ``config`` (the experiment JSON
the arguments name, or null), ``src`` (the directory filterlab must be
imported from) and ``trace`` (wrap the package's cross-module calls and
record spans).  RESULT receives the set-up time (import ``filterlab.cli``
and load and validate the config), the command's wall time, the exit code,
the peak resident memory and, when traced, the spans and counters.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)

    from filterlab import cli, config

    if spec["config"] is not None:
        config.load_config(spec["config"])
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"filterlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 97

    import tracing

    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    t1 = time.perf_counter()
    if tracer is None:
        code = cli.main(spec["argv"])
    else:
        code = tracer.call("cli.main", cli.main, (spec["argv"],), {})
    wall_s = time.perf_counter() - t1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrapped_functions": tracing.wrapped_functions(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
