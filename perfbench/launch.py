"""Run one CLI command in a fresh process, with spans or an injected fault.

    python3 perfbench/launch.py [--trace PATH] [--inject-fault] -- ARGS...

With --trace the import of `fibonomial.cli` and the call to its `main` are
spans, the package's functions are wrapped as in the in-process worker,
and the span summary is written to PATH as JSON before the process exits
with the command's exit code.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, args = argv[:sep], argv[sep + 1:]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    sys.path.insert(0, HERE)
    import tracing
    import worker

    rec = tracing.Recorder()
    rec.enter("cli.import")
    worker.use_checkout_source()
    import fibonomial.cli as cli
    rec.exit()
    if trace_path:
        tracing.install(rec)
    if "--inject-fault" in opts:
        worker.inject_fault()
    rec.enter(tracing.ROOT)
    try:
        code = cli.main(args)
    finally:
        rec.exit()
        if trace_path:
            tracing.read_caches(rec)
            sys.stdout.flush()
            with open(trace_path, "w", encoding="ascii") as fh:
                json.dump(rec.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
