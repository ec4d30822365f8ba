"""In-process op server: runs CLI commands through `fibonomial.cli.main`.

The harness starts one worker per round of a pass and sends it one JSON line
per op on stdin; the worker answers with one JSON line on the stdout it
started with. Caches are cleared before each op, outside the timed region,
so each op starts as cold as a fresh CLI process. When tracing, a sweep's
reply also says how many pairs it compared in this process and which row
spans it was cut into. The last request,
`{"finish": true}`, returns the worker's peak RSS (its own, and that of the
pool processes it waited for) and, when tracing, the span summary.

    python3 perfbench/worker.py [--trace] [--inject-fault]
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def use_checkout_source() -> None:
    """Import the package from the checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    import fibonomial

    if os.path.dirname(os.path.abspath(fibonomial.__file__)) != os.path.join(SRC, "fibonomial"):
        raise ImportError(f"fibonomial imported from {fibonomial.__file__}, not {SRC}")


def inject_fault() -> None:
    """Make the CLI give wrong answers, to prove the checks catch them."""
    import fibonomial.cli as cli
    from fibonomial.conjecture import ConjectureVerdict

    emit, render, verify = cli._emit, cli.render, cli.verify_conjecture

    def wrong_emit(args, value, payload):
        emit(args, value + 1 if isinstance(value, int) else value, payload)

    def wrong_render(spec):
        doc = render(spec)
        return doc[:-2] + ("1" if doc[-2] != "1" else "2") + doc[-1]

    def wrong_verify(profile, rows, **kwargs):
        record = verify(profile, rows, **kwargs)
        fake = ConjectureVerdict.compare(profile.p, 0, 0, True, False)
        return dataclasses.replace(record, counterexamples=(fake,))

    cli._emit, cli.render, cli.verify_conjecture = wrong_emit, wrong_render, wrong_verify


def peak_rss_kb() -> dict:
    return {"self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def serve(trace: bool, inject: bool) -> None:
    use_checkout_source()
    import fibonomial.cli as cli
    import tracing

    rec = None
    if trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    if inject:
        inject_fault()
    reply = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("finish"):
            out = {"rss": peak_rss_kb(), "trace": rec.summary() if rec else None}
            reply.write(json.dumps(out) + "\n")
            reply.flush()
            return
        tracing.clear_caches()
        if rec:
            pairs_before = rec.counters["conjecture.pairs"]
            rec.last_chunks = None
        out_buf, err_buf = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            start = time.perf_counter()
            if rec:
                rec.enter(tracing.ROOT)
            try:
                code = cli.main(request["argv"])
            except Exception:  # a crash is a failed op, reported to the harness
                code, error = None, traceback.format_exc()
            finally:
                if rec:
                    rec.exit()
            seconds = time.perf_counter() - start
        out = {"code": code, "seconds": seconds, "error": error,
               "stdout": out_buf.getvalue(), "stderr": err_buf.getvalue()}
        if rec:
            tracing.read_caches(rec)
            rec.add("cli.bytes_out", len(out_buf.getvalue()))
            # What the sweep did, for the checks: the pairs this process
            # compared, and the row spans the sweep was cut into.
            out["pairs"] = rec.counters["conjecture.pairs"] - pairs_before
            out["chunks"] = rec.last_chunks
        reply.write(json.dumps(out) + "\n")
        reply.flush()


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    serve(trace="--trace" in sys.argv[1:], inject="--inject-fault" in sys.argv[1:])
