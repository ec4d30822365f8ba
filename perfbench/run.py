"""Benchmark of the fibonomial package: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,sweep-par,queries,triangle}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
Each workload is a closed loop with one client that sends seeded CLI
commands, in whole rounds of a fixed mix, until S seconds of commands
have been measured (untraced sweep runs: at least two rounds).
`sweep`, `sweep-par` and `triangle` call `fibonomial.cli.main` in a
worker process; `queries` starts a fresh `python -m fibonomial` per
command. Every output is checked against `oracle`, an independent
computation. The human-readable report goes to stdout; its last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics (from a
separate traced pass) with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep", "sweep-par", "queries", "triangle")
GENERATED_ROUNDS = 10
SETUP_PROBES = 15
# Per-op deadlines in seconds. Each sits far above the slowest normal op
# of its class; a failed op enters the latency percentiles at its deadline.
DEADLINE = {"sweep": 60.0, "triangle": 30.0,
            "fibonomial_mod": 20.0, "entry_point": 3.0, "entry_point_big": 3.0}
QUERY_DEADLINE = 5.0
# Untraced runs measure at least this many rounds. A sweep round is 18
# commands and its median is the mean of the two in the middle size
# stratum; on a shared machine one command's time can vary by a third
# between runs, so one round of about 20 s leaves the median and the
# rate too noisy. A second round of sweep-par (about 12 s a round) did
# not make it measurably steadier, and the time it cost is needed to
# keep the whole benchmark's runs within budget.
MEASURED_ROUNDS = {"sweep": 2}
WALL_CAP = 140.0  # stop starting rounds after this much wall time in one pass


def deadline(op) -> float:
    if op.cls == "sweep":
        return DEADLINE["sweep"]
    if op.argv[0] == "triangle":
        return DEADLINE["triangle"]
    return DEADLINE.get(op.cls, QUERY_DEADLINE)


class OpResult:
    def __init__(self, op, seconds: float, status: str, stdout: str = ""):
        self.op, self.seconds, self.status = op, seconds, status
        self.stdout_bytes = len(stdout)

    @property
    def latency(self) -> float:
        """Seconds, with a failed op counted at its deadline."""
        return self.seconds if self.status == "ok" else max(self.seconds, deadline(self.op))


class Pass:
    """One measured pass over a prefix of the op list."""

    def __init__(self):
        self.results: list[OpResult] = []
        self.rss_kb = 0
        self.traces: list[dict] = []

    @property
    def busy(self) -> float:
        return sum(r.seconds for r in self.results)


# --- in-process ops -------------------------------------------------------

class Worker:
    """A `worker.py` process; ops go in as JSON lines, results come back."""

    def __init__(self, trace: bool, inject: bool):
        cmd = [sys.executable, os.path.join(HERE, "worker.py")]
        cmd += ["--trace"] * trace + ["--inject-fault"] * inject
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=OUT, start_new_session=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def call(self, request: dict, timeout: float) -> dict | None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            return None
        return json.loads(line) if line else None

    def finish(self) -> dict | None:
        out = self.call({"finish": True}, timeout=60.0)
        self.stop()
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdin.close()
        self.proc.stdout.close()


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    finally:
        if os.path.exists(path):
            os.remove(path)


def _in_process(ops, stop, trace: bool, inject: bool, round_ops: int) -> Pass:
    """Each round gets a fresh worker, so peak RSS is a round's, however many run."""
    result = Pass()
    worker = None

    def finish(worker: Worker) -> None:
        final = worker.finish()
        if final:
            result.rss_kb = max(result.rss_kb, final["rss"]["self_kb"],
                                final["rss"]["children_kb"])
            if final["trace"]:
                result.traces.append(final["trace"])

    for i, op in enumerate(ops):
        if stop(i, result):
            break
        if i % round_ops == 0:
            if worker is not None:
                finish(worker)
            worker = Worker(trace, inject)
        out_path = os.path.join(OUT, "op.out")
        reply = worker.call({"argv": op.argv + ["--out", out_path]}, deadline(op))
        if reply is None:  # missed its deadline or died: replace the worker
            worker.stop()
            worker = Worker(trace, inject)
            _read_text(out_path)
            result.results.append(OpResult(op, deadline(op), "fail"))
            continue
        text = _read_text(out_path)
        code = reply["code"] if reply["error"] is None else None
        if op.cls == "sweep":
            status = checks.check_sweep(op, code, reply["stdout"], text,
                                        reply if trace else None)
        else:
            status = checks.check_triangle(op, code, reply["stderr"], text)
        result.results.append(OpResult(op, reply["seconds"], status, reply["stdout"]))
    if worker is not None:
        finish(worker)
    return result


# --- fresh-process ops ----------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(cmd: list[str], timeout: float) -> tuple:
    """(exit code, stdout, stderr, seconds, timed_out, peak RSS kB) of one process."""
    out_path, err_path = os.path.join(OUT, "proc.out"), os.path.join(OUT, "proc.err")
    killed = threading.Event()
    lock = threading.Lock()
    reaped = False
    with open(out_path, "w") as fo, open(err_path, "w") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=OUT, env=_env())

        def kill() -> None:
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed.set()

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        with lock:
            reaped = True
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, _read_text(out_path) or "", _read_text(err_path) or "",
            seconds, killed.is_set(), usage.ru_maxrss)


def _fresh_processes(ops, stop, trace: bool, inject: bool) -> Pass:
    result = Pass()
    trace_path = os.path.join(OUT, "trace.json")
    for i, op in enumerate(ops):
        if stop(i, result):
            break
        expected = checks.expected_query(op)
        if trace or inject:
            cmd = [sys.executable, os.path.join(HERE, "launch.py")]
            cmd += ["--trace", trace_path] * trace + ["--inject-fault"] * inject
            cmd += ["--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "fibonomial", *op.argv]
        code, out, err, seconds, timed_out, rss = run_process(cmd, deadline(op))
        result.rss_kb = max(result.rss_kb, rss)
        status = checks.check_query(op, expected, code, out, err, timed_out)
        result.results.append(OpResult(op, seconds, status, out))
        if trace and os.path.exists(trace_path):
            with open(trace_path, encoding="ascii") as fh:
                result.traces.append(json.load(fh))
            os.remove(trace_path)
    return result


def run_pass(workload: str, ops, *, seconds: float | None = None, count: int | None = None,
             rounds: int = 1, trace: bool = False, inject: bool = False,
             between=None) -> Pass:
    """Run ops in order: whole rounds, at least `rounds`, until `seconds` of ops;
    or exactly `count` ops.

    `between(i)`, if given, is called before op i, outside its timing."""
    round_ops = inputs.ROUND_OPS[workload]
    started = time.perf_counter()

    def done(i: int, result: Pass) -> bool:
        if count is not None:
            return i >= count
        if i % round_ops or i < rounds * round_ops:
            return False
        return result.busy >= seconds or time.perf_counter() - started > WALL_CAP

    def stop(i: int, result: Pass) -> bool:
        if done(i, result):
            return True
        if between is not None:
            between(i)
        return False

    if workload == "queries":
        return _fresh_processes(ops, stop, trace, inject)
    return _in_process(ops, stop, trace, inject, round_ops)


# --- set-up ---------------------------------------------------------------

def median_process_seconds(cmd: list[str], runs: int) -> float:
    times = []
    for _ in range(runs):
        code, _, err, seconds, _, _ = run_process(cmd, timeout=60.0)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {code}: {err.strip()}")
        times.append(seconds)
    return statistics.median(times)


class SetupProbes:
    """`setup_probe.py` in fresh interpreters, spread over the measured pass.

    The machine's speed drifts over tens of seconds, so the probes are
    interleaved with the ops, one before every `every`-th op, and their
    median covers the same stretch of time as the ops do.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                    workload, str(seed), str(GENERATED_ROUNDS)]
        self.every = max(1, inputs.ROUND_OPS[workload] // SETUP_PROBES)
        self.seconds: list[float] = []

    def probe(self) -> None:
        code, out, err, _, _, _ = run_process(self.cmd, timeout=60.0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.strip()}")
        self.seconds.append(float(out))

    def between(self, i: int) -> None:
        if i % self.every == 0:
            self.probe()

    def median(self) -> float:
        while len(self.seconds) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.seconds)


# --- metrics --------------------------------------------------------------

WORK_UNIT = {"sweep": "pairs", "sweep-par": "pairs", "triangle": "cells", "queries": "queries"}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, run: Pass, setup: SetupProbes) -> tuple[dict, list[str]]:
    results = run.results
    done = sum(r.op.work for r in results if r.status == "ok")
    latencies = [1000 * r.latency for r in results]
    n = len(latencies)
    setup_s = setup.median()
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (done / run.busy, "items/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (run.rss_kb / 1024, "MB"),
    }
    # The tail is printed, not bounded: with 18 or 36 sweeps or 80 renders a run
    # has fewer than ten samples beyond p90, and on a shared two-core machine
    # it moved by up to a quarter of its median between seeds.
    p90 = _percentile(latencies, 90)
    unit = WORK_UNIT[workload]
    rate_name = "queries_per_s" if unit == "queries" else f"{unit}_per_s"
    rate_unit = "1/s" if unit == "queries" else f"{unit}/s"
    beyond = n - int(0.9 * n)
    lines = [
        f"{workload} setup_s {setup_s:.4f} s (median of {len(setup.seconds)} fresh interpreters)",
        f"{workload} items_per_s {done / run.busy:.2f} items/s "
        f"({done} {unit} in {run.busy:.2f} s of ops)",
        f"{workload} {rate_name} {done / run.busy:.2f} {rate_unit}",
        f"{workload} op_p50_ms {metrics['op_p50_ms'][0]:.2f} ms (n={n})",
        f"{workload} op_p90_ms {p90:.2f} ms (n={n}, {beyond} beyond)",
    ]
    if workload == "queries":
        lines += [f"queries query_p50_ms {metrics['op_p50_ms'][0]:.2f} ms (n={n})",
                  f"queries query_p90_ms {p90:.2f} ms (n={n}, {beyond} beyond)"]
    fails = [r for r in results if r.status != "ok"]
    lines += [
        f"{workload} peak_rss_mb {run.rss_kb / 1024:.2f} MB",
        f"{workload} fail_ratio {len(fails) / n:.4f} ({len(fails)} of {n}; "
        f"{sum(r.status == 'defect' for r in fails)} are known defects)",
    ]
    for cls in sorted({r.op.cls for r in results}):
        mine = [r for r in results if r.op.cls == cls]
        ms = [1000 * r.latency for r in mine]
        lines.append(f"{workload} class {cls}: n={len(mine)} p50={statistics.median(ms):.1f} ms "
                     f"max={max(ms):.1f} ms failed={sum(r in fails for r in mine)}")
    return metrics, lines


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _importtime_ms() -> tuple[float, float]:
    """Median cumulative import time of fibonomial.cli and of the process pool module."""
    cli_ms, pool_ms = [], []
    for _ in range(SETUP_PROBES):
        code, _, err, _, _, _ = run_process(
            [sys.executable, "-X", "importtime", "-c", "import fibonomial.cli"], 60.0)
        if code != 0:
            raise RuntimeError(f"importing fibonomial.cli failed: {err.strip()}")
        cumulative = {}
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1000
        cli_ms.append(cumulative["fibonomial.cli"])
        pool_ms.append(cumulative.get("concurrent.futures.process", 0.0))
    return statistics.median(cli_ms), statistics.median(pool_ms)


# The roadmap's baseline commands; every traced run re-derives all of them,
# so no baseline reads as a constant zero on some workload.
BASELINES = {
    "verify_p7_r500_j1_s": ["verify", "--prime", "7", "--rows", "500", "--jobs", "1"],
    "verify_p7_r1000_j1_s": ["verify", "--prime", "7", "--rows", "1000", "--jobs", "1"],
    "verify_p7_r500_j2_s": ["verify", "--prime", "7", "--rows", "500", "--jobs", "2"],
    "verify_p7_r1000_j2_s": ["verify", "--prime", "7", "--rows", "1000", "--jobs", "2"],
    "triangle_r1000_mod5_pgm_s": ["triangle", "--rows", "1000", "--mod", "5", "--format", "pgm"],
    "entry_point_1000003_s": ["entry-point", "1000003"],
}


def baselines() -> dict:
    """Wall time of each baseline command as a fresh CLI process."""
    out = {}
    for name, argv in BASELINES.items():
        if argv[0] in ("verify", "triangle"):
            argv = argv + ["--out", os.path.join(OUT, "baseline.out")]
        code, _, err, seconds, _, _ = run_process(
            [sys.executable, "-m", "fibonomial", *argv], 60.0)
        if code != 0:
            raise RuntimeError(f"baseline {name} exited {code}: {err.strip()}")
        out[name] = seconds
        _read_text(os.path.join(OUT, "baseline.out"))
    return out


QUERY_FAIL = [f"queries.fail.{c}" for c in inputs.QUERY_CLASSES]
TRIANGLE_FAIL = [f"triangle.fail.{c}" for c in ("mod", "exact_json", "exact_ascii")]
BASELINE_NAMES = [f"baseline.{n}" for n in BASELINES]


def per_layer(workload: str, traced: Pass, plain: Pass, serial: Pass | None,
              extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, and the merged span summary."""
    t = tracing.merge(traced.traces)
    total, count, c = t["total"], t["count"], t["counters"]
    edges = {(a, b): n for a, b, n in t["edges"]}
    pairs = c.get("conjecture.pairs", 0)
    sweeps, pool = c.get("conjecture.sweeps", 0), c.get("conjecture.pool_sweeps", 0)
    stdout_bytes = sum(r.stdout_bytes for r in traced.results) if workload == "queries" else 0
    m = {
        "cli.interp_ms": extra["interp_ms"],
        "cli.import_ms": extra["import_ms"],
        "cli.import_pool_ms": extra["import_pool_ms"],
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.bytes_out": c.get("cli.bytes_out", 0) + stdout_bytes,
        "core.row_recurrence_s": total.get("core.row_recurrence", 0.0),
        "core.row_cells": c.get("core.row_cells", 0),
        "core.cells_used_ratio": _ratio(c.get("core.cells_needed", 0), c.get("core.row_cells", 0)),
        "core.fib_mod_s": total.get("core.fib_mod", 0.0),
        "core.fib_s": total.get("core.fib", 0.0),
        "core.fibonomial_exact_s": total.get("core.fibonomial_exact", 0.0),
        "radix.expand_base_fp_s": total.get("radix.expand_base_fp", 0.0),
        "radix.expand_calls_per_pair": _ratio(
            edges.get(("conjecture.sweep_rows", "radix.expand_base_fp"), 0)
            + edges.get(("radix.add_with_carries", "radix.expand_base_p"), 0), pairs),
        "radix.add_with_carries_s": total.get("radix.add_with_carries", 0.0),
        "radix.carry_columns_per_pair": _ratio(c.get("radix.carry_columns", 0),
                                               count.get("radix.add_with_carries", 0)),
        "valuation.carry_valuation_s": total.get("valuation.carry_valuation", 0.0),
        "valuation.fibotorial_valuations_s": total.get("valuation.fibotorial_valuations", 0.0),
        "valuation.oracle_checks": c.get("valuation.prefix_lookups", 0) / 3,
        "valuation.entry_point_s": total.get("valuation.entry_point", 0.0),
        "valuation.is_prime_s": total.get("valuation.is_prime", 0.0),
        "valuation.entry_point_cache_hit_ratio": _ratio(
            c.get("entry_point.hits", 0), c.get("entry_point.hits", 0) + c.get("entry_point.misses", 0)),
        "conjecture.digit_product_s": total.get("conjecture.digit_product", 0.0),
        "conjecture.digit_cache_hit_ratio": _ratio(
            c.get("digit_cache.hits", 0), c.get("digit_cache.hits", 0) + c.get("digit_cache.misses", 0)),
        "conjecture.pairs": pairs,
        "conjecture.lhs_divisible": c.get("conjecture.lhs_divisible", 0),
        "conjecture.rhs_divisible": c.get("conjecture.rhs_divisible", 0),
        "conjecture.chunks": _ratio(c.get("conjecture.chunks", 0), sweeps),
        "conjecture.chunk_imbalance": (
            _ratio(c.get("conjecture.chunk_max_pairs", 0), c.get("conjecture.chunk_mean_pairs", 0))
            if pool else float(bool(sweeps))),
        "conjecture.prefix_bytes_sent": _ratio(c.get("conjecture.prefix_bytes_sent", 0), pool),
        "conjecture.parallel_efficiency": (
            _ratio(serial.busy, 2 * plain.busy) if serial is not None else 0.0),
        "render.triangle_rows_s": total.get("render.triangle_rows", 0.0),
        "render.format_s": total.get("render.render", 0.0) - total.get("render.triangle_rows", 0.0),
        "render.bytes": c.get("render.bytes", 0),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in t["self"].items() if k.startswith(layer + "."))
    m["trace.overhead"] = _ratio(traced.busy, plain.busy) - 1
    m["trace.coverage"] = _ratio(t["covered"], traced.busy)
    m["trace.spans"] = sum(count.values())
    m["fail_ratio"] = _ratio(sum(r.status != "ok" for r in plain.results), len(plain.results))
    for name in QUERY_FAIL + TRIANGLE_FAIL:
        kind, _, cls = name.split(".", 2)
        m[name] = (sum(r.status != "ok" and r.op.cls == cls for r in plain.results)
                   if workload == kind else 0)
    for name in BASELINE_NAMES:
        m[name] = extra["baselines"][name.split(".", 1)[1]]
    return {name: (value, unit_of(name)) for name, value in m.items()}, t


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "imbalance", "efficiency", "overhead", "coverage")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


# --- main -----------------------------------------------------------------

def _summary_line(runs: list[Pass], metrics: dict) -> str:
    results = [r for run in runs for r in run.results]
    failed = sum(r.status == "fail" for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    global OUT
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="make the CLI answer wrongly (self-test of the checks)")
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of --seconds (self-tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fibonomial", "cli.py")):
        print(f"error: no package source at {SRC}/fibonomial; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the checks print and parse exact values
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    OUT = work_dir
    try:
        return _measure(args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args) -> int:
    w = args.workload
    ops = inputs.workload_ops(w, args.seed, GENERATED_ROUNDS)
    if not args.trace:
        setup = SetupProbes(w, args.seed)
        run = run_pass(w, ops, seconds=args.seconds, count=args.ops,
                       rounds=MEASURED_ROUNDS.get(w, 1), inject=args.inject_fault,
                       between=setup.between)
        metrics, lines = end_to_end(w, run, setup)
        print("\n".join(lines))
        print(_summary_line([run], metrics))
        return 0
    traced = run_pass(w, ops, seconds=args.seconds, count=args.ops, trace=True,
                      inject=args.inject_fault)
    n = len(traced.results)
    plain = run_pass(w, ops, count=n, inject=args.inject_fault)
    serial = None
    if w == "sweep-par":
        serial = run_pass(w, inputs.sweep_ops(args.seed, GENERATED_ROUNDS, jobs=1), count=n)
    import_ms, pool_ms = _importtime_ms()
    extra = {"interp_ms": 1000 * median_process_seconds([sys.executable, "-c", "pass"], 7),
             "import_ms": import_ms, "import_pool_ms": pool_ms, "baselines": baselines()}
    metrics, summary = per_layer(w, traced, plain, serial, extra)
    spans_path = os.path.join(os.path.dirname(OUT), f"trace-{w}-{args.seed}.json")
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"spans": summary["spans"][:100_000], "fields":
                   ["id", "parent", "name", "start", "end"]}, fh)
    for name, (value, unit) in metrics.items():
        print(f"{w} {name} {value:.6g} {unit}")
    print(f"{w} spans written to {os.path.relpath(spans_path, ROOT)}")
    print(_summary_line([traced, plain] + ([serial] if serial else []), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
