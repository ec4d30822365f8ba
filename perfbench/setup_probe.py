"""Time what a fresh interpreter pays before a workload's first op.

    python3 perfbench/setup_probe.py WORKLOAD SEED ROUNDS

Imports the benchmark's input generator and `fibonomial.cli`, builds the
CLI parser and generates ROUNDS rounds of the workload's inputs, then
prints the seconds that took. The clock starts once the interpreter is
up, so the interpreter's own start-up (`cli.interp_ms` in the traced
run) stays out of the figure.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload: str, seed: int, rounds: int) -> None:
    sys.path.insert(0, HERE)
    import inputs
    import worker

    worker.use_checkout_source()
    import fibonomial.cli as cli

    cli.build_parser()
    inputs.workload_ops(workload, seed, rounds)
    print(f"{time.perf_counter() - START:.9f}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
