import os
import subprocess
import sys
from pathlib import Path

import fibonomial

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    # A name left in __all__ after its removal breaks `from fibonomial import *`.
    assert [name for name in fibonomial.__all__ if not hasattr(fibonomial, name)] == []


def test_benchmark_bindings_resolve():
    # perfbench/tracing.py wraps package functions by name and clears and
    # reads their caches; a library name it binds that goes missing breaks
    # the benchmark without failing any other test.
    code = ("import tracing; rec = tracing.Recorder(); tracing.install(rec); "
            "tracing.clear_caches(); tracing.read_caches(rec)")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
