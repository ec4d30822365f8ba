import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibonomial

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    # A name left in __all__ after its removal breaks `from fibonomial import *`.
    assert [name for name in fibonomial.__all__ if not hasattr(fibonomial, name)] == []


def test_star_import_and_dir_list_every_public_name():
    # Public names resolve on first use. In a fresh interpreter, with the
    # render module imported first (it would otherwise shadow the function
    # of its name on the package), `import *` binds every name in __all__
    # and dir() lists them all.
    code = ("import json, sys, fibonomial, fibonomial.render; "
            "listed = dir(fibonomial); ns = {}; exec('from fibonomial import *', ns); "
            "print(json.dumps([fibonomial.__all__, listed, sorted(set(ns) - {'__builtins__'}), "
            "ns['render'] is sys.modules['fibonomial.render'].render]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=60, check=True)
    names, listed, bound, render_is_function = json.loads(done.stdout)
    assert set(names) <= set(listed) and bound == sorted(names) and render_is_function


VALUE_REPRS = [
    (lambda: fibonomial.TriangleRow(2, (1, 1, 1), 5),
     "TriangleRow(n=2, entries=(1, 1, 1), modulus=5)"),
    (lambda: fibonomial.PrimeProfile(7, 8, 1, fibonomial.Relation.GREATER),
     "PrimeProfile(p=7, p_star=8, nu_p_F_pstar=1, relation=<Relation.GREATER: 'GREATER'>)"),
    (lambda: fibonomial.carry_valuation(26, 31, fibonomial.entry_point(7)),
     "Valuation(exponent=2, method='carry')"),
    (lambda: fibonomial.add_with_carries(5, 3, fibonomial.entry_point(7)),
     "CarryReport(carries_left=0, carry_across=True, digit_sums=(1,))"),
    (lambda: fibonomial.RenderSpec(rows=8, modulus=5),
     "RenderSpec(rows=8, kind='fibonomial', modulus=5, format='ascii')"),
]


@pytest.mark.parametrize("make, text", VALUE_REPRS,
                         ids=[text.partition("(")[0] for _, text in VALUE_REPRS])
def test_value_types_compare_hash_and_read_as_before(make, text):
    # Equal values compare and hash equal, no field can be set, and the repr
    # text is unchanged.
    value, twin = make(), make()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert repr(value) == text
    for field in (text.partition("(")[2].partition("=")[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    if isinstance(value, fibonomial.PrimeProfile):
        assert value == fibonomial.entry_point(7) and value.to_json() == {"p": 7, "p_star": 8, "nu_p_F_pstar": 1,
                                   "relation": "GREATER"}


def test_benchmark_bindings_resolve(tmp_path):
    # perfbench/tracing.py wraps package functions by name and clears and
    # reads their caches; a library name it binds that goes missing breaks
    # the benchmark without failing any other test. One command of each
    # class the benchmark issues then runs through the wrappers, which
    # catches a hook that resolves at install but breaks when it is called.
    commands = [
        (["fibonomial", "50", "7", "--mod", "10"], 0),
        (["fibonomial", "30", "7"], 0),
        (["valuation", "57", "26", "--prime", "7"], 0),
        (["valuation", "57", "26", "--prime", "7", "--method", "oracle"], 0),
        (["valuation", "100000", "50000", "--prime", "2"], 0),
        (["entry-point", "1000003"], 0),
        (["fib", "100", "--mod", "7"], 0),
        (["expand", "100", "--base", "Fp", "--prime", "7"], 0),
        (["lucas", "10", "3", "--prime", "7"], 0),
        (["verify", "--prime", "7", "--rows", "20", "--out", str(tmp_path / "v.jsonl")], 0),
        (["verify", "--prime", "11", "--counterexample"], 1),
        (["triangle", "--rows", "5", "--mod", "3", "--format", "pgm",
          "--out", str(tmp_path / "t.pgm")], 0),
        (["triangle", "--rows", "5", "--format", "json", "--out", str(tmp_path / "t.json")], 0),
    ]
    code = ("import json, tracing; from fibonomial import cli; rec = tracing.Recorder(); "
            "tracing.install(rec); tracing.clear_caches(); tracing.read_caches(rec); "
            f"print(json.dumps([cli.main(argv) for argv, _ in {commands!r}]))")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert [(argv, code) for (argv, _), code in zip(commands, codes)] == commands, done.stderr


def test_sources_stay_python_3_10():
    # pyproject declares requires-python >= 3.10. Newer syntax would not
    # parse there, and 3.10's int.to_bytes and int.from_bytes have no
    # default length or byte order; a newer interpreter shows neither.
    for path in sorted((ROOT / "src" / "fibonomial").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("to_bytes", "from_bytes")):
                assert len(node.args) + len(node.keywords) >= 2, f"{path.name}:{node.lineno}"


def test_library_imports_are_used():
    # No linter runs on the package, so an import left behind when the code
    # using it goes would stay unnoticed. __init__ imports to re-export.
    for path in sorted((ROOT / "src" / "fibonomial").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, f"{path.name}:{node.lineno} imports {name} unused"


def _names_read():
    """The names that code in the package or the benchmark reads, by name
    or as an attribute, and the string constants it holds."""
    reads, strings = set(), set()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return reads, strings


def _library_definitions():
    """(file name, line, name, node) for each module-level function, class
    and assignment in the package."""
    for path in sorted((ROOT / "src" / "fibonomial").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name, node


def test_private_library_names_are_used():
    # A module-level _name in the package is private to the package and the
    # benchmark, so one that no code there reads (by name, as an attribute
    # or as the string perfbench/tracing.py patches it by) is left over
    # from code that has gone.
    reads, strings = _names_read()
    for file, line, name, _ in _library_definitions():
        if name.startswith("_") and not name.startswith("__"):
            assert name in reads | strings, f"{file}:{line} defines {name} unused"


def test_public_library_names_are_used():
    # A public function or class that no code in the package or the
    # benchmark reads serves only the tests, and belongs in tests/. The
    # names __init__ lists as strings to re-export do not count as reads.
    reads, _ = _names_read()
    unread = [f"{file}:{line} {name}" for file, line, name, node in _library_definitions()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not name.startswith("_") and name not in reads]
    assert unread == []
