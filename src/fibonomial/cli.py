"""Command-line interface.

Subcommands: triangle rendering, scalar queries (fib / fibonomial /
entry-point / valuation / expand / lucas), and conjecture sweeps.

Exit codes: 0 for a clean run, 1 when a sweep or witness search finds a
counterexample (that is a successful computation, not an error), 2 for
usage or domain errors.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from importlib import import_module
from math import isqrt
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    import argparse


def _lazy(module: str, name: str) -> Callable:
    """A stand-in that imports name from the package's module on its first
    call and binds it here, unless name was rebound meanwhile: handlers look
    these names up at call time, so callers may wrap them."""
    def stand_in(*args, **kwargs):
        real = getattr(import_module(f"{__package__}.{module}"), name)
        if globals()[name] is stand_in:
            globals()[name] = real
        return real(*args, **kwargs)
    return stand_in


fib = _lazy("core", "fib")
fib_mod = _lazy("core", "fib_mod")
fibonomial = _lazy("core", "fibonomial")
fibonomial_mod = _lazy("core", "fibonomial_mod")
carry_valuation = _lazy("valuation", "carry_valuation")
entry_point = _lazy("valuation", "entry_point")
is_prime = _lazy("valuation", "is_prime")
nu_p_fibonomial_oracle = _lazy("valuation", "nu_p_fibonomial_oracle")
expand_base_fp = _lazy("radix", "expand_base_fp")
expand_base_p = _lazy("radix", "expand_base_p")
lucas_binomial_residue = _lazy("radix", "lucas_binomial_residue")
find_counterexample = _lazy("conjecture", "find_counterexample")
validate_sweep = _lazy("conjecture", "validate_sweep")
verify_conjecture = _lazy("conjecture", "verify_conjecture")
RenderSpec = _lazy("render", "RenderSpec")
render = _lazy("render", "render")

SWEEP_DIR_ENV = "FIBONOMIAL_SWEEP_DIR"
DEFAULT_EXACT_CAP = 1000
# fibonomial_mod takes about 1.4 us per Fibonacci ratio at a modulus of one
# 30-bit word, so a window of this many ratios answers in about a second. A
# ratio costs about w + w*w/64 times that at w words (measured from 2 to
# 13,288 bits on a 2-vCPU Xeon VM), and the bound is divided by that weight.
MAX_MOD_WINDOW = 700_000
# A triangle mod m holds every row in memory. svg, the slowest format, took
# 0.96 s and 147 MB peak in a fresh process at this many rows mod 5 (1,200
# rows: 1.30 s and 207 MB; 2,000 rows: 3.7 s and 552 MB; 2-vCPU Xeon VM).
# Wider residues cost more (mod 10**30 + 57, 4 words, at 1,000 rows: svg
# 1.41 s and 170 MB, ascii 0.92 s and 234 MB), so R rows of a modulus of w
# words are refused when R * R * w exceeds this bound squared.
MAX_TRIANGLE_ROWS = 1000

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _emit(args: SimpleNamespace, value, payload: dict) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps(payload))
    else:
        print(value)


def _emit_exact(args: SimpleNamespace, value: int, payload: dict) -> None:
    # An exact answer that passed the --cap check prints at any length; the
    # int-to-str digit limit is lifted for the print only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(args, value, payload)
    finally:
        sys.set_int_max_str_digits(limit)


def _words(m: int) -> int:
    """The 30-bit words of m, at least one: the size the bounds mod m weigh."""
    return max((m.bit_length() + 29) // 30, 1)


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ValueError(
            f"{what} at n={n} exceeds the exact-size cap {cap}; "
            "pass --mod for residues or raise --cap")


@contextmanager
def _output_file(path: str) -> Iterator[Callable[[str], None]]:
    """Open path for appending before the work that fills it, and yield the
    function that writes the finished text there: it empties an earlier
    file first if it holds bytes, as a pipe never does. An earlier file
    stays intact should the work stop, and a file this open created is then
    removed. The open tries to create the file exclusively first, so a new
    file costs no existence check and no size check. An OSError is a usage
    error."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    try:
        try:
            fd, created = os.open(path, flags | os.O_EXCL), True
        except FileExistsError:
            fd, created = os.open(path, flags), False
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None

    def write(text: str) -> None:
        view = memoryview(text.encode("ascii"))
        try:
            if not created and os.fstat(fd).st_size:
                os.ftruncate(fd, 0)
            while view:
                view = view[os.write(fd, view):]
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None

    try:
        yield write
    except BaseException:
        if created:
            os.remove(path)
        raise
    finally:
        os.close(fd)


def _cmd_fib(args: SimpleNamespace) -> int:
    if args.mod is not None:
        value = fib_mod(args.n, args.mod)
    else:
        _check_cap(args.n, args.cap, "exact Fibonacci number")
        value = fib(args.n)
    _emit_exact(args, value, {"n": args.n, "mod": args.mod, "value": value})
    return EXIT_OK


def _check_nk(args: SimpleNamespace) -> None:
    if args.n < 0 or args.k < 0:
        raise ValueError(
            f"fibonomial arguments must be >= 0, got ({args.n}, {args.k})")


def _cmd_fibonomial(args: SimpleNamespace) -> int:
    _check_nk(args)
    if args.mod is not None:
        j = min(args.k, args.n - args.k)
        words = _words(args.mod)
        bound = MAX_MOD_WINDOW // (words + words * words // 64)
        if j > bound:
            raise ValueError(
                f"fibonomial coefficient mod m at j=min(k, n-k)={j} exceeds the "
                f"window bound {bound}")
        value = fibonomial_mod(args.n, args.k, args.mod)
    else:
        _check_cap(args.n, args.cap, "exact fibonomial coefficient")
        value = fibonomial(args.n, args.k)
    _emit_exact(args, value,
                {"n": args.n, "k": args.k, "mod": args.mod, "value": value})
    return EXIT_OK


def _cmd_entry_point(args: SimpleNamespace) -> int:
    profile = entry_point(args.p)
    human = (f"p={profile.p} p_star={profile.p_star} "
             f"nu_p_F_pstar={profile.nu_p_F_pstar} relation={profile.relation.value}")
    _emit(args, human, profile.to_json())
    return EXIT_OK


def _cmd_valuation(args: SimpleNamespace) -> int:
    _check_nk(args)
    if args.k > args.n:
        raise ValueError(
            f"coefficient at (n={args.n}, k={args.k}) is zero and has no valuation")
    profile = entry_point(args.prime)
    if args.method == "carry":
        val = carry_valuation(args.k, args.n - args.k, profile)
    else:
        _check_cap(args.n, args.cap, "oracle valuation")
        val = nu_p_fibonomial_oracle(args.n, args.k, args.prime)
    _emit(args, val.exponent,
          {"n": args.n, "k": args.k, "p": args.prime,
           "method": val.method, "exponent": val.exponent})
    return EXIT_OK


def _cmd_expand(args: SimpleNamespace) -> int:
    if args.base == "p":
        if not is_prime(args.prime):
            raise ValueError(f"{args.prime} is not prime")
        pstar = None
        digits = expand_base_p(args.n, args.prime)
    else:
        profile = entry_point(args.prime)
        pstar = profile.p_star
        digits = expand_base_fp(args.n, profile)
    human = "(" + " ".join(str(d) for d in digits) + ")"
    _emit(args, human, {"base": args.base, "p": args.prime, "pstar": pstar,
                        "digits": list(digits)})
    return EXIT_OK


def _cmd_lucas(args: SimpleNamespace) -> int:
    residue = lucas_binomial_residue(args.n, args.k, args.prime)
    _emit(args, residue,
          {"n": args.n, "k": args.k, "p": args.prime, "residue": residue})
    return EXIT_OK


def _cmd_triangle(args: SimpleNamespace) -> int:
    if args.mod is None:
        _check_cap(args.rows - 1, args.cap, "exact triangle row")
    else:
        bound = isqrt(MAX_TRIANGLE_ROWS ** 2 // _words(args.mod))
        if args.rows > bound:
            raise ValueError(f"rows must be <= {bound} for a triangle mod m, got {args.rows}")
    spec = RenderSpec(rows=args.rows, kind=args.kind,
                      modulus=args.mod, format=args.format)
    if args.out:
        with _output_file(args.out) as write:
            write(render(spec))
    else:
        sys.stdout.write(render(spec))
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
    profile = entry_point(args.prime)

    if args.counterexample:
        n, k, verdict = find_counterexample(profile)
        print(f"p={profile.p} p_star={profile.p_star} "
              f"relation={profile.relation.value}")
        print(f"witness n={n} k={k}: lhs_divisible={verdict.lhs_divisible} "
              f"rhs_divisible={verdict.rhs_divisible} agrees={verdict.agrees}")
        return EXIT_COUNTEREXAMPLE if not verdict.agrees else EXIT_OK

    if args.rows is None:
        raise ValueError("--rows is required unless --counterexample is given")
    # Checked before the report is opened, so a refused sweep leaves any
    # existing report as it was.
    validate_sweep(profile, args.rows, jobs=args.jobs)
    out = args.out
    if out is None:
        directory = os.environ.get(SWEEP_DIR_ENV, ".")
        out = os.path.join(directory, f"sweep_p{args.prime}_rows{args.rows}.jsonl")
    with _output_file(out) as write:
        record = verify_conjecture(profile, args.rows, jobs=args.jobs)
        write("".join(line + "\n" for line in record.jsonl_lines()))
    print(f"p={record.p} rows={record.rows} method=carry "
          f"counterexamples={len(record.counterexamples)} "
          f"seconds={record.seconds:.2f}")
    print(f"wrote {out}")
    return EXIT_COUNTEREXAMPLE if record.counterexamples else EXIT_OK


class _Arg(NamedTuple):
    """One argument of a subcommand. name is a positional's dest or an
    option's full spelling; type converts its value (None keeps the text,
    bool marks a flag that takes no value); help is the text, or a function
    that gives it when it names a constant of a module a parse must not
    load."""

    name: str
    type: Callable | None = int
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | Callable[[], str] | None = None


def _jobs_help() -> str:
    from .conjecture import MIN_SPAN_PAIRS

    # The fewest blocks c whose c(c + 1)/2 pairs reach the floor.
    c = isqrt(4 * MIN_SPAN_PAIRS)
    c += c * (c + 1) < 4 * MIN_SPAN_PAIRS
    return ("at most this many worker processes, never more than the rows; "
            "each sweeps one contiguous span of rows. A sweep of fewer than "
            f"{2 * MIN_SPAN_PAIRS:,} pairs of blocks of z rows, z the entry "
            f"point, runs in process: a pool starts from {c:,} blocks, "
            f"{3 * c - 2:,} rows at p = 2 and {8 * c - 7:,} at p = 7 "
            "(default: 1, in process)")


_N, _K = _Arg("n"), _Arg("k")
_MOD = _Arg("--mod")
_PRIME = _Arg("--prime", required=True)
_CAP = _Arg("--cap", default=DEFAULT_EXACT_CAP,
            help="exact-mode size cap (default %(default)s)")
_JSON = _Arg("--json", bool, False, help="emit a machine-readable JSON object")

# Subcommand name: its help line, its handler and its arguments, in the
# order the top-level help and each usage line list them.
_COMMANDS = {
    "fib": ("Fibonacci number, exact or mod m", _cmd_fib, (_N, _MOD, _CAP, _JSON)),
    "fibonomial": ("fibonomial coefficient, exact or mod m", _cmd_fibonomial,
                   (_N, _K, _MOD, _CAP, _JSON)),
    "entry-point": ("entry point profile of a prime", _cmd_entry_point,
                    (_Arg("p"), _JSON)),
    "valuation": ("p-adic valuation of a fibonomial coefficient", _cmd_valuation, (
        _N, _K, _PRIME,
        _Arg("--method", None, "carry", ("carry", "oracle"),
             help="closed form, the carry count at odd p (default), or the oracle"),
        _CAP, _JSON)),
    "expand": ("digit expansion of n", _cmd_expand, (
        _N,
        _Arg("--base", None, None, ("p", "Fp"), True,
             help="uniform base p, or the entry-point base of p"),
        _PRIME, _JSON)),
    "lucas": ("binomial coefficient mod p by digits", _cmd_lucas,
              (_N, _K, _PRIME, _JSON)),
    "triangle": ("render a coefficient triangle", _cmd_triangle, (
        _Arg("--rows", required=True),
        _Arg("--kind", None, "fibonomial", ("fibonomial", "binomial")),
        _MOD,
        _Arg("--format", None, "ascii", ("ascii", "pgm", "svg", "json")),
        _Arg("--out", None, help="write to a file instead of stdout"),
        _CAP)),
    "verify": ("sweep the divisibility biconditional", _cmd_verify, (
        _PRIME,
        _Arg("--rows"),
        _Arg("--out", None, help=f"JSONL path (default: ${SWEEP_DIR_ENV} or cwd)"),
        _Arg("--jobs", default=1, help=_jobs_help),
        _Arg("--counterexample", bool, False,
             help="construct the witness for primes with entry point below the prime"))),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, declared from _COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fibonomial",
        description="Fibonomial triangles, entry-point digit expansions, "
                    "closed-form valuations, and divisibility sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, table) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for arg in table:
            help_text = arg.help() if callable(arg.help) else arg.help
            if arg.type is bool:
                p.add_argument(arg.name, action="store_true", help=help_text)
            elif arg.name.startswith("-"):
                p.add_argument(arg.name, type=arg.type, default=arg.default,
                               choices=arg.choices, required=arg.required,
                               help=help_text)
            else:
                p.add_argument(arg.name, type=arg.type, choices=arg.choices,
                               help=help_text)
        p.set_defaults(func=handler)
    return parser


def _parse_quick(argv: list[str]) -> dict | None:
    """What build_parser().parse_args(argv) holds, read from _COMMANDS when
    argv is in canonical form: a subcommand name; each option spelled in
    full, either a flag or followed by a value that does not start with
    "-"; the positionals in order; every value converted by its type (the
    int() call argparse makes) and among its choices; every required
    argument given. A repeated option keeps its last value, as in argparse.
    None for any other argv, which is argparse's to parse, so that only
    argparse writes help, usage and errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, table = _COMMANDS[argv[0]]
    values = {arg.name.lstrip("-"): arg.default for arg in table}
    values.update(command=argv[0], func=handler)
    options = {arg.name: arg for arg in table if arg.name.startswith("-")}
    positionals = [arg for arg in table if not arg.name.startswith("-")]
    missing = {arg.name for arg in table if arg.required}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            arg = positionals.pop(0)
        elif token in options:
            arg = options[token]
            if arg.type is bool:
                values[arg.name.lstrip("-")] = True
                continue
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            return None
        try:
            value = token if arg.type is None else arg.type(token)
        except ValueError:
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.name.lstrip("-")] = value
        missing.discard(arg.name)
    return None if positionals or missing else values


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    values = _parse_quick(argv)
    if values is None:
        try:
            values = vars(build_parser().parse_args(argv))
        except SystemExit as exc:  # argparse prints its own message
            code = exc.code
            return code if isinstance(code, int) else EXIT_USAGE
    args = SimpleNamespace(**values)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
