"""Command-line interface.

Subcommands: triangle rendering, scalar queries (fib / fibonomial /
entry-point / valuation / expand / lucas), and conjecture sweeps.

Exit codes: 0 for a clean run, 1 when a sweep or witness search finds a
counterexample (that is a successful computation, not an error), 2 for
usage or domain errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from importlib import import_module
from typing import IO, Callable, Iterator


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

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _emit(args: argparse.Namespace, value, payload: dict) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps(payload))
    else:
        print(value)


def _emit_exact(args: argparse.Namespace, value: int, payload: dict) -> None:
    # An exact answer that passed the --cap check prints at any length; the
    # int-to-str digit limit is lifted for the print only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(args, value, payload)
    finally:
        sys.set_int_max_str_digits(limit)


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ValueError(
            f"{what} at n={n} exceeds the exact-size cap {cap}; "
            "pass --mod for residues or raise --cap")


@contextmanager
def _output_file(path: str) -> Iterator[Callable[[Callable[[IO[str]], object]], None]]:
    """Check that path can be written before the work that fills it, and
    yield the function that opens it afresh and hands the file to a writer.
    The check opens path for appending, so an earlier file stays intact
    should the work stop, and a file the check created is then removed. An
    OSError is a usage error."""
    created = not os.path.exists(path)
    try:
        open(path, "a", encoding="ascii").close()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None

    def write(writer: Callable[[IO[str]], object]) -> None:
        try:
            with open(path, "w", encoding="ascii") as fh:
                writer(fh)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None

    try:
        yield write
    except BaseException:
        if created:
            os.remove(path)
        raise


def _cmd_fib(args: argparse.Namespace) -> int:
    if args.mod is not None:
        value = fib_mod(args.n, args.mod)
    else:
        _check_cap(args.n, args.cap, "exact Fibonacci number")
        value = fib(args.n)
    _emit_exact(args, value, {"n": args.n, "mod": args.mod, "value": value})
    return EXIT_OK


def _check_nk(args: argparse.Namespace) -> None:
    if args.n < 0 or args.k < 0:
        raise ValueError(
            f"fibonomial arguments must be >= 0, got ({args.n}, {args.k})")


def _cmd_fibonomial(args: argparse.Namespace) -> int:
    _check_nk(args)
    if args.mod is not None:
        j = min(args.k, args.n - args.k)
        words = max((args.mod.bit_length() + 29) // 30, 1)
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


def _cmd_entry_point(args: argparse.Namespace) -> int:
    profile = entry_point(args.p)
    human = (f"p={profile.p} p_star={profile.p_star} "
             f"nu_p_F_pstar={profile.nu_p_F_pstar} relation={profile.relation.value}")
    _emit(args, human, profile.to_json())
    return EXIT_OK


def _cmd_valuation(args: argparse.Namespace) -> int:
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


def _cmd_expand(args: argparse.Namespace) -> int:
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


def _cmd_lucas(args: argparse.Namespace) -> int:
    residue = lucas_binomial_residue(args.n, args.k, args.prime)
    _emit(args, residue,
          {"n": args.n, "k": args.k, "p": args.prime, "residue": residue})
    return EXIT_OK


def _cmd_triangle(args: argparse.Namespace) -> int:
    if args.mod is None:
        _check_cap(args.rows - 1, args.cap, "exact triangle row")
    spec = RenderSpec(rows=args.rows, kind=args.kind,
                      modulus=args.mod, format=args.format)
    if args.out:
        with _output_file(args.out) as write:
            document = render(spec)
            write(lambda fh: fh.write(document))
    else:
        sys.stdout.write(render(spec))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
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
        write(record.write_jsonl)
    print(f"p={record.p} rows={record.rows} method=carry "
          f"counterexamples={len(record.counterexamples)} "
          f"seconds={record.seconds:.2f}")
    print(f"wrote {out}")
    return EXIT_COUNTEREXAMPLE if record.counterexamples else EXIT_OK


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON object")


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", type=int, default=DEFAULT_EXACT_CAP,
                   help="exact-mode size cap (default %(default)s)")


def _args_fib(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--mod", type=int, default=None)
    _add_cap(p)
    _add_json(p)


def _args_fibonomial(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--mod", type=int, default=None)
    _add_cap(p)
    _add_json(p)


def _args_entry_point(p: argparse.ArgumentParser) -> None:
    p.add_argument("p", type=int)
    _add_json(p)


def _args_valuation(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--method", choices=("carry", "oracle"), default="carry",
                   help="closed form, the carry count at odd p (default), or the oracle")
    _add_cap(p)
    _add_json(p)


def _args_expand(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--base", choices=("p", "Fp"), required=True,
                   help="uniform base p, or the entry-point base of p")
    p.add_argument("--prime", type=int, required=True)
    _add_json(p)


def _args_lucas(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--prime", type=int, required=True)
    _add_json(p)


def _args_triangle(p: argparse.ArgumentParser) -> None:
    from .render import FORMATS, KINDS

    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="fibonomial")
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--format", choices=FORMATS, default="ascii")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    _add_cap(p)


def _args_verify(p: argparse.ArgumentParser) -> None:
    from .conjecture import MIN_SPAN_PAIRS

    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--out", default=None,
                   help=f"JSONL path (default: ${SWEEP_DIR_ENV} or cwd)")
    p.add_argument("--jobs", type=int, default=1,
                   help="at most this many worker processes, never more "
                        "than the rows; each sweeps one contiguous span of "
                        "rows. A sweep of fewer than "
                        f"{2 * MIN_SPAN_PAIRS:,} pairs (22,000 rows) runs in "
                        "process (default: 1, in process)")
    p.add_argument("--counterexample", action="store_true",
                   help="construct the witness for primes with entry point "
                        "below the prime")


# Subcommand name: its help line, its arguments and its handler, in the
# order the top-level help lists them.
_COMMANDS = {
    "fib": ("Fibonacci number, exact or mod m", _args_fib, _cmd_fib),
    "fibonomial": ("fibonomial coefficient, exact or mod m",
                   _args_fibonomial, _cmd_fibonomial),
    "entry-point": ("entry point profile of a prime",
                    _args_entry_point, _cmd_entry_point),
    "valuation": ("p-adic valuation of a fibonomial coefficient",
                  _args_valuation, _cmd_valuation),
    "expand": ("digit expansion of n", _args_expand, _cmd_expand),
    "lucas": ("binomial coefficient mod p by digits", _args_lucas, _cmd_lucas),
    "triangle": ("render a coefficient triangle", _args_triangle, _cmd_triangle),
    "verify": ("sweep the divisibility biconditional", _args_verify, _cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. When command names a subcommand, only that
    one is declared, about a sixth of the cost of declaring all eight;
    its usage lines and errors read as the full parser's. Any other command
    declares every subcommand."""
    parser = argparse.ArgumentParser(
        prog="fibonomial",
        description="Fibonomial triangles, entry-point digit expansions, "
                    "closed-form valuations, and divisibility sweeps.")
    if command in _COMMANDS:
        # The metavar spells the choices list the full parser prints. The
        # full parser sets none: its missing-command error names the dest.
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, add_args, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
