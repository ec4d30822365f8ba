"""Command-line interface.

Subcommands: triangle rendering, scalar queries (fib / fibonomial /
entry-point / valuation / expand / lucas), and conjecture sweeps.

Exit codes: 0 for a clean run, 1 when a sweep or witness search finds a
counterexample (that is a successful computation, not an error), 2 for
usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .conjecture import (
    find_counterexample,
    lucas_binomial_residue,
    validate_sweep,
    verify_conjecture,
)
from .core import fib, fib_mod, fibonomial, fibonomial_row_mod
from .radix import expand_base_fp, expand_base_p
from .render import FORMATS, KINDS, RenderSpec, render
from .valuation import carry_valuation, entry_point, is_prime, nu_p_fibonomial_oracle

SWEEP_DIR_ENV = "FIBONOMIAL_SWEEP_DIR"
DEFAULT_EXACT_CAP = 1000

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _emit(args: argparse.Namespace, value, payload: dict) -> None:
    if getattr(args, "json", False):
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


def _cmd_fib(args: argparse.Namespace) -> int:
    if args.mod is not None:
        value = fib_mod(args.n, args.mod)
    else:
        _check_cap(args.n, args.cap, "exact Fibonacci number")
        value = fib(args.n)
    _emit_exact(args, value, {"n": args.n, "mod": args.mod, "value": value})
    return EXIT_OK


def _cmd_fibonomial(args: argparse.Namespace) -> int:
    if args.n < 0 or args.k < 0:
        raise ValueError(
            f"fibonomial arguments must be >= 0, got ({args.n}, {args.k})")
    if args.mod is not None:
        if args.mod < 2:  # checked here too, as k > n computes no row
            raise ValueError(f"modulus must be >= 2, got {args.mod}")
        if args.k > args.n:
            value = 0
        else:  # C(n, k)_F = C(n, n-k)_F, so only columns <= min(k, n-k)
            j = min(args.k, args.n - args.k)
            value = fibonomial_row_mod(args.n, args.mod, width=j).entries[j]
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
    if args.k > args.n:
        raise ValueError(
            f"coefficient at (n={args.n}, k={args.k}) is zero and has no valuation")
    profile = entry_point(args.prime)
    method = args.method
    if method is None:
        method = "oracle" if args.prime == 2 else "carry"
    if method == "carry":
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
    document = render(spec)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)
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
    created = not os.path.exists(out)
    try:
        # Fail before the sweep, not after; append mode leaves an earlier
        # report intact should the sweep stop on an oracle mismatch.
        open(out, "a", encoding="ascii").close()
    except OSError as exc:
        raise ValueError(f"cannot write the report: {exc}") from None
    try:
        record = verify_conjecture(profile, args.rows, jobs=args.jobs)
    except BaseException:
        if created:  # the check above made it; leave no empty report
            os.remove(out)
        raise
    try:
        with open(out, "w", encoding="ascii") as report:
            record.write_jsonl(report)
    except OSError as exc:
        raise ValueError(f"cannot write the report: {exc}") from None
    print(f"p={record.p} rows={record.rows} method=carry "
          f"counterexamples={len(record.counterexamples)} "
          f"seconds={record.seconds:.2f}")
    print(f"wrote {out}")
    return EXIT_COUNTEREXAMPLE if record.counterexamples else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibonomial",
        description="Fibonomial triangles, entry-point digit expansions, "
                    "carry-counted valuations, and divisibility sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON object")

    def add_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=int, default=DEFAULT_EXACT_CAP,
                       help="exact-mode size cap (default %(default)s)")

    p = sub.add_parser("fib", help="Fibonacci number, exact or mod m")
    p.add_argument("n", type=int)
    p.add_argument("--mod", type=int, default=None)
    add_cap(p)
    add_json(p)
    p.set_defaults(func=_cmd_fib)

    p = sub.add_parser("fibonomial", help="fibonomial coefficient, exact or mod m")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--mod", type=int, default=None)
    add_cap(p)
    add_json(p)
    p.set_defaults(func=_cmd_fibonomial)

    p = sub.add_parser("entry-point", help="entry point profile of a prime")
    p.add_argument("p", type=int)
    add_json(p)
    p.set_defaults(func=_cmd_entry_point)

    p = sub.add_parser("valuation",
                       help="p-adic valuation of a fibonomial coefficient")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--method", choices=("carry", "oracle"), default=None,
                   help="carry counting (odd p, default) or the exact oracle")
    add_cap(p)
    add_json(p)
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("expand", help="digit expansion of n")
    p.add_argument("n", type=int)
    p.add_argument("--base", choices=("p", "Fp"), required=True,
                   help="uniform base p, or the entry-point base of p")
    p.add_argument("--prime", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("lucas", help="binomial coefficient mod p by digits")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--prime", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_lucas)

    p = sub.add_parser("triangle", help="render a coefficient triangle")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="fibonomial")
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--format", choices=FORMATS, default="ascii")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    add_cap(p)
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("verify", help="sweep the divisibility biconditional")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--out", default=None,
                   help=f"JSONL path (default: ${SWEEP_DIR_ENV} or cwd)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes, never more than the rows; each "
                        "sweeps one contiguous span of rows (default: the "
                        "core count)")
    p.add_argument("--counterexample", action="store_true",
                   help="construct the witness for primes with entry point "
                        "below the prime")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
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
