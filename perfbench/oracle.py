"""Independent arithmetic the benchmark checks the program against.

Nothing here imports the package under test. Exact values come from big
integers (product formulas over exact Fibonacci numbers); residues of whole
triangles come from a different Pascal-type identity than the one the
package uses, and entry points come from the divisor theorem rather than
a walk over the Fibonacci sequence.
"""

from __future__ import annotations

from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def fib_mod(n: int, m: int) -> int:
    """F_n mod m by 2x2 matrix powers of [[1, 1], [1, 0]]."""
    a, b, c, d = 1, 0, 0, 1  # identity
    e, f, g, h = 1, 1, 1, 0
    while n:
        if n & 1:
            a, b, c, d = ((a * e + b * g) % m, (a * f + b * h) % m,
                          (c * e + d * g) % m, (c * f + d * h) % m)
        e, f, g, h = ((e * e + f * g) % m, (e * f + f * h) % m,
                      (g * e + h * g) % m, (g * f + h * h) % m)
        n >>= 1
    return b % m


@lru_cache(maxsize=4)
def fib_table(n: int) -> tuple[int, ...]:
    """Exact F_0 .. F_n."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return tuple(out[: n + 1])


def _product(xs: list[int]) -> int:
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] if i + 1 < len(xs) else xs[i]
              for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def fibonomial(n: int, k: int) -> int:
    """Exact C(n, k)_F = prod F_{n-k+i} / F_i over i = 1..k."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    f = fib_table(n)
    q, r = divmod(_product(list(f[n - k + 1: n + 1])), _product(list(f[1: k + 1])))
    if r:
        raise ArithmeticError("non-integral fibonomial")
    return q


def nu(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def fibonomial_valuation(n: int, k: int, p: int) -> int:
    """nu_p of C(n, k)_F, summed over exact Fibonacci factors."""
    f = fib_table(n)
    k = min(k, n - k)
    return (sum(nu(f[i], p) for i in range(n - k + 1, n + 1))
            - sum(nu(f[i], p) for i in range(1, k + 1)))


def _factor(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _divisors(m: int) -> list[int]:
    divs = [1]
    for q, e in _factor(m).items():
        divs = [d * q ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def entry_point(p: int) -> tuple[int, int, str]:
    """(z, nu_p(F_z), relation) for a prime p.

    z divides p - (5/p) for p other than 2 and 5 (Lucas), so z is the least
    divisor d of that number with F_d = 0 mod p.
    """
    if p == 2:
        z = 3
    elif p == 5:
        z = 5
    else:
        legendre = 1 if pow(5, (p - 1) // 2, p) == 1 else -1
        z = next(d for d in _divisors(p - legendre) if fib_mod(d, p) == 0)
    e = 1
    while fib_mod(z, p ** (e + 1)) == 0:
        e += 1
    rel = "LESS" if z < p else "EQUAL" if z == p else "GREATER"
    return z, e, rel


def fib_valuation(n: int, p: int) -> int:
    """nu_p(F_n) from residues mod growing powers of p."""
    e = 0
    while fib_mod(n, p ** (e + 1)) == 0:
        e += 1
    return e


def digits_p(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def digits_fp(n: int, p: int, z: int) -> list[int]:
    q, units = divmod(n, z)
    rest = digits_p(q, p)
    return [units, *rest] if (rest or units) else []


def digit_product_divisible(n: int, k: int, p: int, z: int) -> bool:
    """p divides the product of digitwise fibonomials in the entry-point base."""
    nd, kd = digits_fp(n, p, z), digits_fp(k, p, z)
    width = max(len(nd), len(kd))
    nd += [0] * (width - len(nd))
    kd += [0] * (width - len(kd))
    return any(fibonomial(a, b) % p == 0 for a, b in zip(nd, kd))


def fibonomial_rows_mod(rows: int, m: int) -> list[list[int]]:
    """Residues of rows 0..rows-1 by C(n, k) = F_{k-1} C(n-1, k) + F_{n-k+1} C(n-1, k-1)."""
    f = [0, 1 % m]
    while len(f) <= rows + 1:
        f.append((f[-1] + f[-2]) % m)
    out = [[1 % m]]
    for n in range(1, rows):
        prev = out[-1]
        row = [1 % m]
        for k in range(1, n):
            row.append((f[k - 1] * prev[k] + f[n - k + 1] * prev[k - 1]) % m)
        row.append(1 % m)
        out.append(row)
    return out


def binomial_rows_mod(rows: int, m: int | None) -> list[list[int]]:
    """Rows of Pascal's triangle from the multiplicative formula, exact."""
    out = []
    for n in range(rows):
        row, c = [], 1
        for k in range(n + 1):
            row.append(c if m is None else c % m)
            c = c * (n - k) // (k + 1)
        out.append(row)
    return out


def fibonomial_rows_exact(rows: int) -> list[list[int]]:
    """Exact rows 0..rows-1, each entry from running products of Fibonacci numbers."""
    f = fib_table(rows)
    out = []
    for n in range(rows):
        row, c = [1], 1
        for k in range(1, n + 1):
            c = c * f[n - k + 1] // f[k]
            row.append(c)
        out.append(row)
    return out
