"""Brute-force reference implementations used as test oracles.

Deliberately independent of the package under test: plain iteration,
plain division, no carry counting and no closed forms.
"""


def fib_seq(count):
    """[F_1, ..., F_count] by direct iteration."""
    xs = []
    a, b = 1, 1
    for _ in range(count):
        xs.append(a)
        a, b = b, a + b
    return xs


def fibotorial_seq(count):
    """ft[i] = F_i * ... * F_1 for i = 0..count."""
    ft = [1]
    a, b = 1, 1
    for _ in range(count):
        ft.append(ft[-1] * a)
        a, b = b, a + b
    return ft


def fib_mod_matrix(n, m):
    """F_n mod m, for n >= 0, from the n-th power of [[1, 1], [1, 0]]."""
    def mul(x, y):
        return [[(x[0][0] * y[0][0] + x[0][1] * y[1][0]) % m,
                 (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % m],
                [(x[1][0] * y[0][0] + x[1][1] * y[1][0]) % m,
                 (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % m]]
    out, base = [[1, 0], [0, 1]], [[1, 1], [1, 0]]
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out[0][1]


def entry_point_walk(p):
    """Least z >= 1 with p | F_z, by walking the sequence mod p: O(z) steps."""
    a, b, z = 1 % p, 1 % p, 1
    while a:
        a, b, z = b, (a + b) % p, z + 1
    return z


def prime_factors(n):
    """Distinct prime factors of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primes_below(n):
    """Sieve of Eratosthenes: the set of primes below n >= 2."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return {i for i in range(n) if sieve[i]}


def fibonomial_short(n, k):
    """The exact coefficient from its min(k, n-k) top and bottom factors:
    F_n ... F_{n-j+1} / (F_j ... F_1)."""
    if k > n:
        return 0
    j = min(k, n - k)
    fs = fib_seq(n)
    top, bottom = 1, 1
    for i in range(j):
        top *= fs[n - 1 - i]
        bottom *= fs[i]
    q, r = divmod(top, bottom)
    assert r == 0
    return q


def naive_fibonomial(n, k, ft=None):
    if k > n:
        return 0
    if ft is None:
        ft = fibotorial_seq(n)
    q, r = divmod(ft[n], ft[k] * ft[n - k])
    assert r == 0
    return q


def nu(x, p):
    """Exponent of p in x > 0 by repeated division."""
    assert x > 0
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def digits_le(n, base):
    """Little-endian digits of n, no trailing zeros."""
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return tuple(out)


def digits_value(digits, p, pstar=None):
    """The integer that little-endian digits denote in base p or, given
    pstar, in the mixed radix with place values 1, pstar, pstar*p, ..."""
    total = 0
    place = 1
    for i, d in enumerate(digits):
        total += d * place
        place *= pstar if i == 0 and pstar is not None else p
    return total


def kummer_carries(a, b, base):
    """Number of carries when adding a and b in the given base."""
    carry = 0
    count = 0
    while a or b or carry:
        s = a % base + b % base + carry
        carry = 1 if s >= base else 0
        count += carry
        a //= base
        b //= base
    return count


def sweep_rows_per_pair(profile, lo, hi, prefix, method="oracle", stride=0):
    """The conjecture sweep as a loop over single pairs of rows [lo, hi),
    the reference for `conjecture._sweep_rows`: per pair it expands both
    digit vectors and tests the digit product with `_pairs_divisible`.

    The left-hand side comes from the oracle prefix table, or, with
    method="carry" (odd p only), from `carry_valuation`'s exponent; then
    every stride-th pair in row-major order also rechecks that exponent
    against the prefix table, so the reference itself is confirmed.

    Unlike the rest of this module it calls the package, but only the
    per-pair primitives that the table-driven sweep does not use in its
    inner loop.
    """
    from fibonomial.conjecture import ConjectureVerdict, _pairs_divisible
    from fibonomial.radix import expand_base_fp
    from fibonomial.valuation import carry_valuation

    p = profile.p
    bad = []
    for n in range(lo, hi):
        nd = expand_base_fp(n, profile)
        row_base = n * (n + 1) // 2
        for k in range(n + 1):
            rhs = _pairs_divisible(nd, expand_base_fp(k, profile), p)
            want = prefix[n] - prefix[k] - prefix[n - k]
            if method == "carry":
                e = carry_valuation(k, n - k, profile).exponent
                if stride and (row_base + k) % stride == 0 and e != want:
                    raise ArithmeticError(
                        f"carry valuation {e} disagrees with oracle {want} "
                        f"at (n={n}, k={k}, p={p})")
            else:
                e = want
            lhs = e >= 1
            if lhs != rhs:
                bad.append(ConjectureVerdict.compare(p, n, k, lhs, rhs))
    return bad
