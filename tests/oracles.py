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


def sweep_rows_per_pair(profile, lo, hi, method, stride, prefix):
    """The conjecture sweep's former loop over rows [lo, hi), the reference
    for `conjecture._sweep_rows`: per pair it expands both digit vectors,
    tests the digit product with `_pairs_divisible` and, in carry mode,
    counts the carries with `carry_valuation`.

    Unlike the rest of this module it calls the package, but only the
    per-pair primitives that the table-driven sweep no longer uses in its
    inner loop.
    """
    from fibonomial.conjecture import ConjectureVerdict, _pairs_divisible
    from fibonomial.radix import expand_base_fp
    from fibonomial.valuation import carry_valuation

    p = profile.p
    bad = []
    for n in range(lo, hi):
        nd = expand_base_fp(n, profile).digits
        row_base = n * (n + 1) // 2
        for k in range(n + 1):
            kd = expand_base_fp(k, profile).digits
            rhs = _pairs_divisible(nd, kd, p)
            if method == "carry":
                e = carry_valuation(k, n - k, profile).exponent
                if stride and (row_base + k) % stride == 0:
                    want = prefix[n] - prefix[k] - prefix[n - k]
                    if want != e:
                        raise ArithmeticError(
                            f"carry valuation {e} disagrees with oracle {want} "
                            f"at (n={n}, k={k}, p={p})")
            else:
                e = prefix[n] - prefix[k] - prefix[n - k]
            lhs = e >= 1
            if lhs != rhs:
                bad.append(ConjectureVerdict.compare(p, n, k, lhs, rhs))
    return bad
