import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibonomial.valuation as valuation
from fibonomial.core import fib, fib_mod
from fibonomial.radix import add_with_carries
from fibonomial.valuation import (
    ENTRY_POINT_LIMIT,
    PRIME_TEST_LIMIT,
    PrimeProfile,
    Relation,
    carry_valuation,
    entry_point,
    fibotorial_valuations,
    is_prime,
    nu_p_fibonomial_oracle,
    nu_p_fibotorial,
)

from oracles import (
    entry_point_walk,
    fib_mod_matrix,
    fib_seq,
    fibotorial_seq,
    kummer_carries,
    naive_fibonomial,
    nu,
    prime_factors,
    primes_below,
)

ODD_PRIMES = (3, 5, 7, 11, 13)


def test_is_prime_small():
    primes = primes_below(10 ** 5)
    assert [n for n in range(10 ** 5) if is_prime(n) != (n in primes)] == []
    assert is_prime(1000003)
    assert not is_prime(1000001)  # 101 * 9901


@pytest.mark.parametrize("p, p_star, nu_entry, relation", [
    (2, 3, 1, Relation.GREATER),
    (3, 4, 1, Relation.GREATER),
    (5, 5, 1, Relation.EQUAL),
    (7, 8, 1, Relation.GREATER),
    (11, 10, 1, Relation.LESS),
    (13, 7, 1, Relation.LESS),
    (17, 9, 1, Relation.LESS),
    (19, 18, 1, Relation.LESS),
])
def test_entry_point_examples(p, p_star, nu_entry, relation):
    profile = entry_point(p)
    assert profile == PrimeProfile(p, p_star, nu_entry, relation)


@pytest.mark.parametrize("n", [
    561,  # Carmichael number
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to the bases 2 through 23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2 ** 31 - 1, 999999999989, 2 ** 61 - 1])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_past_its_exact_range(monkeypatch):
    # The limit is the least composite that is a strong pseudoprime to
    # every base 2 ... 41; the test answers below it and refuses from it on.
    assert not is_prime(PRIME_TEST_LIMIT - 1)
    with pytest.raises(ValueError, match=str(PRIME_TEST_LIMIT)):
        is_prime(PRIME_TEST_LIMIT)
    assert PRIME_TEST_LIMIT == 1287836182261 * 2575672364521
    monkeypatch.setattr(valuation, "PRIME_TEST_LIMIT", PRIME_TEST_LIMIT + 1)
    assert is_prime(PRIME_TEST_LIMIT)  # the wrong answer the refusal avoids


def test_entry_point_refuses_primes_past_its_bound():
    p = next(n for n in range(ENTRY_POINT_LIMIT + 1, ENTRY_POINT_LIMIT + 1000) if is_prime(n))
    with pytest.raises(ValueError, match=str(ENTRY_POINT_LIMIT)):
        entry_point(p)


def test_entry_point_matches_walk_dense():
    # The exact F_z give the reference nu_p(F_z); F_z has about 4,200
    # digits at z = 20,000.
    fs = fib_seq(20_002)
    for p in sorted(primes_below(20_000)):
        z = entry_point_walk(p)
        assert entry_point(p) == PrimeProfile(
            p, z, nu(fs[z - 1], p),
            Relation.LESS if z < p else Relation.EQUAL if z == p else Relation.GREATER), p


@pytest.mark.parametrize("p", [1000000007, 4294967291, 99999999977, 999999999989])
def test_entry_point_certificate_for_large_primes(p):
    # F_z = 0 and F_{z/q} != 0 mod p for each prime q | z make z the
    # least zero; F_z mod p^nu = 0 and mod p^(nu+1) != 0 pin the exponent.
    profile = entry_point(p)
    z, e = profile.p_star, profile.nu_p_F_pstar
    assert fib_mod_matrix(z, p) == 0
    for q in prime_factors(z):
        assert fib_mod_matrix(z // q, p) != 0, q
    assert fib_mod_matrix(z, p ** e) == 0
    assert fib_mod_matrix(z, p ** (e + 1)) != 0


def test_entry_point_rejects_composites():
    for n in (0, 1, 4, 100, 91):
        with pytest.raises(ValueError):
            entry_point(n)


def test_entry_point_divides_and_is_minimal():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        profile = entry_point(p)
        assert fib_mod(profile.p_star, p) == 0
        for j in range(1, profile.p_star):
            assert fib_mod(j, p) != 0
        assert profile.nu_p_F_pstar >= 1


def test_entry_point_bounds():
    for p in range(2, 300):
        if not is_prime(p):
            continue
        z = entry_point(p).p_star
        assert z <= p + 1
        if p != 5:
            assert (p - 1) % z == 0 or (p + 1) % z == 0


def test_entry_point_json():
    assert entry_point(11).to_json() == {
        "p": 11, "p_star": 10, "nu_p_F_pstar": 1, "relation": "LESS"}


@pytest.mark.parametrize("x, p, expected", [
    (30, 3, 1), (1, 7, 0), (55, 11, 1), (8, 2, 3), (500, 5, 3),
])
def test_nu_p_int_examples(x, p, expected):
    # The valuation of a plain integer, which the tests take from the
    # oracle's repeated division.
    assert nu(x, p) == expected


def ladder(n, profile):
    """nu_p(F_n) by the entry-point ladder: 0 unless z divides n, and
    otherwise nu_p(F_z) + nu_p(n / z)."""
    q, r = divmod(n, profile.p_star)
    return 0 if r else profile.nu_p_F_pstar + nu(q, profile.p)


def test_nu_p_fib_examples():
    p5 = entry_point(5)
    assert ladder(10, p5) == nu(fib(10), 5) == 1
    assert ladder(7, p5) == nu(fib(7), 5) == 0
    assert ladder(25, p5) == nu(fib(25), 5) == 2
    for p in ODD_PRIMES:
        prof = entry_point(p)
        n = prof.p_star * p
        assert ladder(n, prof) == nu(fib(n), p) == prof.nu_p_F_pstar + 1
    # The ladder holds for odd primes only: nu_2(F_6) = nu_2(8) = 3, not 2.
    assert ladder(6, entry_point(2)) == 2 != nu(fib(6), 2)


def test_nu_p_fib_formula_matches_oracle():
    xs = fib_seq(400)
    for p in ODD_PRIMES:
        prof = entry_point(p)
        for n in range(1, 401):
            assert ladder(n, prof) == nu(xs[n - 1], p), (p, n)


def test_valuation_lift_by_prime_multiplier():
    # When p^k exactly divides F_n with k > 0, p^(k+1) exactly divides F_np.
    for p in ODD_PRIMES:
        for n in range(1, 61):
            k = nu(fib(n), p)
            if k > 0:
                assert nu(fib(n * p), p) == k + 1, (p, n)


def test_valuation_flat_at_entry_point_square():
    # Multiplying the index by the (p-coprime) entry point adds nothing.
    for p in (3, 7, 11, 13, 17):
        z = entry_point(p).p_star
        assert nu(fib(z * z), p) == nu(fib(z), p)


def test_entry_point_divisibility_law():
    for p in (2, 3, 5, 7, 11, 13, 17):
        z = entry_point(p).p_star
        for n in range(1, 501):
            assert (fib_mod(n, p) == 0) == (n % z == 0)


@pytest.mark.parametrize("m, n, p, expected", [
    (26, 31, 7, 2),
    (25, 25, 5, 0),
    (0, 40, 7, 0),
    (0, 0, 3, 0),
])
def test_carry_valuation_examples(m, n, p, expected):
    val = carry_valuation(m, n, entry_point(p))
    assert val.exponent == expected
    assert val.method == "carry"


@pytest.mark.parametrize("m, n, expected", [
    (3, 3, 2),  # C(6, 3)_F = 60; 3 + 3 carries once in the entry-point base
    (3, 4, 2),  # C(7, 3)_F = 260
    (2, 1, 1),  # C(3, 2)_F = F_3 = 2
    (6, 6, 1),
    (5, 7, 4),
    (0, 12, 0),
])
def test_carry_valuation_at_2(m, n, expected):
    # nu_2(F_6) = 3 is not nu_2(F_3) + 1, so at p = 2 the closed form is no
    # carry count; the oracle confirms each exponent.
    val = carry_valuation(m, n, entry_point(2))
    assert val == valuation.Valuation(expected, "carry")
    assert expected == nu_p_fibonomial_oracle(m + n, m, 2).exponent
    with pytest.raises(ValueError):
        carry_valuation(-1, 4, entry_point(2))


def test_fibotorial_valuation_matches_prefix_table_dense():
    # The closed form against the big-integer oracle for every prime below
    # 200, p = 2 and p = 5 included, at every n <= 3,000.
    for p in primes_below(200):
        profile = entry_point(p)
        table = fibotorial_valuations(3000, p)
        assert [nu_p_fibotorial(n, profile) for n in range(3001)] == list(table), p
    with pytest.raises(ValueError):
        nu_p_fibotorial(-1, entry_point(7))


def test_carry_valuation_is_the_column_carry_count():
    # For odd p the closed form counts the carries of adding k/z to
    # (n - k)/z column by column, the units carry weighted by nu_p(F_z).
    for p in (3, 5, 7, 11, 13, 47):
        profile = entry_point(p)
        for n in range(200):
            for k in range(n + 1):
                report = add_with_carries(k, n - k, profile)
                want = report.carries_left + report.carry_across * profile.nu_p_F_pstar
                assert carry_valuation(k, n - k, profile).exponent == want, (p, n, k)


def _nu_fib(n, p):
    # The largest e with p**e dividing F_n, n >= 1, from residues alone.
    e = 0
    while fib_mod(n, p ** (e + 1)) == 0:
        e += 1
    return e


@given(st.sampled_from(sorted(primes_below(200))), st.integers(1, 10 ** 12), st.integers(0, 8))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fibotorial_valuation_steps_by_nu_of_f_n(p, n, j):
    # S(n) - S(n - 1) = nu_p(F_n). A random n is rarely a multiple of the
    # entry point z, so n is rounded down to a multiple of z * p**j when
    # that stays >= 1, where the valuation is largest.
    profile = entry_point(p)
    block = profile.p_star * p ** j
    if block <= n:
        n -= n % block
    step = nu_p_fibotorial(n, profile) - nu_p_fibotorial(n - 1, profile)
    assert step == _nu_fib(n, p), (p, n)


def test_carry_valuation_base5_is_plain_carry_count():
    p5 = entry_point(5)
    for m in range(151):
        for n in range(151 - m):
            assert carry_valuation(m, n, p5).exponent == kummer_carries(m, n, 5)


def test_fibotorial_valuations_prefix():
    # The word-size residues against exact Fibonacci integers, for every
    # prime below 200 at every n <= 3,000.
    fs = fib_seq(3000)
    for p in primes_below(200):
        total, want = 0, [0]
        for x in fs:
            total += nu(x, p)
            want.append(total)
        assert fibotorial_valuations(3000, p) == tuple(want), p


def test_fibotorial_valuations_read_exact_f_where_the_residue_vanishes(monkeypatch):
    # p = F_47 has 32 bits, so the residues are taken mod p itself, and at
    # i = 47 and 94 (nu_p = 1 and 1) the table reads the exact F_i.
    p = fib_seq(47)[-1]
    assert p == 2_971_215_073 and is_prime(p)
    read = []
    monkeypatch.setattr(valuation, "fib", lambda i: read.append(i) or fib(i))
    ft = fibotorial_seq(100)
    assert list(fibotorial_valuations(100, p)) == [nu(x, p) for x in ft]
    assert read == [47, 94]


def test_nu_p_fibonomial_oracle_matches_direct():
    ft = fibotorial_seq(80)
    for p in (2, 3, 5, 7, 11):
        for n in range(81):
            for k in range(0, n + 1, 3):
                coeff = naive_fibonomial(n, k, ft)
                val = nu_p_fibonomial_oracle(n, k, p)
                assert val.exponent == nu(coeff, p)
                assert val.method == "oracle"
    with pytest.raises(ValueError):
        nu_p_fibonomial_oracle(3, 5, 7)


def test_nu5_matches_binomial_examples():
    # The fibonomial and binomial coefficients carry the same power of 5.
    s = fibotorial_valuations(100, 5)
    for n in range(101):
        for k in range(n + 1):
            assert s[n] - s[k] - s[n - k] == nu(math.comb(n, k), 5), (n, k)
