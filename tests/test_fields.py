from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dendrop.errors import (BadRationalError, DendropError, FieldMismatchError,
                            FieldSpecError)
from dendrop.fields import (MAX_MODULUS, FieldSpec, RATIONALS, is_prime, prime_field,
                            same_field)
from helpers import is_field_scalar


def test_field_spec_validation():
    assert RATIONALS.kind == "rational"
    assert prime_field(7).p == 7
    with pytest.raises(ValueError):
        FieldSpec("prime", 6)
    with pytest.raises(ValueError):
        FieldSpec("prime", None)
    with pytest.raises(ValueError):
        FieldSpec("rational", 3)
    with pytest.raises(ValueError):
        FieldSpec("real")


def test_non_prime_modulus_is_a_library_error():
    with pytest.raises(DendropError, match="not prime"):
        prime_field(4)


@pytest.mark.parametrize("modulus", [3.0, "3", Fraction(3), True, None])
def test_modulus_must_be_an_int(modulus):
    # a float modulus made a float field equal to F_3 whose coerce(5) was 2.0
    with pytest.raises(FieldSpecError, match="^modulus must be an int, got "):
        prime_field(modulus)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_a_sieve():
    n = 20_000
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, n):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [is_prime(k) for k in range(n)] == sieve


@pytest.mark.parametrize("n, prime", [
    (2 ** 61 - 1, True),
    (2 ** 64 - 59, True),              # the largest prime below the cap
    (2 ** 61 + 1, False),
    (4294967291 ** 2, False),          # the square of the largest 32-bit prime
    (3215031751, False),               # strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),      # strong pseudoprime to every prime base up to 23
])
def test_is_prime_decides_large_moduli_exactly(n, prime):
    assert is_prime(n) is prime


def test_moduli_above_the_cap_are_refused_before_testing():
    assert is_prime(MAX_MODULUS) is False
    for n in (MAX_MODULUS + 1, 2 ** 89 - 1, 10 ** 4000):
        with pytest.raises(FieldSpecError, match="above the cap 2\\^64"):
            prime_field(n)


def test_rational_arithmetic_exact():
    f = RATIONALS
    assert f.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert f.inv(Fraction(2, 5)) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(Fraction(0))


def test_prime_arithmetic():
    f = prime_field(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3
    assert f.inv(2) == 3
    assert f.sub(1, 3) == 3


def test_parse_scalars():
    assert RATIONALS.parse("3") == Fraction(3)
    assert RATIONALS.parse("-3/4") == Fraction(-3, 4)
    assert RATIONALS.parse("2/4") == Fraction(1, 2)
    f5 = prime_field(5)
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3  # 2^{-1} = 3 mod 5
    assert f5.parse("-1") == 4


@pytest.mark.parametrize("bad", ["1/0", "x", "3/", "/2", "1.5", "3/-4", ""])
def test_parse_rejects_malformed(bad):
    with pytest.raises(BadRationalError):
        RATIONALS.parse(bad)


def test_parse_rejects_denominator_divisible_by_p():
    with pytest.raises(BadRationalError, match="divisible by p=5"):
        prime_field(5).parse("1/5")
    with pytest.raises(BadRationalError, match="no image mod 3"):
        prime_field(3).convert_from_rational(Fraction(1, 3))


def test_same_field():
    assert same_field(prime_field(3), prime_field(3)) == prime_field(3)
    with pytest.raises(FieldMismatchError):
        same_field(prime_field(3), prime_field(5))
    with pytest.raises(FieldMismatchError, match="^field mismatch: Q vs F_3$"):
        same_field(RATIONALS, prime_field(3))


def test_fields_print_as_q_and_f_p_and_keep_their_repr():
    assert (str(RATIONALS), str(prime_field(3))) == ("Q", "F_3")
    assert repr(prime_field(3)) == "FieldSpec(kind='prime', p=3)"
    with pytest.raises(FieldMismatchError, match=r"^Fraction\(1, 2\) \(Fraction\) is not a "
                                                 r"scalar of F_5$"):
        prime_field(5).coerce(Fraction(1, 2))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_parse_format_round_trip(num, den):
    value = Fraction(num, den)
    assert RATIONALS.parse(str(value)) == value


@given(st.sampled_from([2, 3, 5, 7]), st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_prime_parse_agrees_with_the_rational_image(p, num, den):
    f = prime_field(p)
    if den % p:
        assert f.parse(f"{num}/{den}") == f.convert_from_rational(Fraction(num, den))
        assert f.parse(str(num)) == f.convert_from_rational(Fraction(num))


@given(st.integers(0, 6))
def test_prime_parse_format_round_trip(residue):
    f = prime_field(7)
    assert f.parse(str(residue)) == residue


def test_no_floats_in_scalar_path():
    # every value produced by field arithmetic is a scalar in its one form: a residue
    # over F_p; over Q an int when integral, else a Fraction (inv never divides 1 / a)
    f5 = prime_field(5)
    for v in (f5.zero, f5.one, f5.add(2, 4), f5.inv(3), f5.coerce(-2)):
        assert is_field_scalar(f5, v)
    Q = RATIONALS
    values = (Q.zero, Q.one, Q.parse("-7/3"), Q.parse("4/2"), Q.parse("-6"), Q.inv(2),
              Q.inv(-1), Q.inv(Fraction(2)), Q.inv(Fraction(1, 2)), Q.coerce(Fraction(6, 3)),
              Q.add(Fraction(1, 2), Fraction(1, 2)), Q.mul(Fraction(2, 3), 3),
              Q.sub(Fraction(5, 2), Fraction(1, 2)), Q.neg(Fraction(4, 2)),
              Q.convert_from_rational(Fraction(9, 3)))
    assert values == (0, 1, Fraction(-7, 3), 2, -6, Fraction(1, 2), -1, Fraction(1, 2), 2, 2,
                      1, 2, 2, -2, 3)
    assert [type(v) for v in values] == [int, int, Fraction, int, int, Fraction, int, Fraction,
                                         int, int, int, int, int, int, int]
    for bad in (0.5, True, "1/2"):
        with pytest.raises(FieldMismatchError):
            Q.convert_from_rational(bad)
        with pytest.raises(FieldMismatchError):
            f5.convert_from_rational(bad)
