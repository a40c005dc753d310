"""Exact scalars over the rationals and over prime fields.

Scalar values are plain Python objects: ``fractions.Fraction`` for rational
coefficients, small non-negative ``int`` residues for prime fields.  A
``FieldSpec`` carries the arithmetic; containers (matrices, structure
tensors) hold raw values plus one shared ``FieldSpec``.  Nothing in this
module (or anywhere downstream of it) touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadRationalError, FieldMismatchError, FieldSpecError

RATIONAL = "rational"
PRIME = "prime"

_F0 = Fraction(0)
_F1 = Fraction(1)


# Moduli above this cap are refused before any test; below it the
# Miller-Rabin test with the first twelve primes as bases is exact (it has
# no strong pseudoprime below 3.18 * 10^23; Jiang and Deng 2014).
MAX_MODULUS = 2 ** 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime; ``FieldSpecError`` when ``n`` is above ``MAX_MODULUS``."""
    if n > MAX_MODULUS:
        raise FieldSpecError("modulus is above the cap 2^64")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals, or integers mod a prime p."""

    _noun = "field"
    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.p is not None:
                raise FieldSpecError("rational field takes no modulus")
        elif self.kind == PRIME:
            if self.p.__class__ is not int:
                raise FieldSpecError(f"modulus must be an int, got {self.p!r}")
            if not is_prime(self.p):
                raise FieldSpecError(f"modulus {self.p!r} is not prime")
        else:
            raise FieldSpecError(f"unknown field kind {self.kind!r}")

    def __str__(self):
        return "Q" if self.kind == RATIONAL else f"F_{self.p}"

    @property
    def is_finite(self) -> bool:
        return self.kind == PRIME

    @property
    def zero(self):
        return _F0 if self.kind == RATIONAL else 0

    @property
    def one(self):
        return _F1 if self.kind == RATIONAL else 1

    def add(self, a, b):
        return a + b if self.kind == RATIONAL else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == RATIONAL else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == RATIONAL else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == RATIONAL else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _F1 / a if self.kind == RATIONAL else pow(a, -1, self.p)

    def coerce(self, value):
        """``value`` as a scalar of this field: ints reduced mod p, or made Fractions over Q.

        A ``Fraction`` is kept over Q; anything else (a float, a bool, a
        ``Fraction`` inside a prime field) raises ``FieldMismatchError``.
        """
        cls = value.__class__
        if self.kind == RATIONAL:
            if isinstance(value, Fraction):
                return value
            if cls is int:
                return Fraction(value)
        elif cls is int:
            return value % self.p
        raise FieldMismatchError(f"{value!r} ({cls.__name__}) is not a scalar of {self}")

    def parse(self, text: str):
        """Parse a scalar literal: an integer string or ``a/b``."""
        s = text.strip()
        num_s, sep, den_s = s.partition("/")
        try:
            num = int(num_s)
            den = int(den_s) if sep else 1
        except ValueError:
            raise BadRationalError(f"malformed scalar literal {text!r}") from None
        if sep and (den_s.startswith(("+", "-")) or den <= 0):
            raise BadRationalError(f"denominator must be a positive integer: {text!r}")
        if self.kind == RATIONAL:
            return Fraction(num, den) if sep else Fraction(num)
        p = self.p
        if den % p == 0:
            raise BadRationalError(f"denominator of {text!r} is divisible by p={p}")
        return num * pow(den, -1, p) % p if sep else num % p

    def convert_from_rational(self, value):
        """Map a rational scalar into this field; error if p divides the denominator."""
        frac = Fraction(value)
        if self.kind == RATIONAL:
            return frac
        if frac.denominator % self.p == 0:
            raise BadRationalError(
                f"{frac} has no image mod {self.p} (denominator divisible by p)")
        return (frac.numerator % self.p) * pow(frac.denominator % self.p, -1, self.p) % self.p


RATIONALS = FieldSpec(RATIONAL)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p)


def same_field(a: FieldSpec, b: FieldSpec) -> FieldSpec:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")
    return a
