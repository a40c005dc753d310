"""Exact scalars over the rationals and over prime fields.

Scalar values are plain Python objects: small non-negative ``int`` residues
for prime fields, and over the rationals one normal form, ``_q``: an ``int``
when the value is integral, a ``fractions.Fraction`` with denominator > 1
otherwise.  The two compare, hash and print alike (``Fraction(3) == 3``,
``str`` gives ``3`` for both), so the form never changes an emitted byte;
it only keeps integer arithmetic on ints.  A ``FieldSpec`` carries the
arithmetic; containers (matrices, structure tensors) hold raw values plus
one shared ``FieldSpec``.  Nothing in this module (or anywhere downstream
of it) touches floating point: the one division, ``inv``, builds a
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadRationalError, FieldMismatchError, FieldSpecError

RATIONAL = "rational"
PRIME = "prime"


def _q(x):
    """The rational ``x`` (an ``int`` or a ``Fraction``) in normal form."""
    return x.numerator if x.denominator == 1 else x


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

    zero, one = 0, 1  # in both kinds of field; over Q, the normal forms of 0 and 1

    def add(self, a, b):
        return _q(a + b) if self.kind == RATIONAL else (a + b) % self.p

    def sub(self, a, b):
        return _q(a - b) if self.kind == RATIONAL else (a - b) % self.p

    def mul(self, a, b):
        return _q(a * b) if self.kind == RATIONAL else (a * b) % self.p

    def neg(self, a):
        return _q(-a) if self.kind == RATIONAL else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _q(Fraction(1, a)) if self.kind == RATIONAL else pow(a, -1, self.p)

    def coerce(self, value):
        """``value`` as a scalar of this field: ints reduced mod p, or put in normal form over Q.

        Over Q an ``int`` is kept and a ``Fraction`` becomes its normal form
        (``_q``); anything else (a float, a bool, a ``Fraction`` inside a
        prime field) raises ``FieldMismatchError``.
        """
        cls = value.__class__
        if self.kind == RATIONAL:
            if cls is int:
                return value
            if isinstance(value, Fraction):
                return _q(value)
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
            return _q(Fraction(num, den)) if sep else num
        p = self.p
        if den % p == 0:
            raise BadRationalError(f"denominator of {text!r} is divisible by p={p}")
        return num * pow(den, -1, p) % p if sep else num % p

    def convert_from_rational(self, value):
        """Map a rational scalar into this field; error if p divides the denominator.

        ``value`` is brought into Q first (``RATIONALS.coerce``), so a float
        or a bool raises ``FieldMismatchError``.
        """
        q = RATIONALS.coerce(value)
        if self.kind == RATIONAL:
            return q
        p = self.p
        if q.denominator % p == 0:
            raise BadRationalError(f"{q} has no image mod {p} (denominator divisible by p)")
        return q.numerator * pow(q.denominator, -1, p) % p


RATIONALS = FieldSpec(RATIONAL)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p)


def same_field(a: FieldSpec, b: FieldSpec) -> FieldSpec:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")
    return a
