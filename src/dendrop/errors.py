"""Exception types shared across the package, and the one refusal of a wrong class.

An argument of the wrong class is refused by ``_expect(obj, cls, *more)``
and by nothing else: ``obj`` must be exactly one of those classes (a
subclass is refused too), and the ``KindMismatchError`` names each
accepted class by its ``_noun`` and the class it got, as in "expected a
dialgebra or a trialgebra, got an Algebra".  The rules that read a
value once its class is right (an operator's kind and weight, matching
fields, shapes and dimensions) raise their own errors after it.
"""


class DendropError(Exception):
    """Base class for all library errors."""


class ArgumentError(DendropError, ValueError):
    """Argument outside the values a library function accepts."""


# -- fields and exact linear algebra -----------------------------------------

class FieldSpecError(DendropError, ValueError):
    """Field description is invalid, e.g. a non-prime modulus."""


class SingularMatrixError(DendropError):
    """Matrix has determinant zero; no inverse exists."""


class NoSolutionError(DendropError):
    """Right-hand side is not in the column span of the matrix."""


class DimensionMismatchError(DendropError):
    """Operands have incompatible dimensions."""


class FieldMismatchError(DendropError):
    """Operands live over different ground fields."""


# -- structures and operators ------------------------------------------------

class NotAssociativeError(DendropError):
    """Algebra fails the associativity check required here."""


class KindMismatchError(DendropError):
    """Operator or structure has the wrong kind for this operation."""


class NotInvertibleError(DendropError):
    """Witness matrix is singular where a bijection is required."""


class NotIntertwiningError(DendropError):
    """Candidate map fails the required morphism identities."""


class NotMultiplicativeError(DendropError):
    """Candidate map is not an algebra homomorphism."""


class InvalidOperatorError(DendropError):
    """Operator fails its defining relation; construction refused."""


class InvalidDendriformError(DendropError):
    """Dendriform structure fails its axioms; construction refused."""


class KernelNotIdealError(DendropError):
    """Kernel of the operator is not an ideal of the domain product."""


# -- enumeration -------------------------------------------------------------

class BudgetExceededError(DendropError):
    """Candidate space larger than the configured enumeration budget."""


class FieldNotFiniteError(DendropError):
    """Operation requires a finite ground field."""


class DimensionCapError(DendropError):
    """Dimension above the configured hard cap for exhaustive search."""


# -- command line ------------------------------------------------------------

class UsageError(DendropError):
    """Command-line flag or environment value outside its allowed range."""


# -- document format ---------------------------------------------------------

class DocumentSyntaxError(DendropError):
    """Input is not well-formed JSON; position reported when known."""


class SchemaError(DendropError):
    """Document violates the schema; offending field named in message."""


class BadRationalError(DendropError):
    """Malformed scalar literal (e.g. zero denominator)."""


# -- refusing an argument of the wrong class ---------------------------------

def _with_article(noun: str) -> str:
    """``noun`` after its indefinite article: "an algebra", "a DendriformDi"."""
    return ("an " if noun[0] in "aeiouAEIOU" else "a ") + noun


def _expect(obj, cls, *more) -> None:
    """Refuse ``obj`` unless its class is ``cls`` or one of ``more``, each with a ``_noun``."""
    if type(obj) is not cls and type(obj) not in more:
        *most, last = [_with_article(c._noun) for c in (cls, *more)]
        accepted = f"{', '.join(most)} or {last}" if most else last
        raise KindMismatchError(f"expected {accepted}, got {_with_article(type(obj).__name__)}")
