"""Exact coefficient fields for chain computations.

Two fields are supported: the rationals (default) and Z/p for a prime p.
Rank computations never touch floating point.  When gmpy2 is installed its
``mpq`` type is used for rational scalars; otherwise ``fractions.Fraction``
is the (slower, pure stdlib) fallback.  A Z/p scalar is a plain ``int`` in
[0, p): the elimination code in ``linalg`` reduces mod ``characteristic``
whenever it is nonzero, so no wrapper object is ever built.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _rational = Fraction


class RationalField:
    """The field of rational numbers with exact arithmetic."""

    name = "Q"
    characteristic = 0

    def from_int(self, value: int):
        return _rational(value)

    def from_fraction(self, value):
        fr = Fraction(value)
        return _rational(fr.numerator) / _rational(fr.denominator)

    @property
    def zero(self):
        return _rational(0)

    @property
    def one(self):
        return _rational(1)

    def __repr__(self):
        return "QQ"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The finite field Z/p for a prime p; its scalars are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Z{p}"
        self.characteristic = p

    def from_int(self, value: int) -> int:
        return value % self.p

    def from_fraction(self, value) -> int:
        fr = Fraction(value)
        if not fr.denominator % self.p:
            raise ZeroDivisionError("division by zero in Z/p")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()


def field_by_name(name: str):
    """Resolve "Q" or a prime written in decimal to a field object."""
    text = str(name).strip()
    if text.upper() == "Q":
        return QQ
    try:
        p = int(text)
    except ValueError as exc:
        raise ValueError(f"unknown field {name!r}; expected 'Q' or a prime") from exc
    return PrimeField(p)
