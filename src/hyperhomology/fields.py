"""Exact coefficient fields for chain computations.

Two fields are supported: the rationals (default) and Z/p for a prime p.
Rank computations never touch floating point.  A Q scalar is an ``int``, or
a ``fractions.Fraction`` when it is not integral; a Z/p scalar is an ``int``
in [0, p), which the elimination code in ``linalg`` keeps reduced mod
``characteristic``.  So no wrapper object is built for an integer.
"""

from __future__ import annotations

from fractions import Fraction

_rational = Fraction  # the one non-integral Q scalar type, named in bench reports


class RationalField:
    """The rationals; a scalar is an int, or a Fraction when it is not integral."""

    name = "Q"
    characteristic = 0
    one = 1

    def from_int(self, value: int) -> int:
        return int(value)

    def from_fraction(self, value):
        fr = _rational(value)
        return fr.numerator if fr.denominator == 1 else fr

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
