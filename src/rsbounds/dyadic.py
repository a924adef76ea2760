"""Exact dyadic rationals u / 2^k used as certification anchor points,
with the one grammar (DyadicPoint.parse) that reads them from the command
line and from center tables."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


def lowest_terms(u: int, v: int, k: int) -> tuple[int, int, int]:
    """(u, v, k) at the joint minimal scale of u / 2^k and v / 2^k: equal
    results are equal pairs, whatever the scale they were given at."""
    low = u | v
    t = min((low & -low).bit_length() - 1, k) if low else k
    return u >> t, v >> t, k - t


@dataclass(frozen=True)
class DyadicPoint:
    """Non-negative dyadic rational u / 2^k in canonical form (u odd or k = 0).

    The canonical k is the minimal scale making 2^k x an integer, which is
    the scale used for all scaling identities.
    """

    u: int
    k: int

    def __post_init__(self):
        if self.u < 0 or self.k < 0:
            raise ValueError("dyadic point requires u >= 0 and k >= 0")
        u, _, k = lowest_terms(self.u, 0, self.k)
        object.__setattr__(self, 'u', u)
        object.__setattr__(self, 'k', k)

    @classmethod
    def from_fraction(cls, x: Fraction) -> "DyadicPoint":
        den = x.denominator
        if den & (den - 1):
            raise ValueError(f"{x} is not dyadic")
        return cls(x.numerator, den.bit_length() - 1)

    @classmethod
    def parse(cls, text: str) -> "DyadicPoint":
        """Parse a dyadic point: a command-line point or a line of a
        center table, which share this one grammar.

        'a/b' is a fraction whose reduced denominator is a power of two,
        bare decimal digits are an integer ('10' is ten), and a binary
        string needs a digit before its point ('10.' is two, '1.011' is
        11/8).  Anything else ('.', '.1', '1.2') raises ValueError.
        """
        s = text.strip()
        if re.fullmatch(r'[0-9]+/[0-9]+', s):
            num, den = (int(part) for part in s.split('/'))
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return cls.from_fraction(Fraction(num, den))
        if re.fullmatch(r'[0-9]+', s):
            return cls(int(s), 0)
        binary = re.fullmatch(r'([01]+)\.([01]*)', s)
        if binary:
            return cls(int(binary[1] + binary[2], 2), len(binary[2]))
        raise ValueError(
            f"invalid dyadic point {text!r}: expected a/b, a decimal "
            f"integer, or a binary string with a point such as 1.011")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.u, 1 << self.k)

    def __float__(self) -> float:
        return self.u / (1 << self.k)

    def scaled_numerator(self, k: int) -> int:
        """Integer 2^k x; requires k >= self.k."""
        if k < self.k:
            raise ValueError(f"scale {k} below canonical scale {self.k}")
        return self.u << (k - self.k)

    def to_binary(self) -> str:
        """Binary digits with a point, which parse reads back."""
        ip = self.u >> self.k
        frac = self.u - (ip << self.k)
        bits = format(frac, f'0{self.k}b') if self.k else ''
        return f"{ip:b}.{bits}"

    def __str__(self) -> str:
        return f"{self.u}/2^{self.k}"
