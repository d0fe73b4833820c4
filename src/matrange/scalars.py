"""Exact arithmetic over the Gaussian rationals Q(i).

A GaussianRational is a pair of ``fractions.Fraction`` components; Fraction
already keeps numerator/denominator reduced with a positive denominator, so
canonical form is automatic and equality is component-wise.

Text format: "p/q" for real values (integer shorthand "p" when q = 1),
"p/q+r/si" / "p/q-r/si" otherwise. Rendering is whitespace-free and
canonical; the parser additionally accepts surrounding whitespace and a
pure-imaginary shorthand like "2i" or "-1/3i".
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ParseError

__all__ = ["GaussianRational", "Qi", "parse_scalar", "render_scalar"]


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(i)")
        n = other.norm()
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __pow__(self, n: int) -> "GaussianRational":
        out = ONE
        base = self
        for _ in range(n):
            out = out * base
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2; zero iff the value is zero."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def sort_key(self):
        """Canonical (re, im) lexicographic ordering used for deterministic
        block layouts and tie-breaking."""
        return (self.re, self.im)

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"Qi({render_scalar(self)!r})"


def Qi(re=0, im=0) -> GaussianRational:
    """Convenience constructor: Qi(1, 2) == 1+2i, Qi("1/2") == 1/2."""
    if isinstance(re, GaussianRational):
        return re
    if isinstance(re, str) and im == 0:
        return parse_scalar(re)
    return GaussianRational(Fraction(re), Fraction(im))


ZERO = Qi(0)
ONE = Qi(1)
I = Qi(0, 1)


# -- Gaussian integers -----------------------------------------------------------
# The integer cores of the engine hold a Gaussian integer as an (re, im) pair of
# ints. These two helpers are the only conversions between Q(i) and Z[i].


def _to_zi(values):
    """(pairs, den): den x as a Gaussian integer (re, im) for each x in the
    sequence values, with den the lcm of their denominators (1 if empty)."""
    den = lcm(*(x.re.denominator for x in values), *(x.im.denominator for x in values))
    return [
        (x.re.numerator * (den // x.re.denominator), x.im.numerator * (den // x.im.denominator))
        for x in values
    ], den


def _from_zi(x, d) -> GaussianRational:
    """The Gaussian integer x divided by the nonzero Gaussian integer d."""
    (xr, xi), (dr, di) = x, d
    if di:
        xr, xi, dr = xr * dr + xi * di, xi * dr - xr * di, dr * dr + di * di
    return GaussianRational(Fraction(xr, dr), Fraction(xi, dr))


def _render_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render_scalar(x: GaussianRational) -> str:
    if x.im == 0:
        return _render_fraction(x.re)
    sign = "+" if x.im > 0 else "-"
    return f"{_render_fraction(x.re)}{sign}{_render_fraction(abs(x.im))}i"


_FRACTION_RE = _re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_fraction(token: str) -> Fraction:
    if not _FRACTION_RE.fullmatch(token):
        raise ParseError(f"malformed rational {token!r}")
    num, _, den = token.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as e:  # more digits than int() converts
        raise ParseError(f"rational {token[:20]!r}... too long: {e}") from e
    if den == 0:
        raise ParseError(f"zero denominator in {token!r}")
    return Fraction(num, den)


def parse_scalar(text: str) -> GaussianRational:
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    s = text.strip()
    if not s:
        raise ParseError("empty scalar")
    # split off an imaginary part at the last sign that is not leading
    if s.endswith("i"):
        body = s[:-1]
        cut = max(body.rfind("+", 1), body.rfind("-", 1))
        if cut == -1:
            # pure imaginary: "i", "-i", "3/2i"
            if body in ("", "+"):
                return Qi(0, 1)
            if body == "-":
                return Qi(0, -1)
            return GaussianRational(Fraction(0), _parse_fraction(body))
        re_part, im_part = body[:cut], body[cut:]
        if im_part in ("+", "-"):
            im_part += "1"
        return GaussianRational(_parse_fraction(re_part), _parse_fraction(im_part))
    return GaussianRational(_parse_fraction(s), Fraction(0))
