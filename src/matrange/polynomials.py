"""Exact univariate polynomial algebra over Q(i).

Everything here is pure and exact: Horner evaluation, formal derivatives,
monic Euclidean gcd, Yun square-free decomposition, exact division, root
finding in Q(i) via the rational-root theorem over Z[i], and the critical
value polynomial D(a) = Res_z(P(z) - a, P'(z)) computed by
evaluation-interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import InternalInvariantError, ParseError, PreconditionError
from .gaussints import UNITS, gaussian_divisors
from .scalars import ONE, ZERO, GaussianRational, Qi, parse_scalar, render_scalar

__all__ = [
    "Poly",
    "RootWithMultiplicity",
    "InexactDivisionError",
    "critical_value_polynomial",
    "resultant",
    "interpolate",
]


class InexactDivisionError(PreconditionError):
    """Division left a nonzero remainder. An expected outcome for
    divisibility tests, not a bug."""


@dataclass(frozen=True)
class RootWithMultiplicity:
    root: GaussianRational
    multiplicity: int


class Poly:
    """Immutable polynomial; coeffs[k] is the coefficient of z^k.
    The zero polynomial is the empty coefficient tuple (degree -1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, GaussianRational) else Qi(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((Qi(c),))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly((0,) * k + (c,))

    @staticmethod
    def from_roots(roots, leading=1) -> "Poly":
        p = Poly.constant(leading)
        for r in roots:
            p = p * Poly((-Qi(r), ONE))
        return p

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly([{', '.join(render_scalar(c) for c in self.coeffs)}])"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Qi(c)
        return Poly([a * c for a in self.coeffs])

    def shift(self, a) -> "Poly":
        """self - a (subtract a constant)."""
        return self - Poly.constant(a)

    def __pow__(self, n: int) -> "Poly":
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = other.leading().inverse()
        quot = [ZERO] * max(0, len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k].is_zero():
                continue
            q = rem[k] * lead_inv
            quot[k - d] = q
            for j in range(d + 1):
                rem[k - d + j] = rem[k - d + j] - q * other.coeffs[j]
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_divide(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivisionError(f"{other!r} does not divide {self!r}")
        return q

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    # -- calculus -------------------------------------------------------------

    def __call__(self, z) -> GaussianRational:
        z = Qi(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self, order: int = 1) -> "Poly":
        p = self
        for _ in range(order):
            p = Poly([p.coeffs[k] * Qi(k) for k in range(1, len(p.coeffs))])
        return p

    # -- text format ----------------------------------------------------------

    def render(self):
        """Canonical list-of-scalar-strings form, trailing zeros trimmed."""
        return [render_scalar(c) for c in self.coeffs]

    @staticmethod
    def parse(items) -> "Poly":
        if not isinstance(items, (list, tuple)):
            raise ParseError("polynomial must be a list of scalar strings")
        return Poly([parse_scalar(s) for s in items])


# -- gcd and square-free structure --------------------------------------------


def gcd_monic(p: Poly, q: Poly) -> Poly:
    if p.is_zero() and q.is_zero():
        raise PreconditionError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition(p: Poly):
    """Yun's algorithm. Returns [(monic square-free factor, multiplicity)] with
    p = leading * prod factor^mult; factors pairwise coprime, degree >= 1."""
    if p.is_zero() or p.is_constant():
        raise PreconditionError("square-free decomposition needs degree >= 1")
    f = p.monic()
    fp = f.derivative()
    c = gcd_monic(f, fp)
    w = f.exact_divide(c)
    y = fp.exact_divide(c)
    z = y - w.derivative()
    out = []
    i = 1
    while not w.is_constant():
        g = gcd_monic(w, z) if not z.is_zero() else w.monic()
        if g.degree >= 1:
            out.append((g, i))
        w = w.exact_divide(g)
        y = z.exact_divide(g)
        z = y - w.derivative()
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    return reduce(lambda a, b: a * b, (f for f, _ in squarefree_decomposition(p)), Poly.constant(1))


def multiplicity_multiset(p: Poly):
    """Multiset (sorted list) of root multiplicities of p over C, one entry per
    root; exact without root extraction via square-free factor degrees."""
    out = []
    for factor, mult in squarefree_decomposition(p):
        out.extend([mult] * factor.degree)
    return sorted(out)


# -- roots in Q(i) -------------------------------------------------------------


def _clear_denominators(p: Poly):
    """Scale p to Z[i] coefficients, returned as (re, im) integer pairs."""
    denoms = [c.re.denominator for c in p.coeffs] + [c.im.denominator for c in p.coeffs]
    m = lcm(*denoms) if denoms else 1
    return [(int(c.re * m), int(c.im * m)) for c in p.coeffs]


def _squarefree_roots(s: Poly):
    """Roots in Q(i) of a square-free polynomial s (each is simple).

    Exact factorization over the Gaussian rationals (sympy's QQ_I domain);
    no integer factorization involved, so coefficient size only costs
    polynomial time. The divisor-enumeration finder below stays as an
    independent cross-check for small inputs."""
    import sympy

    z = sympy.Symbol("z")
    coeffs = [
        sympy.Rational(c.re.numerator, c.re.denominator)
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for c in reversed(s.coeffs)
    ]
    sp = sympy.Poly(coeffs, z, domain="QQ_I")
    roots = []
    for factor, _ in sp.factor_list()[1]:
        if factor.degree() != 1:
            continue
        lead, const = factor.all_coeffs()
        re_part, im_part = sympy.expand(-const / lead).as_real_imag()
        roots.append(
            GaussianRational(
                Fraction(re_part.p, re_part.q), Fraction(im_part.p, im_part.q)
            )
        )
    return roots


def _squarefree_roots_by_divisors(s: Poly):
    """Rational-root-theorem finder over Z[i]: candidates p/q with p a
    Gaussian-integer divisor of the constant term and q of the leading term,
    up to units. Exact but needs to factor integer norms, so only viable for
    small coefficients; kept as a test oracle for the sympy path."""
    roots = []
    # peel a root at zero first so divisor enumeration sees a nonzero constant
    if s.coeff(0).is_zero():
        roots.append(ZERO)
        s = s.exact_divide(Poly.monomial(1))
    if s.degree < 1:
        return roots
    ints = _clear_denominators(s)
    c0, cl = ints[0], ints[-1]
    candidates = set()
    for d in gaussian_divisors(c0):
        for e in gaussian_divisors(cl):
            for u in UNITS:
                num = (u[0] * d[0] - u[1] * d[1], u[0] * d[1] + u[1] * d[0])
                candidates.add(
                    GaussianRational(
                        Fraction(num[0] * e[0] + num[1] * e[1], e[0] ** 2 + e[1] ** 2),
                        Fraction(num[1] * e[0] - num[0] * e[1], e[0] ** 2 + e[1] ** 2),
                    )
                )
    roots.extend(z for z in candidates if s(z).is_zero())
    return roots


def gaussian_rational_roots(p: Poly):
    """All roots of p lying in Q(i), with exact multiplicities, sorted by the
    canonical scalar ordering. Roots outside Q(i) are not reported."""
    if p.is_zero() or p.is_constant():
        raise PreconditionError("root finding needs degree >= 1")
    found = []
    for factor, mult in squarefree_decomposition(p):
        for r in _squarefree_roots(factor):
            found.append(RootWithMultiplicity(r, mult))
    found.sort(key=lambda rm: rm.root.sort_key())
    return found


# -- resultants and the critical value polynomial ------------------------------


def resultant(p: Poly, q: Poly) -> GaussianRational:
    """Res(p, q) by the Euclidean remainder sequence with leading-coefficient
    bookkeeping; exact over Q(i)."""
    if p.is_zero() or q.is_zero():
        return ZERO
    sign = ONE
    acc = ONE
    while True:
        if q.is_constant():
            return sign * acc * (q.leading() ** p.degree if p.degree >= 0 else ONE)
        if p.degree < q.degree:
            if (p.degree * q.degree) % 2 == 1:
                sign = -sign
            p, q = q, p
            continue
        r = p % q
        if r.is_zero():
            return ZERO
        acc = acc * q.leading() ** (p.degree - r.degree)
        if (p.degree * q.degree) % 2 == 1:
            sign = -sign
        p, q = q, r


def interpolate(points) -> Poly:
    """Lagrange interpolation through [(x, y)] with distinct x, exact."""
    total = Poly.zero()
    for i, (xi, yi) in enumerate(points):
        basis = Poly.constant(1)
        denom = ONE
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = basis * Poly((-xj, ONE))
            denom = denom * (xi - xj)
        total = total + basis.scale(yi / denom)
    return total


def critical_value_polynomial(p: Poly) -> Poly:
    """D(a) = Res_z(p(z) - a, p'(z)): vanishes exactly at the critical values
    of p, the only candidates for a totally ramified value."""
    if p.degree < 2:
        raise PreconditionError("critical values need degree >= 2")
    dp = p.derivative()
    samples = []
    for j in range(p.degree):  # D has degree <= deg p - 1
        a = Qi(j)
        samples.append((a, resultant(p.shift(a), dp)))
    d = interpolate(samples)
    if d.is_zero():
        raise InternalInvariantError("critical value polynomial vanished identically")
    return d
