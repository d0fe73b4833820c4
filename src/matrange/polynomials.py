"""Exact univariate polynomial algebra over Q(i).

Everything here is pure and exact: Horner evaluation, formal derivatives,
monic Euclidean gcd, Yun square-free decomposition, exact division, root
finding in Q(i) by p-adic (Hensel) lifting at a split prime p = 1 (mod 4),
and the critical value polynomial D(a) = Res_z(P(z) - a, P'(z)) made monic,
the characteristic polynomial of multiplication by P modulo P' (public API,
off the decision path). Only integer and Fraction arithmetic is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import isqrt

from .errors import ParseError, PreconditionError
from .scalars import ONE, ZERO, GaussianRational, Qi, _from_zi, _to_zi, parse_scalar, render_scalar

__all__ = [
    "Poly",
    "RootWithMultiplicity",
    "InexactDivisionError",
    "critical_value_polynomial",
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


def multiplicity_multiset(p: Poly, decomposition=None):
    """Multiset (sorted list) of root multiplicities of p over C, one entry per
    root; exact without root extraction via square-free factor degrees. A
    caller that already holds squarefree_decomposition(p) passes it in."""
    out = []
    for factor, mult in decomposition or squarefree_decomposition(p):
        out.extend([mult] * factor.degree)
    return sorted(out)


# -- roots in Q(i) -------------------------------------------------------------


def _horner(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _squarefree_mod(f, p):
    """gcd(f, f') == 1 over F_p, for f monic with integer coefficients."""
    a = [c % p for c in f]
    b = [k * c % p for k, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            off = len(a) - len(b)
            for j, c in enumerate(b):
                a[off + j] = (a[off + j] - q * c) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _hensel_lift(f, x, p, m):
    """Newton-lift a simple root x of f mod p to the root mod m = p^(2^k)."""
    df = [k * c for k, c in enumerate(f)][1:]
    q = p
    while q < m:
        q *= q
        x = (x - _horner(f, x, q) * pow(_horner(df, x, q), -1, q)) % q
    return x


def _split_prime(g):
    """Smallest prime p = 1 (mod 4) with its square root iota of -1 such that
    g stays square-free mod p under both embeddings i -> iota, i -> -iota."""
    for p in count(5, 4):
        if any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
            continue
        iota = next(t for t in (pow(n, (p - 1) // 4, p) for n in count(2)) if t * t % p == p - 1)
        if all(_squarefree_mod([a + b * t for a, b in g], p) for t in (iota, -iota)):
            return p, iota


def _squarefree_roots(s: Poly):
    """Roots in Q(i) of a square-free polynomial s (each is simple), by
    p-adic lifting at a split prime (Loos 1983); exact and deterministic.

    With s cleared to Z[i] coefficients c_j and lc = c_d, the monic
    g(z) = lc^(d-1) s(z/lc) has Z[i] coefficients, and r is a Q(i) root of s
    iff alpha = lc r is a root of g in Z[i] (a root of a monic polynomial
    over Z[i] lying in Q(i) is integral). By Cauchy's bound every root has
    |alpha| <= B = 1 + max |g_j|. Take the smallest prime p = 1 (mod 4) with
    a square root iota of -1 mod p at which g is square-free mod p under both
    ring maps Z[i] -> F_p, i -> iota and i -> -iota; one exists because
    disc(g) != 0 has finitely many prime factors. Lift iota to the root of
    t^2 + 1 mod m = p^(2^k) > 2B. A root alpha = a + bi of g maps to the
    roots x = a + b iota and y = a - b iota of the two images of g mod m;
    mod p those reduce to simple roots, so they are the unique Newton lifts
    of roots found by trying all p residues. Hence every pair (x, y) of
    lifted roots is tried, a = (x + y)/2 and b = (x - y)/(2 iota) are
    recovered exactly as symmetric residues since |a|, |b| <= B < m/2, and
    no root can be missed; each surviving candidate is confirmed by exact
    evaluation of s."""
    roots = []
    if s.coeff(0).is_zero():
        roots.append(ZERO)
        s = Poly(s.coeffs[1:])
    if s.degree < 1:
        return roots
    ints, _ = _to_zi(s.coeffs)
    lc = ints[-1]
    # g_j = c_j lc^(d-1-j) as (re, im) pairs, built from the top down
    g, pw = [(1, 0)], (1, 0)
    for a, b in reversed(ints[:-1]):
        g.append((a * pw[0] - b * pw[1], a * pw[1] + b * pw[0]))
        pw = (pw[0] * lc[0] - pw[1] * lc[1], pw[0] * lc[1] + pw[1] * lc[0])
    g.reverse()
    bound = 2 + max(isqrt(a * a + b * b) for a, b in g[:-1])
    p, iota = _split_prime(g)
    m = p
    while m <= 2 * bound:
        m *= m
    iota = _hensel_lift([1, 0, 1], iota, p, m)
    lifted = []
    for t in (iota, -iota):
        image = [(a + b * t) % m for a, b in g]
        lifted.append(
            [_hensel_lift(image, x, p, m) for x in range(p) if _horner(image, x, p) == 0]
        )
    half, inv2, inv2i = m // 2, pow(2, -1, m), pow(2 * iota, -1, m)
    for x in lifted[0]:
        for y in lifted[1]:
            a, b = (x + y) * inv2 % m, (x - y) * inv2i % m
            a, b = a - m if a > half else a, b - m if b > half else b
            if a * a + b * b <= bound * bound:
                r = _from_zi((a, b), lc)
                if s(r).is_zero():
                    roots.append(r)
    return roots


def gaussian_rational_roots(p: Poly, decomposition=None):
    """All roots of p lying in Q(i), with exact multiplicities, sorted by the
    canonical scalar ordering. Roots outside Q(i) are not reported. A caller
    that already holds squarefree_decomposition(p) passes it in."""
    if p.is_zero() or p.is_constant():
        raise PreconditionError("root finding needs degree >= 1")
    found = []
    for factor, mult in decomposition or squarefree_decomposition(p):
        for r in _squarefree_roots(factor):
            found.append(RootWithMultiplicity(r, mult))
    found.sort(key=lambda rm: rm.root.sort_key())
    return found


# -- the critical value polynomial ----------------------------------------------


def critical_value_polynomial(p: Poly) -> Poly:
    """D(a): vanishes exactly at the critical values of p, the only
    candidates for a totally ramified value. D is monic: the characteristic
    polynomial of multiplication by p on Q(i)[z]/(p'), the matrix whose
    column j is z^j p mod p'. Its eigenvalues are the p(c), each as often as
    c is a root of p', so D is Res_z(p(z) - a, p'(z)) made monic."""
    from .matrices import MatrixQi, char_poly  # matrices imports this module

    if p.degree < 2:
        raise PreconditionError("critical values need degree >= 2")
    dp = p.derivative()
    columns = [p % dp]
    for _ in range(dp.degree - 1):
        columns.append(Poly((ZERO,) + columns[-1].coeffs) % dp)
    return char_poly(MatrixQi([[c.coeff(i) for c in columns] for i in range(dp.degree)]))
