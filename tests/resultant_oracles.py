"""The critical value polynomial by resultants, kept only to cross-check
matrange.polynomials.critical_value_polynomial.

D(a) = Res_z(p(z) - a, p'(z)) is sampled at a = 0, 1, ..., deg p - 1, each
sample a Euclidean resultant over Q(i), and recovered by Lagrange
interpolation.
"""

from matrange.polynomials import Poly
from matrange.scalars import ONE, ZERO, GaussianRational, Qi


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
    """Res_z(p(z) - a, p'(z)) as a polynomial in a, by evaluation and
    interpolation (D has degree deg p - 1)."""
    dp = p.derivative()
    return interpolate([(Qi(j), resultant(p.shift(Qi(j)), dp)) for j in range(p.degree)])
