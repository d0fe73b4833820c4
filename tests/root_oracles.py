"""Independent Q(i) root finders for square-free polynomials, kept only to
cross-check matrange.polynomials._squarefree_roots.

* ``roots_by_sympy``: exact factorization over the Gaussian rationals
  (sympy's QQ_I domain), keeping the linear factors.
* ``roots_by_divisors``: the rational-root theorem over Z[i]. Candidates are
  p/q with p a divisor of the constant term and q of the leading term, up to
  units; divisors are enumerated by brute force over norms, so it is only
  viable for small coefficients.
"""

from fractions import Fraction
from math import isqrt, lcm

from matrange.polynomials import Poly
from matrange.scalars import ZERO, GaussianRational

UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def roots_by_sympy(s: Poly):
    import sympy

    z = sympy.Symbol("z")
    coeffs = [
        sympy.Rational(c.re.numerator, c.re.denominator)
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for c in reversed(s.coeffs)
    ]
    roots = []
    for factor, _ in sympy.Poly(coeffs, z, domain="QQ_I").factor_list()[1]:
        if factor.degree() != 1:
            continue
        lead, const = factor.all_coeffs()
        re_part, im_part = sympy.expand(-const / lead).as_real_imag()
        roots.append(
            GaussianRational(Fraction(re_part.p, re_part.q), Fraction(im_part.p, im_part.q))
        )
    return roots


def gaussian_divisors(z):
    """Divisors of nonzero z in Z[i], one per associate class (re > 0, im >= 0)."""
    a, b = z
    n = a * a + b * b
    r = isqrt(n)
    return [
        (x, y)
        for x in range(1, r + 1)
        for y in range(r + 1)
        if n % (x * x + y * y) == 0
        and (a * x + b * y) % (x * x + y * y) == 0
        and (b * x - a * y) % (x * x + y * y) == 0
    ]


def roots_by_divisors(s: Poly):
    roots = []
    if s.coeff(0).is_zero():
        roots.append(ZERO)
        s = s.exact_divide(Poly.monomial(1))
    if s.degree < 1:
        return roots
    m = lcm(*(c.re.denominator for c in s.coeffs), *(c.im.denominator for c in s.coeffs))
    c0, cl = ((int(c.re * m), int(c.im * m)) for c in (s.coeffs[0], s.coeffs[-1]))
    candidates = set()
    for d in gaussian_divisors(c0):
        for e in gaussian_divisors(cl):
            for u in UNITS:
                num = (u[0] * d[0] - u[1] * d[1], u[0] * d[1] + u[1] * d[0])
                norm = e[0] ** 2 + e[1] ** 2
                candidates.add(
                    GaussianRational(
                        Fraction(num[0] * e[0] + num[1] * e[1], norm),
                        Fraction(num[1] * e[0] - num[0] * e[1], norm),
                    )
                )
    roots.extend(z for z in candidates if s(z).is_zero())
    return roots
