import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrange.errors import PreconditionError
from matrange.polynomials import (
    InexactDivisionError,
    Poly,
    critical_value_polynomial,
    gaussian_rational_roots,
    gcd_monic,
    multiplicity_multiset,
    squarefree_decomposition,
    _split_prime,
    _squarefree_roots,
)
from matrange.scalars import GaussianRational, Qi
from resultant_oracles import critical_value_polynomial as resultant_in_a
from resultant_oracles import interpolate, resultant
from root_oracles import roots_by_divisors, roots_by_sympy

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
scalars = st.builds(GaussianRational, small_rationals, small_rationals)
polys = st.lists(scalars, min_size=1, max_size=7).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def z_pow(k):
    return Poly.monomial(k)


# -- evaluation and derivatives ------------------------------------------------


def test_eval_square():
    assert z_pow(2)(Qi(3)) == Qi(9)


def test_eval_zk_times_z_minus_1_at_1():
    p = z_pow(2) * Poly([-1, 1])
    assert p(Qi(1)) == Qi(0)


def test_eval_matches_monomial_sum_oracle():
    p = Poly([1, -2, 0, 1])  # z^3 - 2z + 1
    z = Qi(1, 1)
    expected = sum((c * z**k for k, c in enumerate(p.coeffs)), Qi(0))
    assert p(z) == expected


def test_derivative_examples():
    assert z_pow(2).derivative() == Poly([0, 2])
    assert Poly.constant(7).derivative() == Poly.zero()
    # z^3(z-1) = z^4 - z^3 -> 4z^3 - 3z^2
    p = z_pow(3) * Poly([-1, 1])
    assert p.derivative() == Poly([0, 0, -3, 4])


@given(polys, polys)
def test_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


# -- gcd -----------------------------------------------------------------------


def test_gcd_examples():
    assert gcd_monic(z_pow(2), z_pow(3)) == z_pow(2)
    p = Poly.from_roots([1, 1, 2])
    assert gcd_monic(p, p.derivative()) == Poly([-1, 1])
    assert gcd_monic(Poly([1, 0, 1]), Poly([Qi(0, -1), Qi(1)])) == Poly([Qi(0, -1), Qi(1)])


def test_gcd_of_two_zeros_is_an_error():
    with pytest.raises(PreconditionError):
        gcd_monic(Poly.zero(), Poly.zero())


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_divides_both_and_cofactors_coprime(p, q):
    g = gcd_monic(p, q)
    assert g.divides(p) and g.divides(q)
    if g.degree >= 1:
        assert gcd_monic(p.exact_divide(g), q.exact_divide(g)).is_constant()


# -- square-free decomposition -------------------------------------------------


def test_squarefree_examples():
    p = Poly.from_roots([1, 1, 3])
    decomp = squarefree_decomposition(p)
    assert sorted(decomp, key=lambda fm: fm[1]) == [
        (Poly([-3, 1]), 1),
        (Poly([-1, 1]), 2),
    ]
    assert squarefree_decomposition(z_pow(2)) == [(z_pow(1), 2)]
    p = z_pow(2) * Poly([-1, 1])
    assert sorted(squarefree_decomposition(p), key=lambda fm: fm[1]) == [
        (Poly([-1, 1]), 1),
        (z_pow(1), 2),
    ]


def test_squarefree_rejects_constants():
    with pytest.raises(PreconditionError):
        squarefree_decomposition(Poly.constant(4))
    with pytest.raises(PreconditionError):
        squarefree_decomposition(Poly.zero())


def test_squarefree_reassembly_randomized(rng):
    for _ in range(30):
        factors = [
            (Poly.from_roots([Qi(rng.randint(-3, 3), rng.randint(-1, 1))]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        lead = Qi(rng.randint(1, 4))
        p = reduce(lambda acc, fm: acc * fm[0] ** fm[1], factors, Poly.constant(lead))
        rebuilt = reduce(
            lambda acc, fm: acc * fm[0] ** fm[1],
            squarefree_decomposition(p),
            Poly.constant(p.leading()),
        )
        assert rebuilt == p


# -- exact division ------------------------------------------------------------


def test_exact_divide_examples():
    assert z_pow(2).exact_divide(z_pow(1)) == z_pow(1)
    assert Poly([-1, 0, 1]).exact_divide(Poly([-1, 1])) == Poly([1, 1])
    with pytest.raises(InexactDivisionError):
        Poly([1, 0, 1]).exact_divide(Poly([1, 1]))


# -- roots in Q(i) -------------------------------------------------------------


def test_root_examples():
    assert [(r.root, r.multiplicity) for r in gaussian_rational_roots(z_pow(2))] == [(Qi(0), 2)]
    roots = gaussian_rational_roots(Poly([1, 0, 1]))
    assert {(r.root, r.multiplicity) for r in roots} == {(Qi(0, 1), 1), (Qi(0, -1), 1)}
    assert gaussian_rational_roots(Poly([-2, 0, 1])) == []


def test_root_multiplicity_certified_by_division(rng):
    for _ in range(25):
        roots = [Qi(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in roots]
        p = Poly.constant(1)
        for r, m in zip(roots, mults):
            p = p * Poly.from_roots([r] * m)
        for rm in gaussian_rational_roots(p):
            factor = Poly.from_roots([rm.root] * rm.multiplicity)
            q = p.exact_divide(factor)
            assert not q(rm.root).is_zero()


def test_roots_with_fractional_and_imaginary_parts():
    # (2z - 1)(z - (1+i)) scaled by 3
    p = (Poly([-1, 2]) * Poly([Qi(-1, -1), Qi(1)])).scale(3)
    found = {(r.root, r.multiplicity) for r in gaussian_rational_roots(p)}
    assert found == {(Qi("1/2"), 1), (Qi(1, 1), 1)}


def sorted_roots(roots):
    return sorted(r.sort_key() for r in roots)


def test_divisor_enumeration_root_finder_agrees_with_factorization(rng):
    for _ in range(20):
        roots = {Qi(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))}
        p = Poly.from_roots(roots) * Poly([1, 0, 1] if rng.random() < 0.5 else [1])
        p = gcd_monic(p, p)  # monic normalization
        if not gcd_monic(p, p.derivative()).is_constant():
            continue  # keep it square-free (z^2+1 may collide with chosen roots)
        assert sorted_roots(_squarefree_roots(p)) == sorted_roots(roots_by_divisors(p))


def test_split_prime_skips_primes_where_an_image_is_not_squarefree():
    # (z - 1)(z - 66): the roots meet mod 5 and mod 13 under both embeddings
    assert _split_prime([(66, 0), (-67, 0), (1, 0)]) == (17, 13)
    # (z - 2)(z - i): they meet mod 5 only under i -> 2, not under i -> -2
    assert _split_prime([(0, 2), (-2, -1), (1, 0)]) == (13, 8)


def test_lifting_root_finder_matches_sympy_oracle():
    rng = random.Random(5)

    def gaussian(height, denom):
        return GaussianRational(
            Fraction(rng.randint(-height, height), rng.randint(1, denom)),
            Fraction(rng.randint(-height, height), rng.randint(1, denom)),
        )

    cases = [
        Poly.monomial(1),
        Poly([0, -4, 0, 1]),  # root 0 among real integers
        Poly([1, 0, 1]),  # +-i
        Poly([2, 0, 1]),  # irreducible, no Q(i) root
        Poly([-2, 0, 0, 1]) * Poly([Qi(0, -1), Qi(1)]),  # irreducible cubic times z - i
        Poly.from_roots([1, 66]),  # prime search skips 5 and 13
        Poly.from_roots([2, Qi(0, 1)]),
        Poly.from_roots([Qi("1/2"), Qi("-3/7"), 5], leading=Qi(3, 2)),
    ]
    while len(cases) < 40:
        p = Poly.from_roots([gaussian(9, 4) for _ in range(rng.randint(1, 6))])
        p = p * Poly(rng.choice([[1], [0, 1], [1, 0, 1], [2, 0, 1], [-2, 0, 0, 1]]))
        p = p.scale(gaussian(6, 3))
        if not p.is_zero() and gcd_monic(p, p.derivative()).is_constant():
            cases.append(p)
    for p in cases:
        assert sorted_roots(_squarefree_roots(p)) == sorted_roots(roots_by_sympy(p)), p


# -- resultants and critical values --------------------------------------------


def test_resultant_matches_root_product():
    # Res(p, q) = lc(p)^deg q * prod q(root of p) for split p
    p = Poly.from_roots([1, 2]).scale(3)
    q = Poly.from_roots([5, Qi(0, 1)])
    expected = Qi(9) * q(Qi(1)) * q(Qi(2))
    assert resultant(p, q) == expected


def test_interpolation_round_trip(rng):
    p = Poly([Qi(rng.randint(-4, 4)) for _ in range(5)])
    points = [(Qi(x), p(Qi(x))) for x in range(6)]
    assert interpolate(points) == p


def test_critical_value_polynomial_examples():
    d = critical_value_polynomial(z_pow(2))
    assert [(r.root, r.multiplicity) for r in gaussian_rational_roots(d)] == [(Qi(0), 1)]
    d3 = critical_value_polynomial(z_pow(3))
    assert all(r.root == Qi(0) for r in gaussian_rational_roots(d3))
    # P = z^2(z-1): critical values P(0) = 0 and P(2/3) = -4/27
    d = critical_value_polynomial(z_pow(2) * Poly([-1, 1]))
    values = {r.root for r in gaussian_rational_roots(d)}
    assert values == {Qi(0), Qi("-4/27")}


def test_critical_value_polynomial_is_the_monic_resultant():
    rng = random.Random(7)

    def gaussian(height, denom):
        return GaussianRational(
            Fraction(rng.randint(-height, height), rng.randint(1, denom)),
            Fraction(rng.randint(1, height), rng.randint(1, denom)),  # never zero
        )

    cases = [z_pow(k) for k in range(2, 13)]
    while len(cases) < 20:  # q^2 + t: repeated critical points at the roots of q
        q = Poly.from_roots([gaussian(3, 2) for _ in range(rng.randint(1, 6))])
        cases.append(q * q + Poly.constant(gaussian(5, 3)))
    while len(cases) < 30:  # dense, Gaussian leading coefficient
        cases.append(Poly([gaussian(9, 5) for _ in range(rng.randint(3, 13))]))
    while len(cases) < 40:  # a multiple root of p is also a root of p'
        roots = [gaussian(4, 2) for _ in range(rng.randint(1, 3))] * rng.randint(2, 3)
        cases.append(Poly.from_roots(roots + [gaussian(4, 2)], leading=gaussian(3, 3)))
    for p in cases:
        assert 2 <= p.degree <= 12, p
        d = critical_value_polynomial(p)
        assert d.degree == p.degree - 1 and d == d.monic(), p
        assert d == resultant_in_a(p).monic(), p


def test_critical_value_polynomial_rejects_low_degree():
    with pytest.raises(PreconditionError):
        critical_value_polynomial(Poly([0, 1]))


def test_critical_value_polynomial_vanishing_iff_multiple_root(rng):
    for _ in range(20):
        roots = [Qi(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(rng.randint(2, 4))]
        p = Poly.from_roots(roots)
        if p.degree < 2:
            continue
        d = critical_value_polynomial(p)
        samples = [Qi(k) for k in range(-10, 10)] + [r.root for r in gaussian_rational_roots(d)]
        for a in samples:
            vanishes = d(a).is_zero()
            multiple = not gcd_monic(p.shift(a), p.derivative()).is_constant()
            assert vanishes == multiple
