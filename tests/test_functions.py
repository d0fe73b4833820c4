import dataclasses
import random

import numpy as np
import pytest

import trv_oracles
from matrange import functions
from matrange.errors import InternalInvariantError, PreconditionError
from matrange.functions import (
    PreimageKind,
    TheoremCase,
    exp_poly_family,
    polynomial_function,
    preimage_roots,
    ramification_profile,
    sin_family,
    validate,
)
from matrange.polynomials import Poly, squarefree_decomposition
from matrange.scalars import Qi
from matrange.selftest import random_scalar


def poly_f(coeffs):
    return polynomial_function(Poly(coeffs))


# -- profile examples ----------------------------------------------------------


def test_quadratic_has_one_trv_at_vertex_value():
    profile = ramification_profile(poly_f([3, 0, 1]))  # z^2 + 3
    assert profile.theorem_case is TheoremCase.ONE_TRV
    (entry,) = profile.trv_entries
    assert entry.value == Qi(3)
    assert entry.multiplicity_multiset == (2,)


def test_zsquared_z_minus_1_has_no_trv():
    profile = ramification_profile(polynomial_function(Poly.monomial(2) * Poly([-1, 1])))
    assert profile.theorem_case is TheoremCase.NO_TRV
    assert profile.trv_entries == ()


def test_sin_family_profile():
    profile = ramification_profile(sin_family(0, 1, 1, 0))
    assert profile.theorem_case is TheoremCase.TWO_TRV
    assert [e.value for e in profile.trv_entries] == [Qi(0), Qi(1)]
    assert all(e.multiplicity_multiset == (2,) for e in profile.trv_entries)
    assert all(e.has_infinitely_many_preimages for e in profile.trv_entries)


def test_exp_constant_omits_its_value():
    profile = ramification_profile(exp_poly_family(5, Poly([1]), 1, 0))
    assert profile.theorem_case is TheoremCase.OMITS_VALUE
    assert profile.omitted_values == (Qi(5),)
    assert profile.trv_entries == ()


def test_exp_with_double_zero_polynomial_has_trv():
    profile = ramification_profile(exp_poly_family(0, Poly.monomial(2), 1, 0))
    assert profile.theorem_case is TheoremCase.ONE_TRV
    (entry,) = profile.trv_entries
    assert entry.value == Qi(0)
    assert entry.multiplicity_multiset == (2,)
    assert not entry.has_infinitely_many_preimages


def test_exp_with_simple_zero_has_no_trv():
    profile = ramification_profile(exp_poly_family(0, Poly.monomial(1) * Poly.monomial(1) * Poly([-1, 1]), 1, 0))
    # z^2(z-1): the simple zero at 1 blocks total ramification
    assert profile.theorem_case is TheoremCase.NO_TRV


# -- preimage structure --------------------------------------------------------


def test_preimage_of_square_at_zero():
    info = preimage_roots(poly_f([0, 0, 1]), 0)
    assert info.kind is PreimageKind.FINITE
    assert [(r.root, r.multiplicity) for r in info.roots] == [(Qi(0), 2)]
    assert info.complete


def test_preimage_of_sin_family_off_special_values():
    info = preimage_roots(sin_family(0, 1, 1, 0), Qi("1/2"))
    assert info.kind is PreimageKind.INFINITELY_MANY_SIMPLE
    at_trv = preimage_roots(sin_family(0, 1, 1, 0), 1)
    assert at_trv.kind is PreimageKind.INFINITELY_MANY_ALL_MULTIPLICITY_2


def test_preimage_with_irrational_roots_reports_incomplete():
    info = preimage_roots(poly_f([-2, 0, 1]), 0)
    assert info.kind is PreimageKind.FINITE
    assert info.roots == ()
    assert not info.complete
    assert info.multiset == (1, 1)


def test_preimage_of_omitted_value_is_empty():
    assert preimage_roots(exp_poly_family(5, Poly([1]), 1, 0), 5).kind is PreimageKind.EMPTY


# -- construction-time validation ----------------------------------------------


def test_constant_polynomial_rejected():
    with pytest.raises(PreconditionError):
        poly_f([5])


def test_cubic_profile_via_validate():
    profile = validate(poly_f([0, 0, 0, 1]))
    (entry,) = profile.trv_entries
    assert entry.value == Qi(0)
    assert entry.multiplicity_multiset == (3,)


def test_sin_family_requires_distinct_values_and_nonzero_c():
    with pytest.raises(PreconditionError):
        sin_family(1, 1, 1, 0)
    with pytest.raises(PreconditionError):
        sin_family(0, 1, 0, 0)


def test_exp_family_requires_monic_p_and_nonzero_c():
    with pytest.raises(PreconditionError):
        exp_poly_family(0, Poly([0, 2]), 1, 0)
    with pytest.raises(PreconditionError):
        exp_poly_family(0, Poly([1]), 0, 0)


# -- detector properties -------------------------------------------------------


def test_random_polynomials_have_at_most_one_trv(rng):
    for _ in range(40):
        deg = rng.randint(2, 8)
        coeffs = [random_scalar(rng, 2, 2) for _ in range(deg)] + [Qi(1)]
        profile = ramification_profile(polynomial_function(Poly(coeffs)))
        assert len(profile.trv_entries) <= 1


def test_square_plus_shift_detected_exactly(rng):
    for _ in range(15):
        qdeg = rng.randint(1, 3)
        q = Poly([random_scalar(rng, 2, 1) for _ in range(qdeg)] + [Qi(1)])
        t = random_scalar(rng, 3, 2)
        profile = ramification_profile(polynomial_function(q * q + Poly.constant(t)))
        (entry,) = profile.trv_entries
        assert entry.value == t
        assert all(m % 2 == 0 for m in entry.multiplicity_multiset)


def test_rejected_candidates_have_a_simple_factor(rng):
    from matrange.polynomials import critical_value_polynomial, gaussian_rational_roots

    for _ in range(15):
        p = Poly([random_scalar(rng, 2, 1) for _ in range(rng.randint(2, 5))] + [Qi(1)])
        profile = ramification_profile(polynomial_function(p))
        trv_values = {e.value for e in profile.trv_entries}
        for cand in gaussian_rational_roots(critical_value_polynomial(p)):
            if cand.root in trv_values:
                continue
            mults = [m for _, m in squarefree_decomposition(p.shift(cand.root))]
            assert 1 in mults


def test_exact_multiplicities_match_numerical_root_clusters(rng):
    # test-only float cross-check, never in the decision path
    for _ in range(20):
        roots = [random_scalar(rng, 2, 1) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in roots]
        p = Poly.constant(1)
        seen = {}
        for r, m in zip(roots, mults):
            p = p * Poly.from_roots([r] * m)
            seen[complex(r.re, r.im)] = seen.get(complex(r.re, r.im), 0) + m
        coeffs = [complex(c.re, c.im) for c in reversed(p.coeffs)]
        approx = np.roots(coeffs)
        from matrange.polynomials import multiplicity_multiset

        exact = multiplicity_multiset(p)
        # exact roots sit on the Gaussian-integer grid (separation >= 1), so
        # nearest-root assignment tolerates the scatter of multiple roots
        counts = dict.fromkeys(seen, 0)
        for z in approx:
            nearest = min(seen, key=lambda w: abs(z - w))
            assert abs(z - nearest) < 0.1
            counts[nearest] += 1
        assert counts == seen
        assert sorted(seen.values()) == exact


# -- differential oracles: the two detectors built on D -----------------------


def nonzero(c):
    return Qi(1) if c.is_zero() else c


def planted(rng, simple):
    """lc * prod (z - r_i)^m_i + t of degree <= 8, every m_i >= 2 unless
    simple, when some m_i = 1 too."""
    p = Poly.constant(nonzero(random_scalar(rng, 3, 2)))
    low = 1 if simple else 2
    while p.degree < 2 or (p.degree <= 8 - low and rng.random() < 0.6):
        m = rng.randint(low, min(4, 8 - p.degree))
        p = p * Poly.from_roots([random_scalar(rng, 2, 2)] * m)
    return p + Poly.constant(random_scalar(rng, 3, 2))


def dense(rng):
    deg = rng.randint(2, 8)
    lead = random_scalar(rng, 3, 2) if rng.random() < 0.5 else Qi(1)
    return Poly([random_scalar(rng, 3, 1) for _ in range(deg)] + [nonzero(lead)])


def assert_detector_matches(p, oracle):
    profile = ramification_profile(polynomial_function(p))
    got = [(e.value, e.multiplicity_multiset) for e in profile.trv_entries]
    assert got == oracle(p), p
    for e in profile.trv_entries:
        assert e.preimages == preimage_roots(polynomial_function(p), e.value)
    return profile.trv_entries


def test_trv_detector_matches_candidate_search():
    rng = random.Random(10)
    z = Poly.monomial(1)
    corpus = [Poly.monomial(2), Poly.monomial(3) * (z - Poly.constant(1))]  # d/2 edge cases
    corpus += [planted(rng, simple=False) for _ in range(100)]
    corpus += [planted(rng, simple=True) for _ in range(70)]
    corpus += [dense(rng) for _ in range(80)]
    with_trv = 0
    for p in corpus:
        assert trv_oracles.heavy_factor(p) == trv_oracles.candidate_search(p)
        with_trv += bool(assert_detector_matches(p, trv_oracles.candidate_search))
    assert with_trv > 120  # the planted corpus exercises the TRV branch


def test_trv_detector_matches_heavy_factor_up_to_degree_16():
    # preimages outside Q(i): Q^k + t, and lc * Q1^m1 Q2^m2 + t with dense
    # Q, Q1, Q2, once with an extra simple factor; then dense P
    rng = random.Random(16)

    def factor(deg):
        return Poly([random_scalar(rng, 2, 1) for _ in range(deg)] + [Qi(1)])

    def shift():
        return Poly.constant(random_scalar(rng, 3, 2))

    corpus = [factor(rng.randint(1, 4)) ** rng.randint(2, 4) + shift() for _ in range(12)]
    for simple in (False, True) * 6:
        p = factor(rng.randint(1, 3)) ** rng.randint(2, 3) * factor(rng.randint(1, 2)) ** rng.randint(2, 3)
        if simple:
            p = p * factor(1)
        corpus.append(p.scale(nonzero(random_scalar(rng, 3, 2))) + shift())
    corpus += [factor(deg) for deg in (9, 10, 11, 12, 16)]
    entries = []
    for p in corpus:
        entries += assert_detector_matches(p, trv_oracles.heavy_factor)
    assert len(entries) >= 18
    assert sum(not e.preimages.complete for e in entries) >= 12
    assert max(p.degree for p in corpus) == 16


def test_two_heavy_critical_values_are_an_internal_error(monkeypatch):
    # the heavy-factor oracle: roots 0 and 1 of multiplicity >= deg P / 2 = 2,
    # as one heavy factor of degree 2, then as two heavy linear factors
    for fake_d in (Poly.from_roots([0, 0, 1, 1]), Poly.from_roots([0, 0, 1, 1, 1])):
        monkeypatch.setattr(trv_oracles, "critical_value_polynomial", lambda p: fake_d)
        with pytest.raises(InternalInvariantError):
            trv_oracles.heavy_factor(Poly.monomial(4))


def test_simple_root_at_the_division_trv_is_an_internal_error(monkeypatch):
    original = functions.preimage_roots

    def with_simple_root(f, value):
        info = original(f, value)
        return dataclasses.replace(info, multiset=(1,) + info.multiset)

    monkeypatch.setattr(functions, "preimage_roots", with_simple_root)
    with pytest.raises(InternalInvariantError):
        ramification_profile(poly_f([0, 0, 1]))
