"""The two polynomial TRV detectors matrange.functions ran before a TRV was
decided by one division, both built on the critical value polynomial D and
kept only to cross-check functions.polynomial_trvs. Each returns
[(value, sorted multiplicity multiset)] for the TRVs of p.

  * candidate_search: every Q(i) root c of D is a candidate; it is a TRV iff
    every root of P - c is multiple, read off the multiplicity multiset of
    P - c.
  * heavy_factor: if a is a TRV, P - a has r <= d/2 distinct roots (d =
    deg P), each of multiplicity m >= 2 and a root of P' of multiplicity
    m - 1; so a is a root of D (degree d - 1) of multiplicity d - r >= d/2,
    and any other root of D has multiplicity at most r - 1 < d/2. The only
    candidate is the root of the one square-free factor of D with
    2 mult >= d, which is linear; it is a TRV iff P - a has no simple root.

A detector that finds two TRVs raises InternalInvariantError.
"""

from matrange.errors import InternalInvariantError
from matrange.polynomials import (
    critical_value_polynomial,
    gaussian_rational_roots,
    multiplicity_multiset,
    squarefree_decomposition,
)


def candidate_search(p):
    if p.degree < 2:
        return []
    found = []
    for cand in gaussian_rational_roots(critical_value_polynomial(p)):
        mults = multiplicity_multiset(p.shift(cand.root))
        if min(mults) >= 2:
            found.append((cand.root, tuple(mults)))
    if len(found) > 1:
        raise InternalInvariantError(f"detector reported {len(found)} totally ramified values")
    return found


def heavy_factor(p):
    if p.degree < 2:
        return []
    heavy = [g for g, mult in squarefree_decomposition(critical_value_polynomial(p)) if 2 * mult >= p.degree]
    if sum(g.degree for g in heavy) > 1:
        raise InternalInvariantError("a polynomial can have at most one totally ramified value")
    if not heavy:
        return []
    value = -heavy[0].coeff(0)
    mults = tuple(multiplicity_multiset(p.shift(value)))
    return [] if 1 in mults else [(value, mults)]
