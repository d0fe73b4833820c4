"""The polynomial TRV detector as matrange.functions ran it before the TRV
was read off the square-free decomposition of the critical value polynomial,
kept only to cross-check functions.polynomial_trvs.

Every Q(i) root c of the critical value polynomial D is a candidate; it is
a TRV iff every root of P - c is multiple, read off the multiplicity
multiset of P - c. A detector that reports two TRVs is a bug.
"""

from matrange.errors import InternalInvariantError
from matrange.polynomials import critical_value_polynomial, gaussian_rational_roots, multiplicity_multiset


def polynomial_trvs(p):
    """[(value, sorted multiplicity multiset)] for the TRVs of p."""
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
