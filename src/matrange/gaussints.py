"""Gaussian-integer (Z[i]) factorization and divisor enumeration.

Used by the rational-root search over Q(i): candidate roots p/q need p to
run over divisors of the constant coefficient and q over divisors of the
leading coefficient, both in Z[i] and up to units. Norms stay small at the
polynomial degrees this package targets, so trial division is enough.
"""

from __future__ import annotations

from math import isqrt

from .errors import InternalInvariantError

__all__ = ["gaussian_divisors", "UNITS"]

# units of Z[i] as (re, im) pairs
UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def _norm(z):
    a, b = z
    return a * a + b * b


def _mul(z, w):
    a, b = z
    c, d = w
    return (a * c - b * d, a * d + b * c)


def _exact_div(z, w):
    """z / w in Z[i] if exact, else None."""
    a, b = z
    c, d = w
    n = c * c + d * d
    pr, pi = a * c + b * d, b * c - a * d
    if pr % n or pi % n:
        return None
    return (pr // n, pi // n)


def _rational_prime_factors(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _gaussian_primes_over(p):
    """Gaussian primes lying over the rational prime p, one per associate class."""
    if p == 2:
        return [(1, 1)]
    if p % 4 == 3:
        return [(p, 0)]
    # p = a^2 + b^2; search is fine at trial-division scale
    for a in range(1, isqrt(p) + 1):
        b2 = p - a * a
        b = isqrt(b2)
        if b * b == b2:
            return [(a, b), (a, -b)]
    raise InternalInvariantError(f"no two-square decomposition found for prime {p}")


def gaussian_factor(z):
    """Factor nonzero z in Z[i] into Gaussian primes: list of (prime, exponent).
    Primes are taken one per associate class; the unit part is discarded."""
    if z == (0, 0):
        raise ValueError("cannot factor zero")
    factors = []
    rem = z
    for p, _ in sorted(_rational_prime_factors(_norm(z)).items()):
        for pi in _gaussian_primes_over(p):
            e = 0
            while True:
                q = _exact_div(rem, pi)
                if q is None:
                    break
                rem, e = q, e + 1
            if e:
                factors.append((pi, e))
    if _norm(rem) != 1:
        raise InternalInvariantError(f"{z} left cofactor {rem} after removing its prime factors")
    return factors


def gaussian_divisors(z):
    """All divisors of nonzero z in Z[i], one per associate class."""
    divisors = [(1, 0)]
    for prime, exp in gaussian_factor(z):
        grown = []
        for d in divisors:
            cur = d
            grown.append(cur)
            for _ in range(exp):
                cur = _mul(cur, prime)
                grown.append(cur)
        divisors = grown
    return divisors
