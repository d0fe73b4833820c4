"""The harness's own exact arithmetic over Q(i), independent of matrange.

Scalars are (re, im) pairs of Fractions, matrices are lists of rows of
scalars and polynomials are coefficient lists, lowest degree first. The
corpus is built and every answer is checked with this module only, so a
defect in matrange's arithmetic cannot hide a wrong answer.

It also holds the independent oracles for the paper's combinatorics: the
split pattern of a Jordan block under a root of multiplicity m, and whether
a partition is an exact multiset union of such patterns.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

F0 = Fraction(0)
ZERO = (F0, F0)
ONE = (Fraction(1), F0)


def q(re_part, im_part=0):
    return (Fraction(re_part), Fraction(im_part))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def neg(a):
    return (-a[0], -a[1])


# -- text format (the CLI's: "p/q", "p/q+r/si") ---------------------------------


def _render_fraction(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render(a):
    if a[1] == 0:
        return _render_fraction(a[0])
    sign = "+" if a[1] > 0 else "-"
    return f"{_render_fraction(a[0])}{sign}{_render_fraction(abs(a[1]))}i"


_SCALAR = re.compile(r"^([+-]?[0-9]+(?:/[0-9]+)?)?(?:([+-][0-9]*(?:/[0-9]+)?)i)?$")


def parse(text):
    """Inverse of render, for the canonical forms matrange prints."""
    m = _SCALAR.match(text)
    if not m or not text:
        raise ValueError(f"unparseable scalar {text!r}")
    re_part, im_part = m.group(1), m.group(2)
    if im_part in ("+", "-"):
        im_part += "1"
    return (Fraction(re_part or 0), Fraction(im_part or 0))


# -- polynomials ---------------------------------------------------------------


def poly_mul(p, r):
    out = [ZERO] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] = add(out[i + j], mul(a, b))
    return out


def poly_from_roots(roots_with_mult, lead=ONE):
    """lead * prod (z - r)^m as a coefficient list."""
    p = [lead]
    for r, m in roots_with_mult:
        for _ in range(m):
            p = poly_mul(p, [neg(r), ONE])
    return p


def poly_eval(p, z):
    acc = ZERO
    for c in reversed(p):
        acc = add(mul(acc, z), c)
    return acc


# -- matrices ------------------------------------------------------------------


def matmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            re_acc = F0
            im_acc = F0
            for x, y in zip(row, col):
                if (x[0] or x[1]) and (y[0] or y[1]):
                    re_acc += x[0] * y[0] - x[1] * y[1]
                    im_acc += x[0] * y[1] + x[1] * y[0]
            out_row.append((re_acc, im_acc))
        out.append(out_row)
    return out


def mat_add_scalar(a, c):
    """A + c I."""
    return [[add(x, c) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]


def apply_poly(p, a):
    """P(A) by Horner's rule."""
    n = len(a)
    acc = [[ZERO] * n for _ in range(n)]
    for c in reversed(p):
        acc = mat_add_scalar(matmul(acc, a), c)
    return acc


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[ZERO] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def jordan_block(k, lam):
    return [[lam if i == j else (ONE if j == i + 1 else ZERO) for j in range(k)] for i in range(k)]


def companion(p):
    """Companion matrix of a monic integer polynomial (coefficients low first)."""
    d = len(p) - 1
    out = [[ZERO] * d for _ in range(d)]
    for i in range(1, d):
        out[i][i - 1] = ONE
    for i in range(d):
        out[i][d - 1] = q(-p[i])
    return out


def unimodular_pair(rng, n, steps):
    """(T, T^-1): a product of `steps` elementary integer row operations
    E_ij(c), c = +-1, and its inverse, so both are exact integer matrices."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    t_inv = [row[:] for row in t]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # T <- T E with E = I + c e_i e_j^T: column j += c * column i
        for row in t:
            row[j] += c * row[i]
        # T^-1 <- E^-1 T^-1: row i -= c * row j
        t_inv[i] = [x - c * y for x, y in zip(t_inv[i], t_inv[j])]
    as_q = lambda m: [[q(x) for x in row] for row in m]  # noqa: E731
    return as_q(t), as_q(t_inv)


def conjugate(rng, j, steps):
    """T J T^-1 for a random unimodular T."""
    t, t_inv = unimodular_pair(rng, len(j), steps)
    return matmul(matmul(t, j), t_inv)


# -- the paper's combinatorics, independently ------------------------------------


def split_pattern(k, m):
    """Jordan block sizes of f(J_k(z0)) at f(z0) when z0 is a root of
    f - f(z0) of multiplicity m, descending."""
    base, extra = divmod(k, m)
    parts = [base + 1] * extra + [base] * (m - extra)
    return tuple(sorted((p for p in parts if p), reverse=True))


@lru_cache(maxsize=None)
def _patterns(mults, largest):
    """Every split pattern with root multiplicity in `mults` and parts no
    larger than `largest`, as (K, m, parts)."""
    out = []
    for m in mults:
        for k in range(1, m * largest + 1):
            out.append((k, m, split_pattern(k, m)))
    return tuple(out)


def cover(partition, mults):
    """A list of (K, m) whose split patterns have `partition` as their exact
    multiset union, or None. Searches on the smallest remaining part (the
    engine under test searches on the largest)."""
    mults = tuple(sorted(set(mults)))
    target = tuple(sorted(partition))
    if not target:
        return []
    patterns = _patterns(mults, target[-1])
    memo = {}

    def search(rest):
        if not rest:
            return []
        if rest in memo:
            return memo[rest]
        smallest = rest[0]
        found = None
        for k, m, parts in patterns:
            if smallest not in parts:
                continue
            remaining = list(rest)
            try:
                for p in parts:
                    remaining.remove(p)
            except ValueError:
                continue
            tail = search(tuple(remaining))
            if tail is not None:
                found = [(k, m)] + tail
                break
        memo[rest] = found
        return found

    return search(target)


def partitions_upto(n):
    """Every partition (descending tuple) of every total 1..n with a part >= 2."""
    out = []

    def gen(total, largest, acc):
        if total == 0:
            if acc and acc[0] >= 2:
                out.append(tuple(acc))
            return
        for p in range(min(total, largest), 0, -1):
            acc.append(p)
            gen(total - p, p, acc)
            acc.pop()

    for total in range(1, n + 1):
        gen(total, total, [])
    return out
