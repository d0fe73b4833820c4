"""Field-arithmetic linear algebra over Q(i), kept only to cross-check the
fraction-free Z[i] core in matrange.matrices.

Every routine works on GaussianRational entries: reduced row echelon form by
Gauss-Jordan elimination over the field, an incremental span tracker,
Faddeev-LeVerrier for the characteristic polynomial, and Segre partitions and
Jordan chains from dense powers of A - lam I. A second characteristic
polynomial, by Hessenberg reduction, works on (re, im, den) triples.
"""

from fractions import Fraction
from math import gcd, lcm

from matrange.errors import InternalInvariantError
from matrange.matrices import MatrixQi, SegrePartition
from matrange.polynomials import Poly
from matrange.scalars import ONE, ZERO, GaussianRational, Qi


def apply(a: MatrixQi, v):
    """Matrix-vector product; v is a sequence of scalars."""
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a.rows)


def rref(rows, limit=None):
    """In-place reduced row echelon form over Q(i). Returns (rows, pivot_cols).
    Pivoting is deterministic: first nonzero entry in column order."""
    n_rows = len(rows)
    n_cols = limit if limit is not None else (len(rows[0]) if rows else 0)
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


class SpanTracker:
    """Incremental row-space membership: add vectors, test independence."""

    def __init__(self, n):
        self.n = n
        self.rows = []  # echelonized, with recorded pivot columns
        self.pivots = []

    def add(self, v) -> bool:
        """Reduce v against the span; add if independent. True if added."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if not v[p].is_zero():
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((j for j in range(self.n) if not v[j].is_zero()), None)
        if lead is None:
            return False
        inv = v[lead].inverse()
        self.rows.append([x * inv for x in v])
        self.pivots.append(lead)
        return True


def power(a: MatrixQi, k: int) -> MatrixQi:
    out = MatrixQi.identity(a.n)
    for _ in range(k):
        out = field_matmul(out, a)
    return out


def field_matmul(a: MatrixQi, b: MatrixQi) -> MatrixQi:
    cols = list(zip(*b.rows))
    return MatrixQi(
        [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a.rows]
    )


def rank(a: MatrixQi) -> int:
    return len(rref([list(r) for r in a.rows])[1])


def kernel_basis(a: MatrixQi):
    reduced, pivots = rref([list(r) for r in a.rows])
    n = a.n
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [ZERO] * n
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def inverse(a: MatrixQi):
    """A^-1, or None when A is singular."""
    n = a.n
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a.rows)]
    reduced, pivots = rref(aug, limit=n)
    if len(pivots) != n:
        return None
    return MatrixQi([row[n:] for row in reduced])


def char_poly(a: MatrixQi) -> Poly:
    """det(zI - A) by the Faddeev-LeVerrier recurrence."""
    n = a.n
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = MatrixQi.identity(n)
    for k in range(1, n + 1):
        m = field_matmul(a, m)
        c = -(sum((m.rows[i][i] for i in range(n)), ZERO) / Qi(k))
        coeffs[n - k] = c
        if k < n:
            m = m + MatrixQi.identity(n).scale(c)
    return Poly(coeffs)


# Q(i) values as (re, im, den): a Z[i] numerator over a positive integer
# denominator, in lowest terms.


def _q(re, im, den):
    g = gcd(re, im, den)
    return re // g, im // g, den // g


def _triple(x):
    den = lcm(x.re.denominator, x.im.denominator)
    return _q((x.re * den).numerator, (x.im * den).numerator, den)


def _qmul(x, y):
    (a, b, d), (c, e, f) = x, y
    return _q(a * c - b * e, a * e + b * c, d * f)


def _qdiv(x, y):
    (a, b, d), (c, e, f) = x, y
    return _q((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))


def _qsubmul(x, y, z):
    """x - y z."""
    (a, b, d), (c, e, f), (g, h, k) = x, y, z
    fk = f * k
    return _q(a * fk - (c * g - e * h) * d, b * fk - (c * h + e * g) * d, d * fk)


def char_poly_hessenberg(a: MatrixQi) -> Poly:
    """det(zI - A) in O(n^3) operations.

    Elementary similarities bring A to upper Hessenberg form H: for each
    column k, a row swap with the matching column swap puts a nonzero
    subdiagonal pivot p at (k+1, k), then row_i -= m row_(k+1) and
    col_(k+1) += m col_i with m = h_ik / p clear the column below it. Then
    det(zI - H) = p_n from the recurrence p_0 = 1,
    p_k = (z - h_kk) p_(k-1) - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) p_(i-1)."""
    n = a.n
    h = [[_triple(x) for x in row] for row in a.rows]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k][:2] != (0, 0)), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[piv], h[k + 1] = h[k + 1], h[piv]
            for row in h:
                row[piv], row[k + 1] = row[k + 1], row[piv]
        p, top = h[k + 1][k], h[k + 1]
        for i in range(k + 2, n):
            if h[i][k][:2] == (0, 0):
                continue
            m = _qdiv(h[i][k], p)
            h[i][k:] = [_qsubmul(x, m, y) for x, y in zip(h[i][k:], top[k:])]
            neg = (-m[0], -m[1], m[2])
            for row in h:
                if row[i][:2] != (0, 0):
                    row[k + 1] = _qsubmul(row[k + 1], neg, row[i])
    polys = [[(1, 0, 1)]]
    for k in range(n):
        new = [(0, 0, 1)] + polys[k]  # z p_k
        for j, c in enumerate(polys[k]):
            new[j] = _qsubmul(new[j], h[k][k], c)
        t = (1, 0, 1)
        for i in range(k - 1, -1, -1):
            t = _qmul(t, h[i + 1][i])
            c = _qmul(h[i][k], t)
            if c[:2] != (0, 0):
                for j, x in enumerate(polys[i]):
                    new[j] = _qsubmul(new[j], c, x)
        polys.append(new)
    return Poly([GaussianRational(Fraction(re, d), Fraction(im, d)) for re, im, d in polys[n]])


def segre_at(a: MatrixQi, value) -> SegrePartition:
    """Jordan block sizes of A at value, from ranks of dense powers of
    (A - value I)."""
    value = Qi(value)
    n = a.n
    shifted = a - MatrixQi.identity(n).scale(value)
    ranks = [n]
    p = MatrixQi.identity(n)
    for _ in range(n):
        p = field_matmul(p, shifted)
        ranks.append(rank(p))
        if ranks[-1] == ranks[-2]:
            break
    while len(ranks) < n + 2:
        ranks.append(ranks[-1])
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]
    parts = []
    for size in range(n, 0, -1):
        exactly = at_least[size - 1] - (at_least[size] if size < n else 0)
        parts.extend([size] * exactly)
    return SegrePartition(value, tuple(parts))


def jordan_chains(a: MatrixQi, lam) -> list:
    """Jordan chains at lam, longest first, from kernels of dense powers and
    an incremental span tracker."""
    n = a.n
    lam = Qi(lam)
    shifted = a - MatrixQi.identity(n).scale(lam)
    parts = segre_at(a, lam).parts
    largest = max(parts, default=0)
    powers = [power(shifted, k) for k in range(largest + 1)]
    kernels = [kernel_basis(p) for p in powers]
    chains = []
    for k in range(largest, 0, -1):
        tracker = SpanTracker(n)
        for v in kernels[k - 1]:
            tracker.add(v)
        for top, length in chains:
            tracker.add(apply(powers[length - k], top))
        for v in kernels[k]:
            if tracker.add(v):
                chains.append((v, k))
    sizes = [length for _, length in chains]
    if sizes != list(parts):
        raise InternalInvariantError(f"chain sizes {sizes}, expected {parts}")
    return [[apply(powers[j], top) for j in reversed(range(length))] for top, length in chains]
