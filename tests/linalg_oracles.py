"""Field-arithmetic linear algebra over Q(i), kept only to cross-check the
fraction-free Z[i] core in matrange.matrices.

Every routine works on GaussianRational entries: reduced row echelon form by
Gauss-Jordan elimination over the field, an incremental span tracker,
Faddeev-LeVerrier for the characteristic polynomial, and Segre partitions and
Jordan chains from dense powers of A - lam I.
"""

from matrange.errors import InternalInvariantError
from matrange.matrices import MatrixQi, SegrePartition
from matrange.polynomials import Poly
from matrange.scalars import ONE, ZERO, Qi


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
