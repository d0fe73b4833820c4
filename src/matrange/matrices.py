"""Exact dense matrix algebra over Q(i).

Characteristic polynomials (Faddeev-LeVerrier), ranks and kernels by
Gaussian elimination over the field, Segre (Jordan-structure) partitions
from rank sequences, full Jordan decomposition with transform for matrices
whose spectrum lies in Q(i), and the E_a / S_a membership tests.

No floating point anywhere: Jordan structure is discontinuous in the matrix
entries, so every pivot decision is an exact zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InternalInvariantError, ParseError, PreconditionError
from .polynomials import Poly, gaussian_rational_roots
from .scalars import ONE, ZERO, GaussianRational, Qi, parse_scalar, render_scalar

__all__ = [
    "MatrixQi",
    "SegrePartition",
    "JordanDecomposition",
    "char_poly",
    "segre_at",
    "is_in_E",
    "is_in_S",
    "jordan_chains",
    "jordan_decomposition",
    "apply_poly",
    "f_of_jordan_block",
]


class MatrixQi:
    """Immutable square matrix over Q(i)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Qi(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise PreconditionError("matrix must be square with n >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(n: int) -> "MatrixQi":
        return MatrixQi([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int) -> "MatrixQi":
        return MatrixQi([[ZERO] * n for _ in range(n)])

    @staticmethod
    def diagonal(values) -> "MatrixQi":
        vals = [Qi(v) for v in values]
        n = len(vals)
        return MatrixQi([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def jordan_block(k: int, lam) -> "MatrixQi":
        lam = Qi(lam)
        return MatrixQi(
            [[lam if i == j else (ONE if j == i + 1 else ZERO) for j in range(k)] for i in range(k)]
        )

    @staticmethod
    def block_diag(blocks) -> "MatrixQi":
        n = sum(b.n for b in blocks)
        out = [[ZERO] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.n):
                for j in range(b.n):
                    out[off + i][off + j] = b.rows[i][j]
            off += b.n
        return MatrixQi(out)

    def __eq__(self, other):
        return isinstance(other, MatrixQi) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(render_scalar(x) for x in row) for row in self.rows)
        return f"MatrixQi[{body}]"

    def __add__(self, other: "MatrixQi") -> "MatrixQi":
        self._same_size(other)
        return MatrixQi(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "MatrixQi") -> "MatrixQi":
        self._same_size(other)
        return MatrixQi(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __matmul__(self, other: "MatrixQi") -> "MatrixQi":
        self._same_size(other)
        n = self.n
        cols = list(zip(*other.rows))
        return MatrixQi(
            [
                [sum((a * b for a, b in zip(row, col)), ZERO) for col in cols]
                for row in self.rows
            ]
        )

    def scale(self, c) -> "MatrixQi":
        c = Qi(c)
        return MatrixQi([[c * x for x in row] for row in self.rows])

    def __pow__(self, k: int) -> "MatrixQi":
        out = MatrixQi.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    def _same_size(self, other):
        if self.n != other.n:
            raise PreconditionError("matrix dimensions differ")

    def trace(self) -> GaussianRational:
        return sum((self.rows[i][i] for i in range(self.n)), ZERO)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def apply(self, v):
        """Matrix-vector product; v is a sequence of scalars."""
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.rows)

    # -- elimination-based queries --------------------------------------------

    def rank(self) -> int:
        return len(_rref([list(r) for r in self.rows])[1])

    def kernel_basis(self):
        """Basis of the right null space; each vector v satisfies A v = 0."""
        reduced, pivots = _rref([list(r) for r in self.rows])
        n = self.n
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for f in free:
            v = [ZERO] * n
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -reduced[i][f]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "MatrixQi":
        n = self.n
        aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(self.rows)]
        reduced, pivots = _rref(aug, limit=n)
        if len(pivots) != n:
            raise PreconditionError("matrix is singular")
        return MatrixQi([row[n:] for row in reduced])

    # -- JSON format ----------------------------------------------------------

    def render(self):
        return {"n": self.n, "rows": [[render_scalar(x) for x in row] for row in self.rows]}

    @staticmethod
    def parse(obj) -> "MatrixQi":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ParseError('matrix JSON must be {"n": ..., "rows": [[...]]}')
        rows = obj["rows"]
        if not isinstance(rows, list) or not rows:
            raise ParseError("matrix rows must be a non-empty list")
        n = obj.get("n", len(rows))
        if n != len(rows) or any(not isinstance(r, list) or len(r) != n for r in rows):
            raise ParseError(f"matrix must be square of size {n}; got ragged or mismatched rows")
        return MatrixQi([[parse_scalar(x) for x in row] for row in rows])


def _rref(rows, limit=None):
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


class _SpanTracker:
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


# -- characteristic polynomial -------------------------------------------------


def char_poly(a: MatrixQi) -> Poly:
    """det(zI - A), monic of degree n, by the Faddeev-LeVerrier recurrence."""
    n = a.n
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = MatrixQi.identity(n)
    for k in range(1, n + 1):
        m = a @ m
        c = -(m.trace() / Qi(k))
        coeffs[n - k] = c
        if k < n:
            m = m + MatrixQi.identity(n).scale(c)
    return Poly(coeffs)


# -- Jordan structure ----------------------------------------------------------


@dataclass(frozen=True)
class SegrePartition:
    value: GaussianRational
    parts: tuple  # Jordan block sizes at value, sorted descending; () if not an eigenvalue

    def total(self) -> int:
        return sum(self.parts)

    def is_empty(self) -> bool:
        return not self.parts

    def has_nontrivial_block(self) -> bool:
        return any(p >= 2 for p in self.parts)


def segre_at(a: MatrixQi, value) -> SegrePartition:
    """Jordan block sizes of A at value, from ranks of powers of (A - value I).
    Works regardless of where A's other eigenvalues live."""
    value = Qi(value)
    n = a.n
    shifted = a - MatrixQi.identity(n).scale(value)
    ranks = [n]
    power = MatrixQi.identity(n)
    for _ in range(n):
        power = power @ shifted
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            break
    while len(ranks) < n + 2:
        ranks.append(ranks[-1])
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]  # blocks of size >= k
    parts = []
    for size in range(n, 0, -1):
        exactly = at_least[size - 1] - (at_least[size] if size < n else 0)
        parts.extend([size] * exactly)
    return SegrePartition(value, tuple(parts))


def is_in_E(a: MatrixQi, value) -> bool:
    """Does A have the eigenvalue `value`?"""
    return (a - MatrixQi.identity(a.n).scale(Qi(value))).rank() < a.n


def is_in_S(a: MatrixQi, value) -> bool:
    """Does A have a nontrivial (size >= 2) Jordan block at `value`?"""
    return segre_at(a, value).has_nontrivial_block()


@dataclass(frozen=True)
class JordanDecomposition:
    j: MatrixQi
    t: MatrixQi
    ordering: tuple  # ((eigenvalue, block size), ...) matching the layout of j

    def t_inverse(self) -> MatrixQi:
        return self.t.inverse()


def jordan_chains(a: MatrixQi, lam) -> list:
    """Jordan chains of A at lam, longest first, ties in discovery order.
    Each chain is its columns N^(k-1) v, ..., N v, v for N = A - lam I and a
    top vector v of length k: the columns of T for one Jordan block at lam."""
    n = a.n
    shifted = a - MatrixQi.identity(n).scale(lam)
    parts = segre_at(a, lam).parts
    largest = max(parts, default=0)
    powers = [MatrixQi.identity(n)]
    for _ in range(largest):
        powers.append(powers[-1] @ shifted)
    kernels = [powers[k].kernel_basis() for k in range(largest + 1)]
    chains = []  # (top vector, length), longest first
    for k in range(largest, 0, -1):
        tracker = _SpanTracker(n)
        for v in kernels[k - 1]:
            tracker.add(v)
        for top, length in chains:
            tracker.add(powers[length - k].apply(top))
        for v in kernels[k]:
            if tracker.add(v):
                chains.append((v, k))
    sizes = [length for _, length in chains]
    if sizes != list(parts):
        raise InternalInvariantError(
            f"chain construction produced sizes {sizes}, expected {parts}"
        )
    return [[powers[j].apply(top) for j in reversed(range(length))] for top, length in chains]


def jordan_decomposition(a: MatrixQi) -> JordanDecomposition:
    """Exact (J, T) with A = T J T^-1. Requires the spectrum in Q(i); fails
    loudly otherwise, naming the degrees of the unfactored part.

    Blocks are laid out by (eigenvalue canonical order, decreasing size), so
    the result is deterministic and two matrices with equal Jordan structure
    produce identical J."""
    n = a.n
    roots = gaussian_rational_roots(char_poly(a))
    outside = n - sum(r.multiplicity for r in roots)
    if outside:
        raise PreconditionError(
            "spectrum not contained in Q(i): "
            f"unfactored characteristic polynomial part of degree {outside}"
        )
    columns = []
    ordering = []
    for r in roots:  # already in canonical scalar order
        for chain in jordan_chains(a, r.root):
            columns.extend(chain)
            ordering.append((r.root, len(chain)))
    t = MatrixQi(list(zip(*columns)))  # vectors become columns
    jmat = MatrixQi.block_diag([MatrixQi.jordan_block(k, lam) for lam, k in ordering])
    if a @ t != t @ jmat:
        raise InternalInvariantError("Jordan decomposition failed verification A T = T J")
    return JordanDecomposition(jmat, t, tuple(ordering))


# -- polynomial functions of matrices ------------------------------------------


def apply_poly(p: Poly, a: MatrixQi) -> MatrixQi:
    """Exact P(A) by Horner's rule."""
    n = a.n
    acc = MatrixQi.zero(n)
    for c in reversed(p.coeffs):
        acc = acc @ a + MatrixQi.identity(n).scale(c)
    return acc


def f_of_jordan_block(p: Poly, k: int, z0) -> MatrixQi:
    """P(J_k(z0)) in closed form: upper-triangular Toeplitz with (i, i+j)
    entry P^(j)(z0) / j!."""
    if k < 1:
        raise PreconditionError("block size must be >= 1")
    z0 = Qi(z0)
    taylor = []
    d = p
    for j in range(k):
        taylor.append(d(z0) / Qi(Fraction(factorial(j))))
        d = d.derivative()
    return MatrixQi(
        [[taylor[j - i] if j >= i else ZERO for j in range(k)] for i in range(k)]
    )
