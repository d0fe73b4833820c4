"""Exact dense matrix algebra over Q(i).

Ranks, kernels, inverses and Jordan chains all come from one fraction-free
elimination routine over the Gaussian integers Z[i] (Bareiss 1968): a matrix
is scaled once by the lcm of its entries' denominators, entries become
(re, im) integer pairs, and each division by the previous pivot is an exact
Z[i] division. Segre (Jordan-structure) partitions come from the ranks of the
powers of N = A - value I, each taken as rank(N B) with B a column basis of
range(N^(k-1)), so no dense power is formed. The characteristic polynomial
comes from Berkowitz's division-free algorithm on the same Z[i] form, and
polynomials of a matrix from Horner's rule on it. On top of these: the full
Jordan decomposition with transform for matrices whose spectrum lies in Q(i),
and the E_a / S_a membership tests.

No floating point anywhere: Jordan structure is discontinuous in the matrix
entries, so every pivot decision is an exact zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import InternalInvariantError, ParseError, PreconditionError
from .polynomials import Poly, gaussian_rational_roots
from .scalars import ONE, ZERO, GaussianRational, Qi, _from_zi, _to_zi, parse_scalar, render_scalar

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
    "outside_qi_cause",
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
        x, dx = _scaled_rows(self)
        y, dy = _scaled_rows(other)
        den = (dx * dy, 0)
        return MatrixQi([[_from_zi(v, den) for v in row] for row in _matmul(x, y)])

    def scale(self, c) -> "MatrixQi":
        c = Qi(c)
        return MatrixQi([[c * x for x in row] for row in self.rows])

    def _same_size(self, other):
        if self.n != other.n:
            raise PreconditionError("matrix dimensions differ")

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    # -- elimination-based queries --------------------------------------------

    def rank(self) -> int:
        return len(_bareiss(_scaled_rows(self)[0]))

    def kernel_basis(self):
        """Basis of the right null space; each vector v satisfies A v = 0.
        One vector per free column f of the reduced row echelon form R: 1 at
        f, 0 at the other free columns, -R[i][f] at the i-th pivot column."""
        vectors, d = _kernel(_scaled_rows(self)[0])
        return [tuple(_from_zi(x, d) for x in v) for v in vectors]

    def inverse(self) -> "MatrixQi":
        n = self.n
        rows, den = _scaled_rows(self)
        for i, row in enumerate(rows):
            row.extend((1, 0) if j == i else (0, 0) for j in range(n))
        if len(_bareiss(rows, ncols=n, reduce=True)) != n:
            raise PreconditionError("matrix is singular")
        # rows are [d I | d (den A)^-1] and A^-1 = den (den A)^-1
        d = rows[0][0]
        return MatrixQi([[_from_zi((den * re, den * im), d) for re, im in row[n:]] for row in rows])

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


# -- the Z[i] core ----------------------------------------------------------------
# A Gaussian integer is an (re, im) pair of ints; a Z[i] matrix is a list of
# rows of such pairs.


def _scaled_rows(a: MatrixQi, shift=ZERO):
    """(rows, den): den (A - shift I) as Z[i] rows, with den the lcm of the
    denominators of A's entries and of shift."""
    n = a.n
    flat, den = _to_zi([x for row in a.rows for x in row] + [shift])
    sre, sim = flat.pop()
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    if sre or sim:
        for i, row in enumerate(rows):
            row[i] = (row[i][0] - sre, row[i][1] - sim)
    return rows, den


def _exact_div(x, d):
    """x / d in Z[i]; InternalInvariantError unless d divides x."""
    (xr, xi), (dr, di) = x, d
    if di:
        xr, xi, dr = xr * dr + xi * di, xi * dr - xr * di, dr * dr + di * di
    qr, rr = divmod(xr, dr)
    qi, ri = divmod(xi, dr)
    if rr or ri:
        raise InternalInvariantError(f"{d} does not divide {x} in Z[i]")
    return qr, qi


def _dot(u, v):
    re = im = 0
    for (ar, ai), (br, bi) in zip(u, v):
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def _apply(rows, v):
    """Z[i] matrix times Z[i] vector."""
    return [_dot(row, v) for row in rows]


def _matmul(x, y):
    cols = list(zip(*y))
    return [[_dot(row, col) for col in cols] for row in x]


def _bareiss(rows, ncols=None, reduce=False):
    """Fraction-free elimination over Z[i] (Bareiss 1968), in place.

    Over the first `ncols` columns, pivots are taken in column order, each
    the first nonzero entry at or below the current row, and pivot row r
    ends as row r. Every update p x - f y, with p the pivot and f the entry
    being cleared, is divided exactly by the previous pivot, so each entry
    stays a minor of the input. The pivot columns are the leftmost
    independent columns. With `reduce`, rows above the pivot are cleared too
    (Gauss-Jordan): then every pivot ends equal to the last one, d, and the
    first rank rows are d times the reduced row echelon form.

    Returns the pivot columns."""
    ncols = len(rows[0]) if ncols is None else ncols
    pivots = []
    prev = (1, 0)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        pr, pi = top[c]
        for i in range(0 if reduce else r + 1, len(rows)):
            if i == r:
                continue
            row = rows[i]
            fr, fi = row[c]
            start = 0 if i < r else c  # below the pivot row, columns < c are zero
            row[start:] = [
                _exact_div(
                    (pr * xr - pi * xi - fr * yr + fi * yi, pr * xi + pi * xr - fr * yi - fi * yr),
                    prev,
                )
                for (xr, xi), (yr, yi) in zip(row[start:], top[start:])
            ]
        prev = (pr, pi)
        pivots.append(c)
    return pivots


def _kernel(rows):
    """(vectors, d): a basis of the right null space of the Z[i] rows, as d
    times the reduced-row-echelon basis (see MatrixQi.kernel_basis), with d
    the last Gauss-Jordan pivot. The rows are left as they are."""
    ncols = len(rows[0])
    rows = [list(row) for row in rows]
    pivots = _bareiss(rows, reduce=True)
    d = rows[0][pivots[0]] if pivots else (1, 0)
    vectors = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [(0, 0)] * ncols
        v[f] = d
        for row, p in zip(rows, pivots):
            v[p] = (-row[f][0], -row[f][1])
        vectors.append(v)
    return vectors, d


# -- characteristic polynomial -------------------------------------------------


def char_poly(a: MatrixQi) -> Poly:
    """det(zI - A), monic of degree n, by Berkowitz's division-free algorithm
    (Berkowitz 1984) on M = den A over Z[i], in O(n^4) ring operations.

    Let M_k be the leading k x k block of M, c and r the first k entries of
    its column and row k, and m its entry (k, k). Then det(zI - M_(k+1)),
    as coefficients highest first, is the Toeplitz convolution of those of
    det(zI - M_k) with (1, -m, -r c, -r M_k c, ..., -r M_k^(k-1) c). Since
    det(zI - den A) = den^n det((z/den) I - A), the coefficient of z^j is
    then divided by den^(n-j)."""
    n = a.n
    rows, den = _scaled_rows(a)
    poly = [(1, 0)]  # det(zI - M_k), highest degree first
    for k in range(n):
        v = [row[k] for row in rows[:k]]  # M_k^j c, for j = 0, 1, ...
        mr, mi = rows[k][k]
        toeplitz = [(1, 0), (-mr, -mi)]
        for _ in range(k):
            re, im = _dot(rows[k], v)
            toeplitz.append((-re, -im))
            v = _apply(rows[:k], v)
        poly = [_dot(poly, toeplitz[j::-1]) for j in range(k + 2)]
    return Poly([_from_zi(c, (den ** (n - j), 0)) for j, c in enumerate(reversed(poly))])


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


def _independent(vectors, n):
    """Indices of the vectors (length n, Z[i]) that are independent of all
    vectors before them: the pivot columns of the matrix they are columns of."""
    return _bareiss([[v[i] for v in vectors] for i in range(n)]) if vectors else []


def _segre_parts(ranks) -> tuple:
    """Jordan block sizes, descending, from ranks[k] = rank N^k for k = 0,
    1, ... up to the first k with ranks[k] = ranks[k - 1] or to k = n: N has
    ranks[k - 1] - ranks[k] blocks of size >= k."""
    at_least = [r - s for r, s in zip(ranks, ranks[1:])] + [0]
    parts = []
    for size in range(len(at_least) - 1, 0, -1):
        parts.extend([size] * (at_least[size - 1] - at_least[size]))
    return tuple(parts)


def segre_at(a: MatrixQi, value) -> SegrePartition:
    """Jordan block sizes of A at value, from the ranks of the powers of
    N = A - value I. Works regardless of where A's other eigenvalues live.

    The columns N b for b in a basis of range(N^(k-1)) span range(N^k); the
    independent ones give rank(N^k) and the basis for the next step. The
    first basis is e_1, ..., e_n, so the vectors are columns of N^k."""
    value = Qi(value)
    n = a.n
    shifted, _ = _scaled_rows(a, value)
    ranks = [n]
    spanning = list(zip(*shifted))
    for _ in range(n):
        basis = [spanning[j] for j in _independent(spanning, n)]
        ranks.append(len(basis))
        if ranks[-1] == ranks[-2]:
            break
        spanning = [_apply(shifted, b) for b in basis]
    return SegrePartition(value, _segre_parts(ranks))


def is_in_E(a: MatrixQi, value) -> bool:
    """Does A have the eigenvalue `value`?"""
    return len(_bareiss(_scaled_rows(a, Qi(value))[0])) < a.n


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
    top vector v of length k: the columns of T for one Jordan block at lam.

    The powers N^k are formed until dim ker N^k stops growing; those
    dimensions give the block sizes. For k from the largest block down, the
    tops of length k are the vectors of the kernel_basis of N^k that are
    independent of ker N^(k-1), of the images N^(l-k) v of the longer tops
    and of the tops taken before them."""
    lam = Qi(lam)
    n = a.n
    shifted, den = _scaled_rows(a, lam)  # den N
    powers = [[[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]]
    kernels = [_kernel(powers[0])]
    while True:
        power = _matmul(powers[-1], shifted)
        kernel = _kernel(power)
        if len(kernel[0]) == len(kernels[-1][0]):
            break
        powers.append(power)
        kernels.append(kernel)
    parts = _segre_parts([n - len(vectors) for vectors, _ in kernels] + [n - len(kernel[0])])
    chains = []  # (top vector times d, d, length), longest first
    for k in range(len(powers) - 1, 0, -1):
        known = kernels[k - 1][0] + [_apply(powers[length - k], top) for top, _, length in chains]
        vectors, d = kernels[k]
        for j in _independent(known + vectors, n):
            if j >= len(known):
                chains.append((vectors[j - len(known)], d, k))
    sizes = [length for _, _, length in chains]
    if sizes != list(parts):
        raise InternalInvariantError(
            f"chain construction produced sizes {sizes}, expected {parts}"
        )
    out = []
    for top, (dr, di), length in chains:  # N^j v = (den N)^j (d v) / (den^j d)
        out.append(
            [
                tuple(_from_zi(x, (den**j * dr, den**j * di)) for x in _apply(powers[j], top))
                for j in reversed(range(length))
            ]
        )
    return out


def outside_qi_cause(degree: int) -> str:
    """Why a spectrum leaves Q(i): the characteristic polynomial keeps an
    unfactored part of this degree."""
    return (
        "spectrum not contained in Q(i): "
        f"unfactored characteristic polynomial part of degree {degree}"
    )


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
        raise PreconditionError(outside_qi_cause(outside))
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
    """Exact P(A) by Horner's rule on M = den A over Z[i], with P scaled to
    Z[i] coefficients c_j = m p_j. After k products by M the accumulator is
    m den^k times the Horner partial sum, so the next c_j enters times
    den^k, and P(A) is the result over m den^(deg P)."""
    n = a.n
    rows, den = _scaled_rows(a)
    coeffs, m = _to_zi(p.coeffs)
    acc = [[(0, 0)] * n for _ in range(n)]
    scale = 1  # den^k
    for k, (re, im) in enumerate(reversed(coeffs)):
        if k:
            acc = _matmul(acc, rows)
            scale *= den
        for i, row in enumerate(acc):
            row[i] = (row[i][0] + re * scale, row[i][1] + im * scale)
    d = (m * scale, 0)
    return MatrixQi([[_from_zi(x, d) for x in row] for row in acc])


def f_of_jordan_block(p: Poly, k: int, z0) -> MatrixQi:
    """P(J_k(z0)) in closed form: upper-triangular Toeplitz with (i, i+j)
    entry P^(j)(z0) / j!."""
    if k < 1:
        raise PreconditionError("block size must be >= 1")
    z0 = Qi(z0)
    taylor = []
    d = p
    for j in range(k):
        taylor.append(d(z0) / Qi(factorial(j)))
        d = d.derivative()
    return MatrixQi(
        [[taylor[j - i] if j >= i else ZERO for j in range(k)] for i in range(k)]
    )
