import random
from fractions import Fraction

import pytest

import linalg_oracles as oracles
from matrange.errors import InternalInvariantError, PreconditionError
from matrange.matrices import (
    MatrixQi,
    _exact_div,
    apply_poly,
    char_poly,
    f_of_jordan_block,
    is_in_E,
    is_in_S,
    jordan_chains,
    jordan_decomposition,
    segre_at,
)
from matrange.polynomials import Poly
from matrange.scalars import Qi
from matrange.selftest import random_invertible, random_matrix, random_poly, random_scalar


def J(k, lam):
    return MatrixQi.jordan_block(k, lam)


# -- characteristic polynomial -------------------------------------------------


def test_char_poly_examples():
    assert char_poly(J(2, 0)) == Poly.monomial(2)
    assert char_poly(MatrixQi.diagonal([1, 2])) == Poly([2, -3, 1])
    assert char_poly(MatrixQi([["0", "1"], ["-1", "0"]])) == Poly([1, 0, 1])


def test_cayley_hamilton_randomized(rng):
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 5))
        assert apply_poly(char_poly(a), a).is_zero()


# -- rank and kernel -----------------------------------------------------------


def test_rank_examples():
    assert J(3, 0).rank() == 2
    assert MatrixQi.identity(4).rank() == 4
    assert MatrixQi.identity(4).kernel_basis() == []
    assert (J(3, 0) @ J(3, 0)).rank() == 1


def test_kernel_vectors_annihilate(rng):
    for _ in range(15):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n)
        # make it singular by zeroing a row
        rows = [list(r) for r in a.rows]
        rows[0] = [Qi(0)] * n
        a = MatrixQi(rows)
        basis = a.kernel_basis()
        assert len(basis) == n - a.rank()
        for v in basis:
            assert all(x.is_zero() for x in oracles.apply(a, v))


def test_inverse_round_trip(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        t = random_invertible(rng, n)
        assert t @ t.inverse() == MatrixQi.identity(n)


# -- Segre partitions and E/S --------------------------------------------------


def test_segre_examples():
    assert segre_at(J(2, 5), 5).parts == (2,)
    assert segre_at(J(2, 5), 0).parts == ()
    assert segre_at(MatrixQi.block_diag([J(2, 0), J(1, 0)]), 0).parts == (2, 1)


def test_segre_partition_invariants(rng):
    for _ in range(10):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        lam = random_scalar(rng)
        a = MatrixQi.block_diag([J(s, lam) for s in sizes] + [J(1, lam + Qi(1))])
        t = random_invertible(rng, a.n)
        conj = t @ a @ t.inverse()
        partition = segre_at(conj, lam)
        assert sorted(partition.parts, reverse=True) == sorted(sizes, reverse=True)
        assert partition.total() == sum(sizes)
        shifted = conj - MatrixQi.identity(a.n).scale(lam)
        assert len(partition.parts) == len(shifted.kernel_basis())


def test_E_and_S_membership():
    assert is_in_E(MatrixQi.diagonal([3, 3]), 3)
    assert not is_in_S(MatrixQi.diagonal([3, 3]), 3)
    assert is_in_E(J(2, 3), 3) and is_in_S(J(2, 3), 3)
    assert not is_in_E(J(2, 3), 4) and not is_in_S(J(2, 3), 4)


# -- Jordan decomposition ------------------------------------------------------


def test_jordan_of_jordan_matrix_is_itself():
    a = MatrixQi.block_diag([J(2, 1), J(1, 3)])
    dec = jordan_decomposition(a)
    assert dec.j == a
    assert dec.t == MatrixQi.identity(3)


def test_jordan_two_by_two_upper_triangular():
    a = MatrixQi([["1", "1"], ["0", "2"]])
    dec = jordan_decomposition(a)
    assert dec.j == MatrixQi.diagonal([1, 2])
    assert a @ dec.t == dec.t @ dec.j


def test_jordan_rotation_matrix_diagonalizes_over_Qi():
    dec = jordan_decomposition(MatrixQi([["0", "1"], ["-1", "0"]]))
    assert dec.j == MatrixQi.diagonal([Qi(0, -1), Qi(0, 1)])


def test_jordan_requires_Qi_spectrum():
    with pytest.raises(PreconditionError, match="spectrum"):
        jordan_decomposition(MatrixQi([["0", "1"], ["2", "0"]]))


def test_jordan_round_trip_randomized(rng):
    for _ in range(15):
        sizes = [(rng.randint(1, 3), random_scalar(rng, 2, 1)) for _ in range(rng.randint(1, 3))]
        a0 = MatrixQi.block_diag([J(k, lam) for k, lam in sizes])
        t = random_invertible(rng, a0.n)
        a = t @ a0 @ t.inverse()
        dec = jordan_decomposition(a)
        assert dec.t @ dec.j @ dec.t_inverse() == a
        for lam in {lam for _, lam in sizes}:
            expected = sorted((k for k, mu in sizes if mu == lam), reverse=True)
            assert list(segre_at(a, lam).parts) == expected
            block_sizes = sorted((s for mu, s in dec.ordering if mu == lam), reverse=True)
            assert block_sizes == expected


# -- polynomial evaluation on matrices -----------------------------------------


def test_apply_poly_examples():
    sq = apply_poly(Poly.monomial(2), J(3, 0))
    assert sq == MatrixQi([["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]])
    a = MatrixQi([["2", "1"], ["0", "5"]])
    assert apply_poly(Poly.monomial(1), a) == a
    assert apply_poly(Poly([2, -3, 1]), MatrixQi.diagonal([1, 2])).is_zero()


def test_f_of_jordan_block_examples():
    p = Poly([1, 2, 0, 4])
    z0 = Qi("1/2")
    block = f_of_jordan_block(p, 2, z0)
    assert block == MatrixQi([[p(z0), p.derivative()(z0)], [Qi(0), p(z0)]])
    cube = f_of_jordan_block(Poly.monomial(3), 3, 1)
    assert cube == MatrixQi([["1", "3", "3"], ["0", "1", "3"], ["0", "0", "1"]])
    assert f_of_jordan_block(Poly.monomial(1), 4, Qi(2, 1)) == J(4, Qi(2, 1))


def test_matrix_json_round_trip(rng):
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 4))
        assert MatrixQi.parse(a.render()) == a


# -- differential checks against the field-arithmetic oracles ------------------

# z^2 - 2 and z^3 - 2 have no root in Q(i)
OUTSIDE_QI = ([-2, 0, 1], [-2, 0, 0, 1])


def companion(coeffs):
    d = len(coeffs) - 1
    return MatrixQi(
        [[Qi(1) if j == i - 1 else Qi(0) for j in range(d - 1)] + [-Qi(coeffs[i])] for i in range(d)]
    )


def planted(rng, n):
    """T J T^-1 under a diagonal scaling with large, mixed denominators. J
    has Jordan blocks at up to three Q(i) eigenvalues and, when it fits, a
    companion block with eigenvalues outside Q(i). Returns (A, eigenvalues)."""
    blocks = []
    if n >= 4 and rng.random() < 0.5:
        blocks.append(companion(rng.choice(OUTSIDE_QI)))
    eigenvalues = []
    while sum(b.n for b in blocks) < n:
        if not eigenvalues or (len(eigenvalues) < 3 and rng.random() < 0.4):
            eigenvalues.append(random_scalar(rng, 4, 3))
        size = rng.randint(1, min(4, n - sum(b.n for b in blocks)))
        blocks.append(J(size, rng.choice(eigenvalues)))
    rng.shuffle(blocks)
    t = MatrixQi([[random_scalar(rng, 4, 5) for _ in range(n)] for _ in range(n)])
    while oracles.inverse(t) is None:
        t = MatrixQi([[random_scalar(rng, 4, 5) for _ in range(n)] for _ in range(n)])
    a = oracles.field_matmul(oracles.field_matmul(t, MatrixQi.block_diag(blocks)), oracles.inverse(t))
    scale = [Qi(Fraction(rng.randint(1, 999), rng.randint(1, 999))) for _ in range(n)]
    a = MatrixQi([[scale[i] * x / scale[j] for j, x in enumerate(row)] for i, row in enumerate(a.rows)])
    return a, sorted(set(eigenvalues), key=lambda z: z.sort_key())


def assert_layers_match_oracles(a, values, chains=True):
    assert char_poly(a) == oracles.char_poly(a) == oracles.char_poly_hessenberg(a)
    assert a.rank() == oracles.rank(a)
    expected = oracles.inverse(a)
    if expected is None:
        with pytest.raises(PreconditionError, match="singular"):
            a.inverse()
    else:
        assert a.inverse() == expected
    for value in values:
        assert segre_at(a, value) == oracles.segre_at(a, value)
        shifted = a - MatrixQi.identity(a.n).scale(value)
        assert shifted.kernel_basis() == oracles.kernel_basis(shifted)
        if chains:
            assert jordan_chains(a, value) == oracles.jordan_chains(a, value)


def test_layers_match_field_oracles_n1_to_12():
    rng = random.Random(6)
    for n in range(1, 13):
        a, eigenvalues = planted(rng, n)
        not_eigenvalue = Qi(7, 5)  # |random_scalar(rng, 4, 3)| < 7
        assert segre_at(a, not_eigenvalue).is_empty()
        assert_layers_match_oracles(a, eigenvalues + [not_eigenvalue], chains=n <= 8)


def test_char_poly_matches_hessenberg_oracle_dense_n13_to_20():
    rng = random.Random(13)
    for n in range(13, 21):
        scale = [Qi(Fraction(rng.randint(1, 999), rng.randint(1, 999))) for _ in range(n)]
        a = MatrixQi(
            [[scale[i] * random_scalar(rng, 9, 3) / scale[j] for j in range(n)] for i in range(n)]
        )
        assert char_poly(a) == oracles.char_poly_hessenberg(a)


def test_layers_match_field_oracles_nilpotent_and_zero():
    rng = random.Random(7)
    for n in range(1, 7):
        assert_layers_match_oracles(MatrixQi.zero(n), [Qi(0), Qi(1)])
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        a = MatrixQi.block_diag([J(k, 0) for k in sizes])
        t = random_invertible(rng, n)
        conj = oracles.field_matmul(oracles.field_matmul(t, a), oracles.inverse(t))
        assert_layers_match_oracles(conj, [Qi(0), Qi(0, 1)])
        assert segre_at(conj, 0).parts == tuple(sorted(sizes, reverse=True))


def test_exact_division_over_gaussian_integers():
    assert _exact_div((5, 0), (2, 1)) == (2, -1)
    assert _exact_div((-6, 4), (2, 0)) == (-3, 2)
    with pytest.raises(InternalInvariantError, match="does not divide"):
        _exact_div((3, 1), (2, 0))
    with pytest.raises(InternalInvariantError, match="does not divide"):
        _exact_div((1, 0), (1, 1))
