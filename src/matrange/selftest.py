"""Built-in property suites over the exact matrix-function identities, plus
the split-pattern oracle grid. Used by the `selftest` CLI command; the
pytest suite runs the same checks with independent fixtures.

All checks are exact equalities; randomized instances are reproducible from
the seed reported in the results.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrices import MatrixQi, apply_poly, f_of_jordan_block, segre_at
from .polynomials import Poly
from .ranges import split_pattern, split_pattern_oracle
from .scalars import GaussianRational, Qi

__all__ = ["run_selftest", "split_pattern_grid", "random_scalar", "random_matrix", "random_poly",
           "random_invertible"]


def random_scalar(rng, bound=3, denom=2):
    return GaussianRational(
        Fraction(rng.randint(-bound, bound), rng.randint(1, denom)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, denom)),
    )


def random_poly(rng, max_degree=6, bound=3):
    deg = rng.randint(1, max_degree)
    coeffs = [random_scalar(rng, bound) for _ in range(deg)]
    lead = random_scalar(rng, bound)
    if lead.is_zero():
        lead = Qi(1)
    return Poly(coeffs + [lead])


def random_matrix(rng, n, bound=3):
    return MatrixQi([[random_scalar(rng, bound, 1) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, n, bound=3):
    while True:
        t = random_matrix(rng, n, bound)
        if t.rank() == n:
            return t


def _check_similarity_equivariance(rng, instances=50):
    failures = 0
    for _ in range(instances):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        t = random_invertible(rng, n)
        p = random_poly(rng)
        t_inv = t.inverse()
        if apply_poly(p, t_inv @ a @ t) != t_inv @ apply_poly(p, a) @ t:
            failures += 1
    return instances, failures


def _check_jordan_block_toeplitz(rng, max_size=8, instances_per_size=3):
    checks = failures = 0
    for k in range(1, max_size + 1):
        for _ in range(instances_per_size):
            p = random_poly(rng, max_degree=8)
            z0 = random_scalar(rng)
            checks += 1
            if f_of_jordan_block(p, k, z0) != apply_poly(p, MatrixQi.jordan_block(k, z0)):
                failures += 1
    return checks, failures


def _check_block_diagonal(rng, instances=25):
    failures = 0
    for _ in range(instances):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        blocks = [random_matrix(rng, s) for s in sizes]
        p = random_poly(rng)
        whole = apply_poly(p, MatrixQi.block_diag(blocks))
        piecewise = MatrixQi.block_diag([apply_poly(p, b) for b in blocks])
        if whole != piecewise:
            failures += 1
    return instances, failures


def _superdiagonal_matrix(rng, n, a, nonzero_strict_upper=True):
    """Upper triangular, zero diagonal, constant a on the first superdiagonal,
    random entries above it."""
    rows = [[Qi(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = a
    for i in range(n):
        for j in range(i + 2, n):
            rows[i][j] = random_scalar(rng) if nonzero_strict_upper else Qi(0)
    return MatrixQi(rows)


def _check_superdiagonal_powers(rng, max_n=8):
    checks = failures = 0
    for n in range(2, max_n + 1):
        a = random_scalar(rng)
        mat = _superdiagonal_matrix(rng, n, a)
        power = MatrixQi.identity(n)
        for k in range(1, n):
            power = power @ mat
            checks += 1
            ok = all(
                power.rows[i][i + d].is_zero() for d in range(k) for i in range(n - d)
            ) and all(power.rows[i][i + k] == a**k for i in range(n - k))
            if not ok:
                failures += 1
    return checks, failures


def _check_single_block_criterion(rng, max_n=6):
    checks = failures = 0
    for n in range(2, max_n + 1):
        lam = random_scalar(rng)
        a = random_scalar(rng)
        if a.is_zero():
            a = Qi(1)
        shifted = _superdiagonal_matrix(rng, n, a) + MatrixQi.identity(n).scale(lam)
        checks += 1
        if segre_at(shifted, lam).parts != (n,):
            failures += 1
        # zero superdiagonal: never a single block of size n
        degenerate = _superdiagonal_matrix(rng, n, Qi(0)) + MatrixQi.identity(n).scale(lam)
        checks += 1
        if segre_at(degenerate, lam).parts == (n,):
            failures += 1
    return checks, failures


def split_pattern_grid(max_k=8, max_m=8):
    """{(K, m): (split_pattern(K, m).parts, [oracle variants that disagree])}."""
    grid = {}
    variants = ("simple", "two_factor")
    for k in range(1, max_k + 1):
        for m in range(1, max_m + 1):
            parts = split_pattern(k, m).parts
            grid[k, m] = (parts, [v for v in variants if split_pattern_oracle(k, m, v) != parts])
    return grid


def run_selftest(seed=0):
    """Run every suite; returns a list of {name, checks, failures} plus the seed."""
    rng = random.Random(seed)
    suites = [
        ("similarity_equivariance", _check_similarity_equivariance),
        ("jordan_block_toeplitz", _check_jordan_block_toeplitz),
        ("block_diagonal", _check_block_diagonal),
        ("superdiagonal_powers", _check_superdiagonal_powers),
        ("single_block_criterion", _check_single_block_criterion),
    ]
    results = []
    for name, fn in suites:
        checks, failures = fn(rng)
        results.append({"name": name, "checks": checks, "failures": failures})
    grid = split_pattern_grid()
    failures = sum(len(bad) for _, bad in grid.values())
    results.append({"name": "split_pattern_oracle_grid", "checks": 2 * len(grid), "failures": failures})
    return {"seed": seed, "suites": results, "passed": all(r["failures"] == 0 for r in results)}
