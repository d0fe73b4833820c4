import itertools
import random
import sys

import pytest

import cover_oracles
from matrange import functions, polynomials
from matrange.errors import InternalInvariantError, PreconditionError, WitnessUnavailable
from matrange.functions import (
    TheoremCase,
    exp_poly_family,
    polynomial_function,
    sin_family,
)
from matrange.matrices import MatrixQi, apply_poly, jordan_decomposition, segre_at
from matrange.polynomials import Poly, gaussian_rational_roots
from matrange.ranges import (
    BlockingReason,
    build_witness,
    coverable,
    decide_range,
    describe_range,
    nontrivial_partitions,
    split_pattern,
    split_pattern_oracle,
)
from matrange.scalars import Qi
from matrange.selftest import random_invertible, random_scalar


def J(k, lam):
    return MatrixQi.jordan_block(k, lam)


def poly_f(coeffs):
    return polynomial_function(Poly(coeffs))


# -- split patterns ------------------------------------------------------------


def test_split_pattern_closed_form():
    assert split_pattern(5, 1).parts == (5,)
    assert split_pattern(2, 2).parts == (1, 1)
    assert split_pattern(1, 2).parts == (1,)
    assert split_pattern(3, 2).parts == (2, 1)
    assert split_pattern(7, 3).parts == (3, 2, 2)
    assert split_pattern(2, 5).parts == (1, 1)


def test_split_pattern_structure():
    for K in range(1, 9):
        for m in range(1, 9):
            parts = split_pattern(K, m).parts
            assert sum(parts) == K
            assert len(parts) == min(m, K)
            assert parts[0] == -(-K // m)


def test_split_pattern_matches_rank_oracle_full_grid():
    for K in range(1, 9):
        for m in range(1, 9):
            expected = split_pattern(K, m).parts
            assert split_pattern_oracle(K, m, "simple") == expected
            assert split_pattern_oracle(K, m, "two_factor") == expected


# -- covers --------------------------------------------------------------------


def test_cover_examples():
    assert coverable((2,), {2}) is None
    assert coverable((2, 1), {2}) == [(3, 2)]
    cover = coverable((1, 1, 1), {2})
    assert cover is not None
    from collections import Counter

    combined = Counter()
    for K, m in cover:
        combined.update(split_pattern(K, m).parts)
    assert combined == Counter({1: 3})
    assert coverable((4, 2, 1), set(), simple_available=True) == [(1, 1), (2, 1), (4, 1)]


def test_cover_conservation(rng):
    from collections import Counter

    for _ in range(40):
        target = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True))
        ms = set(rng.sample([2, 3, 4], rng.randint(1, 3)))
        cover = coverable(target, ms)
        if cover is None:
            continue
        assert sum(K for K, _ in cover) == sum(target)
        combined = Counter()
        for K, m in cover:
            assert m in ms
            combined.update(split_pattern(K, m).parts)
        assert combined == Counter(target)


def brute_force_coverable(target, ms):
    """No pruning, no memoization: try every (K, m) with K <= remaining total."""
    from collections import Counter

    target = Counter(target)

    def search(remaining):
        total = sum(remaining.elements())
        if total == 0:
            return True
        for m in ms:
            for K in range(1, total + 1):
                parts = Counter(split_pattern(K, m).parts)
                if all(remaining[p] >= c for p, c in parts.items()):
                    if search(remaining - parts):
                        return True
        return False

    return search(target)


def all_partitions(total):
    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for p in range(min(total, largest), 0, -1):
            for rest in gen(total - p, p):
                yield (p,) + rest

    return list(gen(total, total))


def test_cover_search_matches_exhaustive_enumeration():
    subsets = [set(s) for r in range(1, 4) for s in itertools.combinations([2, 3, 4], r)]
    for total in range(1, 7):
        for target in all_partitions(total):
            for ms in subsets:
                fast = coverable(target, ms) is not None
                assert fast == brute_force_coverable(target, ms), (target, ms)


def test_cover_soundness_end_to_end(rng):
    # realized Y must reproduce the target partition exactly
    for _ in range(15):
        target = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 3))), reverse=True))
        m = rng.choice([2, 3])
        cover = coverable(target, {m})
        if cover is None:
            continue
        f = Poly.monomial(m)  # root 0 of multiplicity m at value 0
        y = MatrixQi.block_diag([J(K, 0) for K, _ in cover])
        assert segre_at(apply_poly(f, y), 0).parts == target


def test_cover_move_identity():
    # the search applies split_pattern(m(p-1) + j, m) as j parts p and
    # m - j parts p - 1, zero parts dropped
    for m in range(1, 13):
        for p in range(1, 13):
            for j in range(1, m + 1):
                parts = (p,) * j + (p - 1,) * (m - j if p > 1 else 0)
                assert split_pattern(m * (p - 1) + j, m).parts == parts, (m, p, j)


def test_cover_search_matches_per_partition_oracle():
    targets = nontrivial_partitions(12) + [(1,) * k for k in range(1, 25)]
    subsets = [s for r in range(1, 4) for s in itertools.combinations([2, 3, 4, 5, 7], r)]
    for target in targets:
        for ms in subsets:
            for simple in (False, True):
                want = cover_oracles.coverable(target, ms, simple)
                assert coverable(target, ms, simple) == want, (target, ms, simple)


def test_describe_range_matches_per_partition_oracle():
    fs = [
        poly_f([0, 0, 1]),
        poly_f([0, 0, 0, 1]),
        polynomial_function(Poly.from_roots([0, 0, 1, 1, 1])),
        sin_family(1, -1, 1, 0),
    ]
    for n in range(1, 15):
        for f in fs:
            assert describe_range(f, n).render() == cover_oracles.describe_range(f, n).render()


def test_nontrivial_partitions():
    assert set(nontrivial_partitions(3)) == {(2,), (3,), (2, 1)}


# -- theorem-case structure ----------------------------------------------------


def test_min_multiplicity_iff_everything_uncoverable():
    # all nontrivial partitions of totals <= n uncoverable <=> min(M) >= n
    for n in range(1, 7):
        for r in range(1, 7):
            for ms in itertools.combinations(range(2, 8), r):
                all_blocked = all(
                    coverable(p, set(ms)) is None for p in nontrivial_partitions(n)
                )
                assert all_blocked == (min(ms) >= n), (n, ms)


def test_two_trv_structure_small_dimensions():
    assert coverable((2,), {2}) is None  # n = 2: S^f = S at both values
    assert coverable((2, 1), {2}) is not None  # n = 3: proper subset
    assert coverable((3,), {2}) is None


# -- decide_range --------------------------------------------------------------


def test_square_on_nilpotent_jordan_block_unsolvable():
    verdict = decide_range(poly_f([0, 0, 1]), J(2, 0))
    assert not verdict.solvable
    assert verdict.theorem_case is TheoremCase.ONE_TRV
    assert verdict.blocking.value == Qi(0)
    assert verdict.blocking.reason is BlockingReason.UNCOVERABLE_PARTITION
    assert verdict.blocking.partition.parts == (2,)


def test_square_on_split_nilpotent_solvable_with_witness():
    f = poly_f([0, 0, 1])
    a = MatrixQi.block_diag([J(2, 0), J(1, 0)])
    verdict = decide_range(f, a)
    assert verdict.solvable
    assert [(e.source_size, e.root_multiplicity) for e in verdict.cover_plan] == [(3, 2)]
    x = build_witness(f, a, verdict)
    assert apply_poly(f.poly, x) == a
    assert segre_at(x, 0).parts == (3,)


def test_cube_on_j3_unsolvable():
    verdict = decide_range(poly_f([0, 0, 0, 1]), J(3, 0))
    assert not verdict.solvable
    assert verdict.blocking.partition.parts == (3,)


def test_omitting_function_blocks_on_its_value():
    f = exp_poly_family(5, Poly([1]), 1, 0)
    blocked = decide_range(f, MatrixQi.diagonal([5, 2]))
    assert not blocked.solvable
    assert blocked.theorem_case is TheoremCase.OMITS_VALUE
    assert blocked.blocking.reason is BlockingReason.OMITTED_EIGENVALUE
    assert blocked.blocking.value == Qi(5)
    clear = decide_range(f, MatrixQi.diagonal([1, 2]))
    assert clear.solvable


def test_sin_family_verdicts():
    f = sin_family(0, 1, 1, 0)
    assert not decide_range(f, J(3, 0)).solvable
    assert not decide_range(f, J(2, 1)).solvable
    assert decide_range(f, MatrixQi.block_diag([J(2, 0), J(1, 0)])).solvable
    assert decide_range(f, J(3, Qi("1/2"))).solvable  # non-special eigenvalue


def test_no_trv_polynomial_always_solvable(rng):
    f = polynomial_function(Poly.monomial(2) * Poly([-1, 1]) + Poly.constant(7))
    assert decide_range(f, J(3, 7)).solvable
    for _ in range(5):
        n = rng.randint(1, 3)
        a = MatrixQi([[random_scalar(rng, 2, 1) for _ in range(n)] for _ in range(n)])
        assert decide_range(f, a).solvable


def test_linear_polynomial_everything_solvable_unique_witness(rng):
    f = poly_f([3, 2])  # 2z + 3
    for _ in range(5):
        n = rng.randint(1, 3)
        sizes = [(rng.randint(1, 2), random_scalar(rng, 2, 1)) for _ in range(1)]
        a0 = MatrixQi.block_diag([J(k, lam) for k, lam in sizes])
        t = random_invertible(rng, a0.n)
        a = t @ a0 @ t.inverse()
        verdict = decide_range(f, a)
        assert verdict.solvable
        x = build_witness(f, a, verdict)
        assert apply_poly(f.poly, x) == a
        # linear f has the unique exact solution (A - 3I)/2
        expected = (a - MatrixQi.identity(a.n).scale(3)).scale(Qi("1/2"))
        assert x == expected


def test_one_by_one_reduces_to_scalar_surjectivity():
    f = poly_f([0, 0, 1])
    assert decide_range(f, MatrixQi.diagonal([4])).solvable
    assert decide_range(f, MatrixQi.diagonal([0])).solvable
    assert not decide_range(exp_poly_family(5, Poly([1]), 1, 0), MatrixQi.diagonal([5])).solvable


def _plan_preimages(verdict):
    return [(str(e.eigenvalue), e.preimage) for e in verdict.cover_plan]


def test_cover_plan_preimage_strings():
    a = MatrixQi.block_diag([J(2, 0), J(1, 0), MatrixQi.diagonal([4]), MatrixQi.diagonal([2])])
    assert _plan_preimages(decide_range(poly_f([0, 0, 1]), a)) == [
        ("0", "0"),
        ("2", "simple root outside Q(i)"),
        ("4", "-2"),
    ]
    nilpotent = MatrixQi.block_diag([J(2, 0), J(1, 0)])
    f = polynomial_function((Poly.monomial(3) - Poly.constant(2)) ** 2)
    assert _plan_preimages(decide_range(f, nilpotent)) == [
        ("0", "root of multiplicity 2 outside Q(i)")
    ]
    a = MatrixQi.block_diag([J(2, 0), J(1, 0), MatrixQi.diagonal([3])])
    assert _plan_preimages(decide_range(sin_family(0, 1, 1, 0), a)) == [
        ("0", "critical preimage of multiplicity 2"),
        ("3", "simple preimage (transcendental)"),
    ]
    a = MatrixQi.block_diag([J(2, 5), J(1, 5)])
    f = exp_poly_family(5, Poly([0, 0, 1]), 1, 0)
    assert _plan_preimages(decide_range(f, a)) == [("5", "0")]
    # 5 is not a TRV of 5 + (z^2 - z) e^z: its preimages are not named
    f = exp_poly_family(5, Poly([0, -1, 1]), 1, 0)
    assert _plan_preimages(decide_range(f, MatrixQi.diagonal([5]))) == [
        ("5", "simple preimage (transcendental)")
    ]


def test_verdict_invariant_under_similarity(rng):
    f = poly_f([0, 0, 1])
    for a0 in [J(2, 0), MatrixQi.block_diag([J(2, 0), J(1, 0)]), J(2, 4), MatrixQi.diagonal([1, 2, 3])]:
        base = decide_range(f, a0).solvable
        for _ in range(5):
            t = random_invertible(rng, a0.n)
            assert decide_range(f, t @ a0 @ t.inverse()).solvable == base


# -- witnesses -----------------------------------------------------------------


def test_scalar_witness_tie_break():
    x = build_witness(poly_f([0, 0, 1]), MatrixQi.diagonal([4]))
    assert x == MatrixQi.diagonal([-2])  # canonical-least root


def test_witness_unavailable_for_irrational_preimage():
    f = poly_f([0, 0, 1])
    a = MatrixQi.diagonal([2])
    assert decide_range(f, a).solvable
    with pytest.raises(WitnessUnavailable):
        build_witness(f, a)


def test_witness_unavailable_for_irrational_spectrum():
    f = poly_f([0, 0, 1])
    a = MatrixQi([["0", "1"], ["2", "0"]])  # eigenvalues +-sqrt(2)
    assert decide_range(f, a).solvable
    with pytest.raises(WitnessUnavailable):
        build_witness(f, a)


def test_verdict_reports_the_degree_of_the_spectrum_outside_qi():
    f = poly_f([0, 0, 1])
    a = MatrixQi([["0", "1"], ["2", "0"]])  # eigenvalues +-sqrt(2)
    expected = {"solvable": True, "case": "III", "cover_plan": [], "outside_qi_degree": 2}
    assert decide_range(f, a).render() == expected
    # a spectrum inside Q(i), and a blocked verdict, render without the key
    assert "outside_qi_degree" not in decide_range(f, MatrixQi.diagonal([1, 4])).render()
    assert "outside_qi_degree" not in decide_range(f, J(2, 0)).render()


def test_witness_rejects_a_verdict_for_another_matrix():
    f = poly_f([0, 0, 1])
    verdict = decide_range(f, MatrixQi.diagonal([1, 4, 9]))
    assert verdict.solvable
    with pytest.raises(InternalInvariantError):
        build_witness(f, MatrixQi.diagonal([1, 4]), verdict)


def test_witness_refused_for_unsolvable():
    with pytest.raises(PreconditionError):
        build_witness(poly_f([0, 0, 1]), J(2, 0))


def test_witness_refused_for_transcendental():
    with pytest.raises(PreconditionError):
        build_witness(sin_family(0, 1, 1, 0), MatrixQi.diagonal([Qi("1/2")]))


def test_witness_randomized_engineered_instances(rng):
    for _ in range(25):
        deg = rng.randint(1, 4)
        f = polynomial_function(
            Poly([random_scalar(rng, 2, 1) for _ in range(deg)] + [Qi(1)])
        )
        n_blocks = rng.randint(1, 2)
        y = MatrixQi.block_diag(
            [J(rng.randint(1, 2), random_scalar(rng, 2, 1)) for _ in range(n_blocks)]
        )
        t = random_invertible(rng, y.n)
        a = t @ apply_poly(f.poly, y) @ t.inverse()
        verdict = decide_range(f, a)
        assert verdict.solvable
        x = build_witness(f, a, verdict)
        assert apply_poly(f.poly, x) == a


def test_one_squarefree_decomposition_per_polynomial(monkeypatch):
    calls = []
    original = polynomials.squarefree_decomposition

    def counted(p):
        calls.append(p)
        return original(p)

    for module in (polynomials, functions):
        monkeypatch.setattr(module, "squarefree_decomposition", counted)
    a = MatrixQi.block_diag([J(2, 0), J(1, 0), MatrixQi.diagonal([4, 9, 1])])
    assert decide_range(poly_f([0, 0, 1]), a).solvable
    # z^2 once, in the profile; char(A); z^2 - lam at 4, 9 and 1
    assert len(calls) == 5
    calls.clear()
    f = exp_poly_family(5, Poly.monomial(2), 1, 0)  # 5 + z^2 e^z
    assert decide_range(f, MatrixQi.block_diag([J(2, 5), J(1, 5)])).solvable
    # P = z^2 once, in the profile; char(A)
    assert len(calls) == 2


def test_decision_path_never_builds_the_critical_value_polynomial(monkeypatch):
    def refuse(p):
        raise AssertionError("critical_value_polynomial called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matrange" and hasattr(module, "critical_value_polynomial"):
            monkeypatch.setattr(module, "critical_value_polynomial", refuse)
    z = Poly.monomial(1)
    cases = [
        (poly_f([0, 0, 1]), MatrixQi.block_diag([J(2, 0), J(1, 0), MatrixQi.diagonal([4])])),  # TRV 0
        (poly_f([3, 0, 1]), J(2, 3)),  # TRV 3, blocked
        # TRV 1 with preimages +-sqrt(2): solvable, no witness over Q(i)
        (polynomial_function((z * z - Poly.constant(2)) ** 2 + Poly.constant(1)), MatrixQi.diagonal([1, 1])),
        (poly_f([0, -1, 0, 1]), MatrixQi.diagonal([0, 6])),  # z^3 - z: no TRV
        (poly_f([1, 1]), J(3, 2)),  # degree 1
    ]
    for f, a in cases:
        functions.ramification_profile(f)
        verdict = decide_range(f, a)
        if verdict.solvable:
            try:
                build_witness(f, a, verdict)
            except WitnessUnavailable:
                pass
        describe_range(f, 4)


def full_decomposition_witness(f, a):
    """build_witness the way it was before f(Y) was decomposed block by block:
    A's blocks grouped by eigenvalue, Q(i) roots of f - lam found afresh, and
    S from a full jordan_decomposition of apply_poly(f, Y)."""
    dec_a = jordan_decomposition(a)
    partitions = {}
    for lam, size in dec_a.ordering:
        partitions.setdefault(lam, []).append(size)
    blocks = []
    for lam, sizes in partitions.items():
        by_mult = {}
        for r in gaussian_rational_roots(f.poly.shift(lam)):
            by_mult.setdefault(r.multiplicity, []).append(r.root)
        cover = coverable(sorted(sizes, reverse=True), [m for m in by_mult if m >= 2], 1 in by_mult)
        blocks.extend(J(K, min(by_mult[m], key=lambda z: z.sort_key())) for K, m in cover)
    y = MatrixQi.block_diag(blocks)
    dec_f = jordan_decomposition(apply_poly(f.poly, y))
    assert dec_f.j == dec_a.j
    s = dec_f.t
    return dec_a.t @ s.inverse() @ y @ s @ dec_a.t_inverse()


def test_blockwise_witness_matches_full_decomposition():
    rng = random.Random(8)
    for k in range(30):
        if k % 2:
            # one preimage root, several blocks there: f(J_K) splits into chains
            r = random_scalar(rng, 2, 1)
            f = polynomial_function(
                Poly.from_roots([r] * rng.choice([2, 3])) + Poly.constant(random_scalar(rng, 2, 1))
            )
            y = MatrixQi.block_diag([J(rng.randint(1, 4), r) for _ in range(rng.randint(1, 3))])
        else:
            f = polynomial_function(
                Poly([random_scalar(rng, 2, 1) for _ in range(rng.randint(1, 4))] + [Qi(1)])
            )
            y = MatrixQi.block_diag(
                [J(rng.randint(1, 3), random_scalar(rng, 2, 1)) for _ in range(rng.randint(1, 3))]
            )
        t = random_invertible(rng, y.n)
        a = t @ apply_poly(f.poly, y) @ t.inverse()
        assert build_witness(f, a) == full_decomposition_witness(f, a)


# -- describe_range ------------------------------------------------------------


def test_describe_square_n2():
    desc = describe_range(poly_f([0, 0, 1]), 2)
    assert desc.theorem_case is TheoremCase.ONE_TRV
    ((value, bad),) = desc.uncoverable
    assert value == Qi(0)
    assert set(bad) == {(2,)}  # S^f_0 = S_0 for n = 2


def test_describe_square_n3():
    desc = describe_range(poly_f([0, 0, 1]), 3)
    ((_, bad),) = desc.uncoverable
    assert (3,) in bad and (2,) in bad
    assert (2, 1) not in bad  # proper subset of S_0


def test_describe_sin_family_n3():
    desc = describe_range(sin_family(0, 1, 1, 0), 3)
    assert desc.theorem_case is TheoremCase.TWO_TRV
    assert len(desc.uncoverable) == 2
    for _, bad in desc.uncoverable:
        assert (3,) in bad and (2, 1) not in bad
