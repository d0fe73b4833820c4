"""Decision procedure for solvability of f(X) = A over M_n(C) and the
per-dimension range classifier.

The scalar reduction: f(X) = A is solvable iff every eigenvalue a of A
admits a preimage structure compatible with A's Jordan blocks at a. A
Jordan block J_K(z0) of X, with z0 a root of f - a of multiplicity m, maps
to Jordan structure split_pattern(K, m) at a. Solvability at a TRV a is
therefore a partition-cover question: can A's Segre partition at a be
written as an exact multiset union of split patterns drawn from the
available preimage multiplicities?

split_pattern's closed form is anchored at both extremes (m = 1 gives one
full block; m >= K gives all-trivial blocks) and is permanently guarded by
the brute-force rank oracle split_pattern_oracle: if the two ever disagree,
the oracle wins and the build fails. The cover search inlines that closed
form as moves on the descending partition itself, and a test pins the two
equal. describe_range runs one memoised search per TRV for all partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import InternalInvariantError, PreconditionError, WitnessUnavailable
from .functions import (
    EntireFunction,
    RamificationProfile,
    TheoremCase,
    preimage_roots,
    validate,
)
from .matrices import (
    MatrixQi,
    SegrePartition,
    apply_poly,
    char_poly,
    f_of_jordan_block,
    jordan_chains,
    outside_qi_cause,
    segre_at,
)
from .polynomials import Poly, gaussian_rational_roots
from .scalars import ZERO, GaussianRational, Qi, render_scalar

__all__ = [
    "SplitPattern",
    "split_pattern",
    "split_pattern_oracle",
    "coverable",
    "BlockingReason",
    "BlockingInfo",
    "CoverPlanEntry",
    "RangeVerdict",
    "decide_range",
    "build_witness",
    "describe_range",
    "nontrivial_partitions",
]


@dataclass(frozen=True)
class SplitPattern:
    source_size: int  # K
    root_multiplicity: int  # m
    parts: tuple  # sorted descending, zero sizes discarded


def split_pattern(K: int, m: int) -> SplitPattern:
    """Jordan block sizes at a of f(J_K(z0)) when z0 is a root of f - a of
    multiplicity m: (K mod m) blocks of size ceil(K/m) and (m - K mod m)
    blocks of size floor(K/m), zero sizes discarded."""
    if K < 1 or m < 1:
        raise PreconditionError("split_pattern needs K >= 1 and m >= 1")
    q, r = divmod(K, m)
    parts = [q + 1] * r + [q] * (m - r)
    return SplitPattern(K, m, tuple(sorted((p for p in parts if p > 0), reverse=True)))


def split_pattern_oracle(K: int, m: int, variant: str = "simple") -> tuple:
    """Independent rank-based computation of the split pattern.

    variant "simple": f = z^m, block J_K(0), value 0 (root 0, multiplicity m).
    variant "two_factor": f = (z-1)^m (z+2), block J_K(1), value 0 (root 1 of
    multiplicity m plus an extra simple factor away from it)."""
    if variant == "simple":
        f = Poly.monomial(m)
        block = MatrixQi.jordan_block(K, 0)
    elif variant == "two_factor":
        f = Poly.from_roots([Qi(1)] * m) * Poly((Qi(2), Qi(1)))
        block = MatrixQi.jordan_block(K, 1)
    else:
        raise PreconditionError(f"unknown oracle variant {variant!r}")
    return segre_at(apply_poly(f, block), 0).parts


# -- partition covers ----------------------------------------------------------


def _cover_search(rest, options, memo):
    """The first cover of the descending partition `rest` by split patterns
    with root multiplicities in `options`, as a chain ((K, m), tail) ending
    in (), or None. `memo` keeps every answer found with these options, so
    one dict serves any number of partitions; an answer shares its tail's
    chain, so each entry costs one pair. (A self-recursive closure would keep
    its memo alive in a reference cycle until a full garbage collection.)"""
    if not rest:
        return ()
    if rest in memo:
        return memo[rest]
    # the largest remaining part p must be the largest part of some pattern:
    # K = m(p-1) + j with 1 <= j <= m, and split_pattern(K, m) is j parts p
    # then m - j parts p - 1 (none when p = 1)
    p = rest[0]
    big, small = rest.count(p), rest.count(p - 1)
    result = None
    for K, m, j in sorted((m * (p - 1) + j, m, j) for m in options for j in range(1, m + 1)):
        k = m - j if p > 1 else 0
        if j > big or k > small:
            continue
        tail = _cover_search(rest[j:big] + rest[big + k :], options, memo)
        if tail is not None:
            result = ((K, m), tail)
            break
    memo[rest] = result
    return result


def coverable(target, multiplicities, simple_available=False):
    """Express `target` (a partition: multiset of block sizes) as an exact
    multiset union of split patterns whose root multiplicities come from
    `multiplicities` (all >= 2), plus multiplicity 1 if `simple_available`.

    Returns a sorted list of (K, m), or None when no cover exists (membership
    of the partition in S^f_a). Each multiplicity may be reused freely: each
    use is a distinct Jordan block of X, and distinct blocks may share the
    same scalar root.
    """
    target = tuple(sorted(target, reverse=True))
    if any(p < 1 for p in target):
        raise PreconditionError("partition parts must be >= 1")
    options = sorted(set(multiplicities) | ({1} if simple_available else set()))
    if any(m < 2 for m in multiplicities):
        raise PreconditionError("preimage multiplicities in M must be >= 2")
    node = _cover_search(target, options, {})
    if node is None:
        return None
    cover = []
    while node:
        move, node = node
        cover.append(move)
    return sorted(cover)


def nontrivial_partitions(n: int):
    """All partitions of every total 1..n that contain a part >= 2, i.e. the
    Segre partitions corresponding to membership in S_a for dimension n."""
    out = []

    def gen(total, largest, acc):
        if total == 0:
            if any(p >= 2 for p in acc):
                out.append(tuple(acc))
            return
        for p in range(min(total, largest), 0, -1):
            gen(total - p, p, acc + [p])

    for total in range(1, n + 1):
        gen(total, total, [])
    return out


# -- verdicts ------------------------------------------------------------------


class BlockingReason(Enum):
    OMITTED_EIGENVALUE = "omitted_eigenvalue"
    UNCOVERABLE_PARTITION = "uncoverable_partition"


@dataclass(frozen=True)
class BlockingInfo:
    value: GaussianRational
    reason: BlockingReason
    partition: SegrePartition


@dataclass(frozen=True)
class CoverPlanEntry:
    eigenvalue: GaussianRational
    preimage: str  # rendered root, or a symbolic description
    source_size: int  # K
    root_multiplicity: int  # m
    parts: tuple


@dataclass(frozen=True)
class RangeVerdict:
    solvable: bool
    theorem_case: TheoremCase
    blocking: BlockingInfo | None = None
    cover_plan: tuple | None = None
    # ((eigenvalue, (Segre parts, {m: preimage roots})), ...) for every Q(i)
    # eigenvalue of A in canonical order, handed on to build_witness
    analysis: tuple = field(default=(), compare=False, repr=False)
    # degree of the part of char(A) with no root in Q(i): eigenvalues the
    # cover plan cannot list; rendered only when nonzero
    outside_qi_degree: int = 0

    def render(self):
        out = {"solvable": self.solvable, "case": self.theorem_case.value}
        if self.blocking is not None:
            out["blocking"] = {
                "value": render_scalar(self.blocking.value),
                "reason": self.blocking.reason.value,
                "partition": list(self.blocking.partition.parts),
            }
        if self.cover_plan is not None:
            out["cover_plan"] = [
                {
                    "eigenvalue": render_scalar(e.eigenvalue),
                    "preimage": e.preimage,
                    "K": e.source_size,
                    "m": e.root_multiplicity,
                    "parts": list(e.parts),
                }
                for e in self.cover_plan
            ]
        if self.outside_qi_degree:
            out["outside_qi_degree"] = self.outside_qi_degree
        return out


def _preimages(info) -> dict:
    """{m: Q(i) roots of multiplicity m, in canonical order} of a PreimageInfo."""
    by_mult = {}
    for r in info.roots:  # canonical order already
        by_mult.setdefault(r.multiplicity, []).append(r.root)
    return {m: tuple(roots) for m, roots in by_mult.items()}


def _preimage_descriptor(f: EntireFunction, preimages: dict, m: int, trv: bool) -> str:
    """Rendered canonical-least root of multiplicity m when one is in Q(i),
    else symbolic."""
    if m in preimages:
        return render_scalar(preimages[m][0])
    if not trv:
        if f.kind == "polynomial":
            return "simple root outside Q(i)"
        return "simple preimage (transcendental)"
    if f.kind == "sin_family":
        return f"critical preimage of multiplicity {m}"
    return f"root of multiplicity {m} outside Q(i)"


def decide_range(f: EntireFunction, a: MatrixQi) -> RangeVerdict:
    """Theorem-case classification plus solvability of f(X) = A.

    The verdict never needs A's full spectrum: only Jordan structure at the
    function's finitely many special values, which all lie in Q(i)."""
    profile = validate(f)
    case = profile.theorem_case
    for v in profile.omitted_values:
        partition = segre_at(a, v)
        if not partition.is_empty():
            return RangeVerdict(
                False, case, BlockingInfo(v, BlockingReason.OMITTED_EIGENVALUE, partition)
            )
    analysis = {}
    plan = []
    for entry in profile.trv_entries:
        partition = segre_at(a, entry.value)
        if partition.is_empty():
            continue
        cover = coverable(partition.parts, set(entry.multiplicity_multiset))
        if cover is None:
            return RangeVerdict(
                False,
                case,
                BlockingInfo(entry.value, BlockingReason.UNCOVERABLE_PARTITION, partition),
            )
        preimages = _preimages(entry.preimages)
        analysis[entry.value] = (partition.parts, preimages)
        for K, m in cover:
            plan.append(
                CoverPlanEntry(
                    entry.value,
                    _preimage_descriptor(f, preimages, m, trv=True),
                    K,
                    m,
                    split_pattern(K, m).parts,
                )
            )
    # non-special eigenvalues never block; list the ones visible over Q(i).
    # Away from its TRVs a transcendental f has infinitely many simple
    # preimages, so only a polynomial's are named.
    roots = gaussian_rational_roots(char_poly(a))
    for r in roots:
        if r.root in analysis:
            continue
        parts = segre_at(a, r.root).parts
        preimages = _preimages(preimage_roots(f, r.root)) if f.kind == "polynomial" else {}
        analysis[r.root] = (parts, preimages)
        descriptor = _preimage_descriptor(f, preimages, 1, trv=False)
        for p in parts:
            plan.append(CoverPlanEntry(r.root, descriptor, p, 1, (p,)))
    ordered = tuple(sorted(analysis.items(), key=lambda item: item[0].sort_key()))
    outside = a.n - sum(r.multiplicity for r in roots)
    return RangeVerdict(
        True, case, cover_plan=tuple(plan), analysis=ordered, outside_qi_degree=outside
    )


# -- witness construction ------------------------------------------------------


def build_witness(f: EntireFunction, a: MatrixQi, verdict: RangeVerdict | None = None) -> MatrixQi:
    """Exact X with f(X) = A, for polynomial f and solvable A with Q(i)
    spectrum and Q(i) preimage roots of the multiplicities the cover needs.

    X = T S^-1 Y S T^-1 with A = T J T^-1, f(Y) = S J S^-1 and Y a direct sum
    of blocks J_K(z0); S comes block by block from the chains of f(J_K(z0)),
    T from A's chains at each eigenvalue of verdict.analysis.

    Raises WitnessUnavailable when the verdict stands but no exact witness
    exists over Q(i); InternalInvariantError only on a bug."""
    if f.kind != "polynomial":
        raise PreconditionError("witness construction is polynomial-only")
    if verdict is None:
        verdict = decide_range(f, a)
    if not verdict.solvable:
        raise PreconditionError("no witness: the equation is unsolvable")
    outside = a.n - sum(sum(parts) for _, (parts, _) in verdict.analysis)
    if outside < 0:
        raise InternalInvariantError("the verdict's Jordan blocks do not fit A")
    if outside:
        raise WitnessUnavailable(
            "decision stands, but A's spectrum leaves Q(i)", {"cause": outside_qi_cause(outside)}
        )
    blocks = []
    s_columns = []
    t_columns = []
    offset = 0
    for lam, (parts, preimages) in verdict.analysis:
        cover = coverable(
            parts,
            [m for m in preimages if m >= 2],
            simple_available=1 in preimages,
        )
        if cover is None:
            raise WitnessUnavailable(
                "decision stands, but the preimage roots available over Q(i) "
                f"cannot produce the Jordan structure at {render_scalar(lam)}",
                {"eigenvalue": render_scalar(lam), "partition": list(parts)},
            )
        chains = []
        for K, m in cover:
            z0 = preimages[m][0]  # canonical-least qualifying root
            blocks.append(MatrixQi.jordan_block(K, z0))
            pad_above, pad_below = (ZERO,) * offset, (ZERO,) * (a.n - offset - K)
            for chain in jordan_chains(f_of_jordan_block(f.poly, K, z0), lam):
                chains.append([pad_above + v + pad_below for v in chain])
            offset += K
        chains.sort(key=len, reverse=True)  # stable: ties stay in block order
        a_chains = jordan_chains(a, lam)
        if [len(c) for c in chains] != [len(c) for c in a_chains]:
            raise InternalInvariantError("f(Y) and A disagree on canonical Jordan form")
        for s_chain, t_chain in zip(chains, a_chains):
            s_columns.extend(s_chain)
            t_columns.extend(t_chain)
    y = MatrixQi.block_diag(blocks)
    s = MatrixQi(list(zip(*s_columns)))  # vectors become columns
    t = MatrixQi(list(zip(*t_columns)))
    x = t @ s.inverse() @ y @ s @ t.inverse()
    if apply_poly(f.poly, x) != a:
        raise InternalInvariantError("witness failed exact verification f(X) = A")
    return x


# -- per-dimension range description -------------------------------------------


@dataclass(frozen=True)
class RangeDescription:
    theorem_case: TheoremCase
    profile: RamificationProfile
    n: int
    uncoverable: tuple  # ((trv value, (partition, ...)), ...)

    def render(self):
        out = {
            "case": self.theorem_case.value,
            "n": self.n,
            "omitted_values": [render_scalar(v) for v in self.profile.omitted_values],
        }
        out["uncoverable_partitions"] = [
            {"value": render_scalar(v), "partitions": [list(p) for p in parts]}
            for v, parts in self.uncoverable
        ]
        return out


def describe_range(f: EntireFunction, n: int) -> RangeDescription:
    """Explicit description of the complement of the range inside M_n: for
    each TRV, the finite list of Jordan-structure partitions at that value
    that no f(X) can realize."""
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    profile = validate(f)
    partitions = nontrivial_partitions(n)
    uncoverable = []
    for entry in profile.trv_entries:
        options, memo = sorted(set(entry.multiplicity_multiset)), {}
        bad = tuple(p for p in partitions if _cover_search(p, options, memo) is None)
        uncoverable.append((entry.value, bad))
    return RangeDescription(profile.theorem_case, profile, n, tuple(uncoverable))
