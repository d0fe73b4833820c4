"""The partition-cover search as matrange.ranges ran it before its moves were
read off the partition, kept only to cross-check ranges.coverable and
ranges.describe_range.

Each search builds its own memo, builds split_pattern(K, m) for every move
it tries and removes the pattern's parts from the remaining partition one by
one; describe_range runs one such search per partition.
"""

from matrange.errors import PreconditionError
from matrange.functions import validate
from matrange.ranges import RangeDescription, nontrivial_partitions, split_pattern


def multiset_subtract(target, parts):
    """target minus parts as descending tuples, or None if not a sub-multiset."""
    remaining = list(target)
    for p in parts:
        try:
            remaining.remove(p)
        except ValueError:
            return None
    return tuple(remaining)


def coverable(target, multiplicities, simple_available=False):
    target = tuple(sorted(target, reverse=True))
    if any(p < 1 for p in target):
        raise PreconditionError("partition parts must be >= 1")
    options = sorted(set(multiplicities) | ({1} if simple_available else set()))
    if any(m < 2 for m in multiplicities):
        raise PreconditionError("preimage multiplicities in M must be >= 2")
    memo = {}

    def search(rest):
        if not rest:
            return []
        if rest in memo:
            return memo[rest]
        p = rest[0]
        moves = sorted(
            (K, m) for m in options for K in range(m * (p - 1) + 1, m * p + 1)
        )
        result = None
        for K, m in moves:
            rem = multiset_subtract(rest, split_pattern(K, m).parts)
            if rem is None:
                continue
            tail = search(rem)
            if tail is not None:
                result = [(K, m)] + tail
                break
        memo[rest] = result
        return result

    cover = search(target)
    return None if cover is None else sorted(cover)


def describe_range(f, n):
    profile = validate(f)
    uncoverable = []
    for entry in profile.trv_entries:
        bad = tuple(
            p
            for p in nontrivial_partitions(n)
            if coverable(p, set(entry.multiplicity_multiset)) is None
        )
        uncoverable.append((entry.value, bad))
    return RangeDescription(profile.theorem_case, profile, n, tuple(uncoverable))
