#!/usr/bin/env python3
"""Tabulate split_pattern(K, m) against both variants of the brute-force
rank oracle, on the grid the selftest checks.

K is the size of a Jordan block of X at a preimage root of multiplicity m;
the table entry is the multiset of Jordan block sizes of f(J_K) at the
target value. A "!" marks an entry some oracle variant disagrees with,
which would mean the closed form is wrong; the exit code reflects that.

Usage: python3 scripts/split_pattern_grid.py [max_K] [max_m]
"""

import sys

from matrange.selftest import split_pattern_grid


def main():
    max_k = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    max_m = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    grid = split_pattern_grid(max_k, max_m)
    print("K\\m " + " ".join(f"{m:>12}" for m in range(1, max_m + 1)))
    for K in range(1, max_k + 1):
        cells = []
        for m in range(1, max_m + 1):
            parts, bad = grid[K, m]
            cell = "+".join(map(str, parts)) + ("!" if bad else "")
            cells.append(f"{cell:>12}")
        print(f"{K:>3} " + " ".join(cells))
    mismatches = sum(len(bad) for _, bad in grid.values())
    if mismatches:
        print(f"{mismatches} mismatches against the rank oracle", file=sys.stderr)
        return 1
    print("all entries confirmed by both rank oracle variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
