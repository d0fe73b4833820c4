"""Seeded input generators for the four workloads.

Every input is built in the harness's own arithmetic (perfbench/exact.py)
from a planted structure, and carries the answer that structure implies:

* a matrix A = T J T^-1, with J the planted Jordan form (Jordan blocks at
  Q(i) eigenvalues, companion blocks of polynomials irreducible over Q(i))
  and T an integer unimodular matrix;
* the theorem case of f, the verdict and, when blocked, the blocking value,
  reason and partition, all derived from the planted structure with the
  independent cover oracle.

Input i of a workload depends only on (workload, seed, i), so the same seed
gives the same inputs and no input repeats within a run. Every round of a
workload is the same list of slots (size, function kind, verdict kind, ...);
the seed draws only the values. So every round, whatever the seed, is the
same mix of work, and the number of rounds a run makes does not change it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exact import (
    ZERO,
    add,
    block_diag,
    companion,
    jordan_block,
    conjugate,
    cover,
    mul,
    partitions_upto,
    poly_eval,
    poly_from_roots,
    q,
    render,
    split_pattern,
)

# monic polynomials irreducible over Q(i): odd-degree polynomials irreducible
# over Q stay irreducible over the degree-2 extension Q(i)
IRREDUCIBLE = {
    3: ([-2, 0, 0, 1], [1, 1, 0, 1], [1, -3, 0, 1], [3, 0, 1, 1]),
    5: ([-1, -1, 0, 0, 0, 1], [2, 0, 0, 2, 0, 1]),
}

# (n, function kind, blocked, TRV multiplicities, companion degree): all four
# theorem cases, blocked and solvable verdicts, spectra inside Q(i) (companion
# degree 0) and with an irreducible cubic or quintic outside it
DECIDE_SLOTS = (
    (2, "poly_trv", False, (2,), 0),
    (3, "exp_omit", False, (), 0),
    (4, "sin", False, (), 0),
    (5, "exp_trv", False, (2, 3), 3),
    (6, "poly_none", False, (), 3),
    (7, "poly_trv", False, (3,), 3),
    (8, "sin", False, (), 5),
    (9, "exp_omit", True, (), 5),
    (10, "exp_trv", False, (2, 2), 3),
    (11, "sin", True, (), 3),
    (12, "poly_trv", True, (2, 4), 0),
)
# (n, e): f = c (z - r)^e + t. Sizes whose costs overlap, in an odd number of
# slots, keep the median and the tail op inside a dense band of latencies
# rather than between two clusters.
WITNESS_SLOTS = ((3, 2), (3, 4), (4, 2), (4, 4), (5, 2))
DECIDE_KINDS = ("poly_trv", "poly_none", "sin", "exp_omit", "exp_trv")
TRV_MULTS = ((2,), (3,), (2, 2), (2, 3), (2, 4), (3, 3))
CASE = {"poly_trv": "III", "poly_none": "II", "sin": "IV", "exp_omit": "I", "exp_trv": "III"}


def rng_for(workload, seed, i):
    return random.Random(f"{workload}:{seed}:{i}")


def small_scalar(rng, bound=3, denom=2):
    return q(
        Fraction(rng.randint(-bound, bound), rng.randint(1, denom)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, denom)),
    )


def nonzero_scalar(rng, bound=3, denom=2):
    while True:
        c = small_scalar(rng, bound, denom)
        if c != ZERO:
            return c


def distinct_scalars(rng, count, avoid):
    out = []
    while len(out) < count:
        c = small_scalar(rng)
        if c not in avoid and c not in out:
            out.append(c)
    return out


def poly_json(coeffs):
    return {"type": "polynomial", "coeffs": [render(c) for c in coeffs]}


def matrix_json(a):
    return {"n": len(a), "rows": [[render(x) for x in row] for row in a]}


# -- planted Jordan structure ---------------------------------------------------


def patterns_partition(rng, mults, budget):
    """A partition that is a union of split patterns from `mults`, total <= budget."""
    parts = []
    while True:
        m = rng.choice(mults)
        k = rng.randint(1, max(1, min(2 * m, budget - sum(parts))))
        pat = split_pattern(k, m)
        if sum(parts) + sum(pat) > budget:
            break
        parts.extend(pat)
        if rng.random() < 0.4:
            break
    if not parts:
        parts = [1]
    return tuple(sorted(parts, reverse=True))


def uncoverable_partition(rng, mults, budget):
    """A partition of total <= budget that no union of split patterns gives."""
    candidates = [
        p for p in partitions_upto(min(budget, 6)) if cover(p, mults) is None
    ]
    return rng.choice(candidates)


def random_partition(rng, total, largest=3):
    parts = []
    while total > 0:
        p = rng.randint(1, min(total, largest))
        parts.append(p)
        total -= p
    return tuple(sorted(parts, reverse=True))


def fill_spectrum(rng, budget, avoid, companion_degree):
    """Jordan structure for the non-special part of the spectrum: a companion
    block of an irreducible polynomial of `companion_degree` (0 for none) when
    it fits, then the rest split evenly over two distinct Q(i) eigenvalues.
    Returns ({eigenvalue: partition}, companion polynomials)."""
    companions = []
    if companion_degree and budget >= companion_degree:
        companions.append(rng.choice(IRREDUCIBLE[companion_degree]))
        budget -= companion_degree
    partitions = {}
    sizes = [s for s in (budget - budget // 2, budget // 2) if s]
    for lam, size in zip(distinct_scalars(rng, len(sizes), avoid), sizes):
        partitions[lam] = random_partition(rng, size)
    return partitions, companions


def planted_matrix(rng, n, partitions, companions):
    blocks = []
    for lam, parts in partitions.items():
        blocks.extend(jordan_block(k, lam) for k in parts)
    blocks.extend(companion(p) for p in companions)
    j = block_diag(blocks)
    if len(j) != n:
        raise AssertionError(f"planted size {len(j)} != {n}")
    return conjugate(rng, j, n)


# -- decide-mixed ---------------------------------------------------------------


def decide_input(seed, i, n, kind, blocked, mults, companion_degree, workload="decide-mixed"):
    rng = rng_for(workload, seed, i)
    omitted, trvs = [], {}  # trvs: value -> multiplicities (sorted)
    c, d = nonzero_scalar(rng), small_scalar(rng)
    if kind in ("poly_trv", "exp_trv"):
        roots = distinct_scalars(rng, len(mults), [])
        base = poly_from_roots(list(zip(roots, mults)))
        v = small_scalar(rng)
        trvs[v] = tuple(sorted(mults))
        if kind == "poly_trv":
            coeffs = [mul(x, c) for x in base]
            coeffs[0] = add(coeffs[0], v)
            f = poly_json(coeffs)
        else:
            f = {"type": "exp_poly", "v": render(v), "p_coeffs": [render(x) for x in base],
                 "c": render(c), "d": render(d)}
    elif kind == "poly_none":
        # a cubic a3 z^3 + a2 z^2 + a1 z + a0 has a TRV iff P' is a square,
        # i.e. a2^2 = 3 a1 a3
        while True:
            coeffs = [small_scalar(rng) for _ in range(3)] + [nonzero_scalar(rng)]
            if mul(coeffs[2], coeffs[2]) != mul(q(3), mul(coeffs[1], coeffs[3])):
                break
        f = poly_json(coeffs)
    elif kind == "sin":
        a, b = distinct_scalars(rng, 2, [])
        trvs[a] = (2,)
        trvs[b] = (2,)
        f = {"type": "sin_family", "a": render(a), "b": render(b), "c": render(c), "d": render(d)}
    else:  # exp_omit
        v = small_scalar(rng)
        omitted.append(v)
        f = {"type": "exp_poly", "v": render(v), "p_coeffs": ["1"], "c": render(c), "d": render(d)}

    # Jordan structure at the special values; a blocked input gets one
    # blocking value, planted first so it always fits
    special = {}
    budget = max(2, n // 2)
    if omitted and blocked:
        special[omitted[0]] = random_partition(rng, rng.randint(1, budget))
    trv_values = sorted(trvs, key=lambda z: (z[0], z[1]))
    if trv_values:
        blocking_at = rng.choice(trv_values) if blocked else None
        for v in sorted(trv_values, key=lambda z: z != blocking_at):
            left = budget - sum(sum(p) for p in special.values())
            if v == blocking_at:
                special[v] = uncoverable_partition(rng, trvs[v], left)
            elif left > 0 and rng.random() < 0.7:
                special[v] = patterns_partition(rng, trvs[v], left)
    used = sum(sum(p) for p in special.values())
    rest, companions = fill_spectrum(
        rng, n - used, list(special) + omitted + list(trvs), companion_degree
    )
    partitions = {**special, **rest}
    a = planted_matrix(rng, n, partitions, companions)

    # the answer the planted structure implies
    blocking = None
    for v in omitted:
        if v in partitions:
            blocking = (v, "omitted_eigenvalue", partitions[v])
    if blocking is None:
        for v in trv_values:
            if v in partitions and cover(partitions[v], trvs[v]) is None:
                blocking = (v, "uncoverable_partition", partitions[v])
                break
    expect = {
        "case": CASE[kind],
        "solvable": blocking is None,
        "blocking": None
        if blocking is None
        else {"value": render(blocking[0]), "reason": blocking[1], "partition": list(blocking[2])},
        "partitions": {render(v): p for v, p in partitions.items()},
        "trv_mults": {render(v): m for v, m in trvs.items()},
        "outside_qi_degree": sum(len(p) - 1 for p in companions),
    }
    if expect["solvable"] != (kind == "poly_none" or not blocked):
        raise AssertionError(f"planted verdict mismatch for input {i}")
    return {"n": n, "kind": kind, "f": f, "a": matrix_json(a), "a_exact": a, "expect": expect}


# -- witness-qi -----------------------------------------------------------------


def witness_input(seed, i, n, e, workload="witness-qi"):
    """f = c (z - r)^e + t, whose every fibre f - f(mu), mu in Q(i), splits
    completely over Q(i), and A = f(X0) for a planted Jordan matrix X0, so a
    witness exists over Q(i)."""
    rng = rng_for(workload, seed, i)
    c, r, t = nonzero_scalar(rng), small_scalar(rng), small_scalar(rng)
    coeffs = [mul(x, c) for x in poly_from_roots([(r, e)])]
    coeffs[0] = add(coeffs[0], t)
    # X0: Jordan blocks J_K(mu) of sizes 2, 1, 2, 1, ...; the first at mu = r
    # lands at the TRV t, the others at distinct eigenvalues P(mu) != t
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(2 - len(sizes) % 2, n - sum(sizes)))
    mus, images = [r], [t]
    while len(mus) < len(sizes):
        mu = small_scalar(rng)
        if poly_eval(coeffs, mu) not in images:
            mus.append(mu)
            images.append(poly_eval(coeffs, mu))
    partitions = {}
    for mu, lam, k in zip(mus, images, sizes):
        partitions[lam] = split_pattern(k, e if mu == r else 1)
    partitions = {lam: tuple(sorted(p, reverse=True)) for lam, p in partitions.items()}
    a = planted_matrix(rng, n, partitions, [])
    expect = {
        "case": "III",
        "solvable": True,
        "blocking": None,
        "partitions": {render(v): p for v, p in partitions.items()},
        "trv_mults": {render(t): (e,)},
        "outside_qi_degree": 0,
    }
    return {"n": n, "kind": f"e{e}", "f": poly_json(coeffs), "f_coeffs": coeffs,
            "a": matrix_json(a), "a_exact": a, "expect": expect}


# -- describe-range -------------------------------------------------------------

# (name, TRV multiplicities, n): about 10^4 nontrivial partitions per call
DESCRIBE_CONFIGS = (
    ("z^2", (2,), 26),
    ("z^3", (3,), 25),
    ("z^2(z-1)^3", (2, 3), 24),
    ("sin", (2,), 23),
)


def describe_input(seed, i, name, mults, n, workload="describe-range"):
    rng = rng_for(workload, seed, i)
    c, d = nonzero_scalar(rng), small_scalar(rng)
    if name == "sin":
        a, b = distinct_scalars(rng, 2, [])
        f = {"type": "sin_family", "a": render(a), "b": render(b), "c": render(c), "d": render(d)}
        trvs = sorted((a, b), key=lambda z: (z[0], z[1]))
    else:
        roots = distinct_scalars(rng, len(mults), [])
        t = small_scalar(rng)
        coeffs = [mul(x, c) for x in poly_from_roots(list(zip(roots, mults)))]
        coeffs[0] = add(coeffs[0], t)
        f = poly_json(coeffs)
        trvs = [t]
    count = len(partitions_upto(n))
    return {"n": n, "kind": name, "f": f, "mults": mults, "trvs": [render(v) for v in trvs],
            "partitions": count * len(trvs)}


# -- cli-cold -------------------------------------------------------------------

CLI_COMMANDS = ("decide", "witness", "classify", "describe-range")


def cli_input(seed, i, workload="cli-cold"):
    """Input i is for command CLI_COMMANDS[i % 4], at small sizes."""
    command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    k = i // len(CLI_COMMANDS)
    if command == "decide":
        # solvable, so every decide invocation goes as far as root finding
        case = decide_input(
            seed, k, 3 + k % 2, DECIDE_KINDS[k % 5], False, TRV_MULTS[k % 6], 0, workload + ":decide"
        )
        return {"command": command, **case}
    if command == "witness":
        case = witness_input(seed, k, 3, 2, workload + ":witness")
        return {"command": command, **case}
    rng = rng_for(workload + ":" + command, seed, k)
    if command == "classify":
        n = 4
        value = small_scalar(rng)
        at_value = random_partition(rng, rng.randint(0, 3), largest=2)
        partitions = {value: at_value} if at_value else {}
        rest, _ = fill_spectrum(rng, n - sum(at_value), [value], 0)
        partitions.update(rest)
        a = planted_matrix(rng, n, partitions, [])
        return {"command": command, "a": matrix_json(a), "value": render(value),
                "expect": {"in_E": bool(at_value), "in_S": any(p >= 2 for p in at_value),
                           "segre_partition": list(at_value)}}
    mults = rng.choice(((2,), (3,), (2, 3)))
    n = 7
    roots = distinct_scalars(rng, len(mults), [])
    t, c = small_scalar(rng), nonzero_scalar(rng)
    coeffs = [mul(x, c) for x in poly_from_roots(list(zip(roots, mults)))]
    coeffs[0] = add(coeffs[0], t)
    bad = sorted(p for p in partitions_upto(n) if cover(p, mults) is None)
    return {"command": command, "f": poly_json(coeffs), "n": n,
            "expect": {"value": render(t), "partitions": bad}}
