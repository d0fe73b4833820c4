"""The function model: exact polynomials plus two transcendental families
with fully known ramification data.

A totally ramified value (TRV) of f is a value a such that every root of
f(z) = a has multiplicity at least 2; an entire function has at most two,
a polynomial at most one. A non-constant entire function omits at most one
value, and omitting one rules TRVs out; validate re-checks these bounds. A
polynomial P has a TRV a iff P - a divides P'^2, and one division leaves one
candidate a, so a second TRV cannot arise. The profile carries each TRV's
preimages (preimage_roots, run once per TRV).

Catalog families:
  * sin family      f(z) = ((a-b)/2) sin(cz+d) + (a+b)/2, a != b, c != 0:
                    omits nothing, TRVs exactly {a, b}, every ramified
                    preimage has multiplicity exactly 2 (the second
                    derivative is nonzero where sin = +-1).
  * exp-poly family f(z) = v + P(z) e^(cz+d), P monic, c != 0:
                    if P = 1 it omits v and has no TRVs; otherwise v is a
                    TRV iff every zero of P is multiple, and the preimages
                    of v are exactly the zeros of P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import InternalInvariantError, ParseError, PreconditionError
from .polynomials import (
    Poly,
    gaussian_rational_roots,
    multiplicity_multiset,
    squarefree_decomposition,
)
from .scalars import GaussianRational, Qi, parse_scalar, render_scalar

__all__ = [
    "EntireFunction",
    "polynomial_function",
    "sin_family",
    "exp_poly_family",
    "RamificationProfile",
    "TrvEntry",
    "TheoremCase",
    "PreimageKind",
    "PreimageInfo",
    "ramification_profile",
    "preimage_roots",
    "validate",
]


class TheoremCase(Enum):
    OMITS_VALUE = "I"
    NO_TRV = "II"
    ONE_TRV = "III"
    TWO_TRV = "IV"


@dataclass(frozen=True)
class TrvEntry:
    value: GaussianRational
    multiplicity_multiset: tuple  # sorted, every entry >= 2
    has_infinitely_many_preimages: bool
    preimages: PreimageInfo = field(compare=False, repr=False)  # of f - value


@dataclass(frozen=True)
class RamificationProfile:
    omitted_values: tuple
    trv_entries: tuple
    theorem_case: TheoremCase


@dataclass(frozen=True)
class EntireFunction:
    kind: str  # "polynomial" | "sin_family" | "exp_poly"
    poly: Poly | None = None  # polynomial P, or the P of the exp-poly family
    a: GaussianRational | None = None
    b: GaussianRational | None = None
    c: GaussianRational | None = None
    d: GaussianRational | None = None
    v: GaussianRational | None = None

    def render(self):
        if self.kind == "polynomial":
            return {"type": "polynomial", "coeffs": self.poly.render()}
        if self.kind == "sin_family":
            return {
                "type": "sin_family",
                "a": render_scalar(self.a),
                "b": render_scalar(self.b),
                "c": render_scalar(self.c),
                "d": render_scalar(self.d),
            }
        return {
            "type": "exp_poly",
            "v": render_scalar(self.v),
            "p_coeffs": self.poly.render(),
            "c": render_scalar(self.c),
            "d": render_scalar(self.d),
        }

    @staticmethod
    def parse(obj) -> "EntireFunction":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ParseError('function JSON must carry a "type" field')
        kind = obj["type"]
        try:
            if kind == "polynomial":
                return polynomial_function(Poly.parse(obj["coeffs"]))
            if kind == "sin_family":
                return sin_family(*(parse_scalar(obj[k]) for k in ("a", "b", "c", "d")))
            if kind == "exp_poly":
                return exp_poly_family(
                    parse_scalar(obj["v"]),
                    Poly.parse(obj["p_coeffs"]),
                    parse_scalar(obj["c"]),
                    parse_scalar(obj["d"]),
                )
        except KeyError as e:
            raise ParseError(f"function spec missing field {e.args[0]!r}") from e
        raise ParseError(f"unknown function type {kind!r}")


def polynomial_function(p: Poly) -> EntireFunction:
    if p.degree < 1:
        raise PreconditionError("constant functions are excluded: need degree >= 1")
    return EntireFunction(kind="polynomial", poly=p)


def sin_family(a, b, c, d) -> EntireFunction:
    a, b, c, d = Qi(a), Qi(b), Qi(c), Qi(d)
    if a == b:
        raise PreconditionError("sin family needs a != b")
    if c.is_zero():
        raise PreconditionError("sin family needs c != 0")
    return EntireFunction(kind="sin_family", a=a, b=b, c=c, d=d)


def exp_poly_family(v, p: Poly, c, d) -> EntireFunction:
    v, c, d = Qi(v), Qi(c), Qi(d)
    if p.is_zero() or not p.monic() == p:
        raise PreconditionError("exp-poly family needs a monic P")
    if c.is_zero():
        raise PreconditionError("exp-poly family needs c != 0")
    return EntireFunction(kind="exp_poly", v=v, poly=p, c=c, d=d)


# -- TRV detection for polynomials ---------------------------------------------


def polynomial_trvs(f: EntireFunction):
    """TRVs of f = P over Q(i), by one division. A root of P - a of
    multiplicity m is one of P'^2 of multiplicity 2m - 2 >= m iff m >= 2, so a
    is a TRV iff (P - a) | P'^2. With P'^2 = c1 P + c0, deg c0 < d = deg P,
    P'^2 mod (P - a) is c0 + a c1; as c1 != 0 (degree d - 2), only one a in
    Q(i) zeroes its top coefficient, and it is the one candidate."""
    if f.poly.degree < 2:
        return ()
    dp = f.poly.derivative()
    c1, c0 = (dp * dp).divmod(f.poly)
    value = -c0.coeff(c1.degree) / c1.leading()
    if not (c0 + c1.scale(value)).is_zero():
        return ()
    info = preimage_roots(f, value)
    if 1 in info.multiset:
        raise InternalInvariantError("a simple root of P - a, though P - a divides P'^2")
    return (TrvEntry(value, info.multiset, False, info),)


# -- profiles ------------------------------------------------------------------


def ramification_profile(f: EntireFunction) -> RamificationProfile:
    if f.kind == "sin_family":
        trvs = tuple(
            TrvEntry(value, (2,), True, preimage_roots(f, value))
            for value in sorted((f.a, f.b), key=lambda x: x.sort_key())
        )
        return RamificationProfile((), trvs, TheoremCase.TWO_TRV)
    if f.kind == "polynomial":
        trvs = polynomial_trvs(f)
    elif f.poly.is_constant():  # exp-poly family with P = 1
        return RamificationProfile((f.v,), (), TheoremCase.OMITS_VALUE)
    else:
        info = preimage_roots(f, f.v)
        trvs = () if 1 in info.multiset else (TrvEntry(f.v, info.multiset, False, info),)
    return RamificationProfile((), trvs, TheoremCase.ONE_TRV if trvs else TheoremCase.NO_TRV)


class PreimageKind(Enum):
    FINITE = "finite"
    INFINITELY_MANY_SIMPLE = "infinitely_many_simple"
    INFINITELY_MANY_ALL_MULTIPLICITY_2 = "infinitely_many_all_multiplicity_2"
    EMPTY = "empty"


@dataclass(frozen=True)
class PreimageInfo:
    kind: PreimageKind
    roots: tuple = ()  # RootWithMultiplicity, Q(i) roots only
    complete: bool = True  # all roots accounted for by the listed ones
    multiset: tuple = ()  # exact multiplicity multiset over C (finite kinds)


def preimage_roots(f: EntireFunction, value) -> PreimageInfo:
    """Structure of the solution set of f(z) = value."""
    value = Qi(value)
    if f.kind == "sin_family":
        if value in (f.a, f.b):
            return PreimageInfo(PreimageKind.INFINITELY_MANY_ALL_MULTIPLICITY_2)
        return PreimageInfo(PreimageKind.INFINITELY_MANY_SIMPLE)
    if f.kind == "polynomial":
        p = f.poly.shift(value)
    elif value != f.v:  # exp-poly family
        return PreimageInfo(PreimageKind.INFINITELY_MANY_SIMPLE)
    elif f.poly.is_constant():
        return PreimageInfo(PreimageKind.EMPTY)
    else:
        p = f.poly  # the preimages of v are exactly the zeros of P
    decomposition = squarefree_decomposition(p)
    roots = tuple(gaussian_rational_roots(p, decomposition))
    complete = sum(r.multiplicity for r in roots) == p.degree
    multiset = tuple(multiplicity_multiset(p, decomposition))
    return PreimageInfo(PreimageKind.FINITE, roots, complete, multiset)


def validate(f: EntireFunction) -> RamificationProfile:
    """Re-derive the profile and assert its structural bounds."""
    profile = ramification_profile(f)
    if len(profile.omitted_values) > 1:
        raise InternalInvariantError("more than one omitted value")
    if len(profile.trv_entries) > 2:
        raise InternalInvariantError("more than two totally ramified values")
    if profile.omitted_values and profile.trv_entries:
        raise InternalInvariantError("an omitting function cannot have TRVs")
    for entry in profile.trv_entries:
        if any(m < 2 for m in entry.multiplicity_multiset):
            raise InternalInvariantError("TRV multiplicity below 2")
    return profile
