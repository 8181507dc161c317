"""Congruence-class theorems and first-prime searches.

Graph properties (no loops, no multi-edges, simplicity, disjointness)
are characterized two ways: as congruence classes on p derived from
Kronecker-character periodicity, and as exact trace-formula predicates.
The trace route is authoritative for small exceptional primes.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .arith import DomainError, cached_is_prime, is_prime, kronecker
from .brandt import check_trace_degree, trace_formula, vertex_count
from .classnum import decompose

PROPERTY_KINDS = ("noLoops", "noMultiEdges", "simple", "noCommonEdges")

# Largest working modulus derive_congruences walks.  The walk takes time
# linear in the modulus, so a larger modulus is refused rather than left
# to run for hours.  For ell in {2, 3, 5, 7}, 20 of the 36 inputs have
# moduli of at most 48,360; the other 16 start at 7,759,752
# (no-multi-edges at ell = 5).  For prime ell below 60 the only modulus
# in between is 114,036 (no-loops at ell = 13, 0.1 s), so the limit
# admits it; the next one up is 2,516,360.
CONGRUENCE_M_LIMIT = 2 * 10**5


@dataclass(frozen=True)
class GraphProperty:
    kind: str
    ells: tuple
    undirected: bool = True

    def __post_init__(self):
        if self.kind not in PROPERTY_KINDS:
            raise DomainError(f"unknown property kind {self.kind!r}")
        want = 2 if self.kind == "noCommonEdges" else 1
        if len(self.ells) != want:
            raise DomainError(f"{self.kind} takes {want} prime(s), got {self.ells}")
        if self.kind == "noCommonEdges" and self.ells[0] == self.ells[1]:
            raise DomainError("noCommonEdges needs two distinct primes")
        for ell in self.ells:
            if not is_prime(ell):
                raise DomainError(f"{ell} is not prime")


@dataclass(frozen=True)
class CongruenceClassSet:
    modulus: int
    residues: tuple
    # classes are exact for primes coprime to the modulus and larger than
    # every |discriminant| involved in the defining character conditions
    valid_above: int = 0

    def contains(self, p):
        return p % self.modulus in self.residues


def discriminant_set(prop):
    """Negative discriminants whose splitting governs the property."""
    discs = set()
    if prop.kind in ("noLoops", "simple"):
        for ell in prop.ells:
            smax = math.isqrt(4 * ell)
            discs.update(s * s - 4 * ell for s in range(smax + 1))
    if prop.kind in ("noMultiEdges", "simple"):
        for ell in prop.ells:
            discs.update(s * s - 4 * ell * ell for s in range(1, 2 * ell))
    if prop.kind == "noCommonEdges":
        l1, l2 = prop.ells
        m = l1 * l2
        smax = math.isqrt(4 * m - 1)
        discs.update(s * s - 4 * m for s in range(smax + 1))
    return sorted(discs)


def derive_congruences(prop):
    """Congruence classes on p equivalent to the property, minimal modulus.

    The symbol (d|p) depends only on p modulo the fundamental part d_f of
    d, so the modulus is the lcm of the conductors |d_f| (and 12 when the
    graphs must be undirected).  That modulus M is already the smallest
    that describes the residue set.  The set is the subgroup of units mod M
    on which every character in a list is 1: the primitive (d_f | .), each
    of conductor |d_f|, and when undirected also chi_-4 and chi_-3, of
    conductors 4 and 3, which together say r = 1 mod 12.  A subgroup is
    described modulo a divisor M' of M exactly when every character that is
    1 on it is defined modulo M', that is, when every conductor in the
    list divides M'.  Their lcm is M, so M' = M.

    A property whose trace degree (ell, ell^2 or ell1*ell2) is past
    ``check_trace_degree``'s limit is a DomainError, raised before any
    discriminant is decomposed; so is a modulus above CONGRUENCE_M_LIMIT,
    raised as soon as the lcm passes it and before any residue is walked.
    """
    l1, l2 = prop.ells[0], prop.ells[-1]
    # the largest m whose trace holds_by_trace reads: ell, ell^2 or ell1*ell2
    check_trace_degree(l1 if prop.kind == "noLoops" else l1 * l2)
    discs = discriminant_set(prop)
    funds = []
    modulus = 12 if prop.undirected else 1
    for d in discs:
        funds.append(decompose(-d)[0])
        modulus = math.lcm(modulus, abs(funds[-1]))
        if modulus > CONGRUENCE_M_LIMIT:
            raise DomainError(
                f"congruence classes need working modulus <= CONGRUENCE_M_LIMIT = "
                f"{CONGRUENCE_M_LIMIT}; the lcm of the conductors of {prop.kind}"
                f"(ell={','.join(map(str, prop.ells))}) passes it"
            )
    residues = []
    for r in range(1, modulus):
        if math.gcd(r, modulus) != 1:
            continue
        if prop.undirected and r % 12 != 1:
            continue
        if all(kronecker(df, r) == 1 for df in funds):
            residues.append(r)
    return CongruenceClassSet(
        modulus=modulus,
        residues=tuple(residues),
        valid_above=max(-d for d in discs),
    )


def holds_by_trace(prop, p):
    """Exact predicate for the property at a specific prime, via traces."""
    if not cached_is_prime(p) or p < 5:
        raise DomainError(f"p must be a prime >= 5, got {p}")
    if p in prop.ells:
        raise DomainError(f"p={p} coincides with ell")
    if prop.undirected and p % 12 != 1:
        return False
    if prop.kind == "noLoops":
        return trace_formula(p, prop.ells[0]) == 0
    if prop.kind == "noMultiEdges":
        return trace_formula(p, prop.ells[0] ** 2) == vertex_count(p)
    if prop.kind == "simple":
        ell = prop.ells[0]
        return (
            trace_formula(p, ell) == 0
            and trace_formula(p, ell**2) == vertex_count(p)
        )
    l1, l2 = prop.ells
    return trace_formula(p, l1 * l2) == 0


def find_first_prime(props, start=5, cap=10**6):
    """Smallest prime >= start satisfying every property in props.

    Membership is decided by the exact trace predicates, so small
    exceptional primes excluded from the congruence classes are handled
    correctly.
    """
    if isinstance(props, GraphProperty):
        props = [props]
    if not props:
        raise DomainError("at least one property is required")
    if start < 5:
        start = 5
    skip = {ell for prop in props for ell in prop.ells}
    # an undirected property fails at every p != 1 mod 12 (holds_by_trace)
    step = 12 if any(prop.undirected for prop in props) else 1
    p = start + (1 - start) % step
    while p <= cap:
        if is_prime(p) and p not in skip:
            if all(holds_by_trace(prop, p) for prop in props):
                return p
        p += step
    raise DomainError(f"no prime satisfying the properties below {cap}")
