"""Central series, omega/agemo subgroups and regularity predicates.

The "order dividing p, or 4 when p = 2" convention that threads through all
p-centrality notions lives in exactly one place here: central_order_bound().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .elements import _require_prime
from .errors import NotPGroup, OddPrimeRequired
from .groups import (
    GroupTable,
    _inside,
    _kept,
    center,
    commutator_subgroup,
    quotient,
    subgroup_generated,
)
from .verdict import Verdict, conclude

__all__ = [
    "SeriesRecord",
    "central_order_bound",
    "lower_central_series",
    "nilpotency_class",
    "upper_central_series",
    "omega_set",
    "omega_subgroup",
    "omega_conv",
    "omega_series",
    "agemo",
    "is_omega_regular",
    "xu_inequality",
    "small_elements_lie_in",
    "is_p_central_of_height",
]


def central_order_bound(p: int) -> int:
    """Order bound defining "small" elements: p for odd primes, 4 for p = 2."""
    return 4 if p == 2 else p


@dataclass
class SeriesRecord:
    """A descending or ascending subgroup series with its stabilization point."""

    terms: Tuple[GroupTable, ...]
    stabilized_at: int  # index of the first term equal to its successor

    @classmethod
    def until_stable(cls, first: GroupTable,
                     step: Callable[[GroupTable], GroupTable]) -> "SeriesRecord":
        """first, step(first), ... up to the first term whose successor has
        the same order; that term is repeated so stabilization is visible."""
        terms = [first]
        while (nxt := step(terms[-1])).order != terms[-1].order:
            terms.append(nxt)
        terms.append(terms[-1])
        return cls(tuple(terms), len(terms) - 2)

    def orders(self) -> List[int]:
        return [t.order for t in self.terms]

    def term(self, k: int) -> GroupTable:
        """k-th term, k >= 1; indices beyond the recorded tail return the stable term."""
        if k < 1:
            raise IndexError(f"series index {k} out of range")
        return self.terms[min(k - 1, len(self.terms) - 1)]


def lower_central_series(G: GroupTable) -> SeriesRecord:
    """G = γ_1 ≥ γ_2 = [G,G] ≥ [γ_2,G] ≥ ..., recorded up to stabilization."""
    return _kept(G, "lcs", lambda: SeriesRecord.until_stable(
        G, lambda T: commutator_subgroup(G, T, G)))


def nilpotency_class(G: GroupTable) -> Optional[int]:
    """Nilpotency class, or None for a non-nilpotent group."""
    s = lower_central_series(G)
    if s.terms[-1].order != 1:
        return None
    return s.stabilized_at


def upper_central_series(G: GroupTable) -> SeriesRecord:
    """1 = Z_0 ≤ Z_1 = Z(G) ≤ ..., via centers of successive quotients."""
    return _kept(G, "ucs", lambda: SeriesRecord.until_stable(
        G.trivial_subgroup, lambda Z: (Q := quotient(G, Z)).preimage(center(Q))))


def omega_set(G: GroupTable, i: int) -> Tuple:
    """All elements of order dividing p^i (as a sorted tuple, not a subgroup)."""
    p = G.require_p_group()
    bound = p ** i
    return tuple(map(G.elements.__getitem__, (bound % G._orders() == 0).nonzero()[0].tolist()))


def omega_subgroup(G: GroupTable, i: int) -> GroupTable:
    """Ω_i(G) = subgroup generated by the elements of order dividing p^i."""
    p = G.require_p_group()
    return _kept(G, ("omega", i),
                 lambda: subgroup_generated(G, (p ** i % G._orders() == 0).nonzero()[0]))


def omega_conv(G: GroupTable) -> GroupTable:
    """Ω(G): Ω_1 for odd p, Ω_2 for p = 2 (matching central_order_bound)."""
    p = G.require_p_group()
    return omega_subgroup(G, 2 if p == 2 else 1)


def omega_series(G: GroupTable) -> List[GroupTable]:
    """Ω_1(G) ≤ Ω_2(G) ≤ ..., ending at the first term equal to G."""
    terms = [omega_subgroup(G, 1)]
    while terms[-1].order != G.order:
        terms.append(omega_subgroup(G, len(terms) + 1))
    return terms


def agemo(G: GroupTable, n: int) -> GroupTable:
    """G^{p^n} = subgroup generated by all p^n-th powers, taken by squaring
    in the table."""
    p = G.require_p_group()
    return _kept(G, ("agemo", n),
                 lambda: subgroup_generated(G, G._powers(np.arange(G.order), p ** n)))


def is_omega_regular(G: GroupTable, i: int) -> bool:
    """Do the elements of order dividing p^i form a subgroup?  A finite set
    holding 1 is one exactly when it is as large as the subgroup it
    generates; the set is counted off the table's orders."""
    return int((G.require_p_group() ** i % G._orders() == 0).sum()) == omega_subgroup(G, i).order


def xu_inequality(G: GroupTable, n: int) -> Verdict:
    """Compare |G : G^{p^n}| against |Ω_n(G)| (odd p only)."""
    p = G.require_p_group()
    if p == 2:
        raise OddPrimeRequired("the index inequality is stated for odd p")
    index = G.order // agemo(G, n).order
    om = omega_subgroup(G, n).order
    return conclude("xu_index_inequality", True, index <= om,
                    {"n": n, "index": index, "omega_order": om})


def small_elements_lie_in(X: GroupTable, Z: GroupTable, p: int) -> bool:
    """Does every element of X of order dividing p (4 if p = 2) lie in Z?"""
    return bool(_inside(Z, X)[central_order_bound(p) % X._orders() == 0].all())


def is_p_central_of_height(G: GroupTable, k: int, p: Optional[int] = None) -> bool:
    """Does every element of order dividing p (4 if p = 2) lie in Z_k(G)?

    The prime defaults to the group's designated one; passing it explicitly
    supports general finite groups that carry no prime tag.
    """
    if p is None:
        p = G.p
    if p is None:
        raise NotPGroup("no designated prime on this group and none supplied")
    _require_prime(p)
    return small_elements_lie_in(G, upper_central_series(G).term(k + 1), p)
