"""Brute-force automorphism groups and Sylow subgroups.

No classification shortcuts: Aut(G) is found by trying generator images (order
matching plus partial-homomorphism pruning, on element indices with G's cached
product columns), and a Sylow subgroup P grows by the first p-element outside
P, in key order, that normalizes P.  Classical orders are test oracles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .elements import Element, _p_split, _require_prime
from .errors import BudgetExceeded
from .groups import (
    Automorphism,
    GroupTable,
    _automorphism_from_indices,
    _extend_hom,
    identity_automorphism,
    minimal_generating_sequence,
    subgroup_generated,
)

__all__ = ["AutGroupResult", "brute_force_aut", "sylow_p_subgroup", "normalizer"]

DEFAULT_AUT_BUDGET = 10_000_000


@dataclass
class AutGroupResult:
    domain: GroupTable
    perm_group: GroupTable  # the automorphisms as a group table
    tuples_tried: int  # candidate image tuples the search extended; aut_budget bounds it

    @property
    def order(self) -> int:
        return self.perm_group.order


def brute_force_aut(G: GroupTable, *, budget: int = DEFAULT_AUT_BUDGET) -> AutGroupResult:
    """All automorphisms of G by depth-first image search over a minimal
    generating sequence, with order matching and partial-map pruning.

    The search runs on element indices; only the automorphisms it finds are
    built as Automorphism objects."""
    gens = minimal_generating_sequence(G)
    if not gens:  # trivial group
        ident = identity_automorphism(G)
        return AutGroupResult(G, GroupTable([ident], [ident]), 0)
    H = None  # each prefix's subgroup grows from the one before
    chain = [(H := subgroup_generated(G, [g], H)).order for g in gens]
    gen_idx = [G.index_of(g) for g in gens]
    by_order: Dict[int, List[int]] = {}
    for i, x in enumerate(G.elements):
        by_order.setdefault(x.order(), []).append(i)
    found: List[Automorphism] = []
    tuples_tried = 0

    def descend(depth: int, images: List[int]) -> None:
        nonlocal tuples_tried
        for cand in by_order.get(gens[depth].order(), ()):
            tuples_tried += 1
            if tuples_tried > budget:
                raise BudgetExceeded(
                    f"automorphism search exceeded {budget} candidate tuples")
            trial = images + [cand]
            full = _extend_hom(G, gen_idx[:depth + 1], trial)
            if full is None:
                continue
            if len(full) != chain[depth]:
                raise AssertionError("partial closure disagrees with the subgroup chain")
            if len(set(full.values())) != chain[depth]:
                continue
            if depth + 1 == len(gens):
                found.append(_automorphism_from_indices(G, full))
            else:
                descend(depth + 1, trial)

    descend(0, [])
    if len({a.key for a in found}) != len(found):
        raise AssertionError("automorphism search produced duplicate maps")
    A = GroupTable(found, found)
    # a minimal generating sequence needs the table it generates
    A.generators = minimal_generating_sequence(A)
    return AutGroupResult(G, A, tuples_tried)


def _normalizes(G: GroupTable, y: Element, P: GroupTable) -> bool:
    return all(G.conj(h, y).key in P.keys for h in P.generators)


def normalizer(G: GroupTable, P: GroupTable) -> GroupTable:
    """N_G(P); conjugating P's generators into P suffices by finiteness."""
    return G.subgroup(g for g in G.elements if _normalizes(G, g, P))


def sylow_p_subgroup(G: GroupTable, p: int) -> GroupTable:
    """A Sylow p-subgroup: P gains the first y of G, in key order, outside P
    that is a p-element and normalizes P, so P<y> is a p-group.  While p
    divides |G:P| one exists, as P < N_S(P) for a Sylow S containing P."""
    _require_prime(p)
    P = subgroup_generated(G, ())
    while (G.order // P.order) % p == 0:
        y = next((y for y in G.elements if y.key not in P.keys
                  and _p_split(y.order(), p)[1] == 1 and _normalizes(G, y, P)), None)
        if y is None:
            raise AssertionError("Sylow extension stalled below the p-part")
        P = subgroup_generated(G, [y], P)
    return P
