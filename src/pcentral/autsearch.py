"""Brute-force automorphism groups and Sylow subgroups.

No classification shortcuts: Aut(G) is found by trying generator images (order
matching plus partial-homomorphism pruning over a Schreier tree, a block of
candidate tuples at a time as int32 rows of element indices, through G's
cached product columns), and a Sylow subgroup P grows by the first p-element
outside P, in key order, that normalizes P.  Classical orders are test
oracles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .elements import Element, _p_split, _require_prime
from .errors import BudgetExceeded
from .groups import (
    _BLOCK_ROWS,
    Automorphism,
    GroupTable,
    _extend_block,
    _schreier_levels,
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
    generating sequence g_1..g_k, with order matching and partial-map pruning.

    A candidate tuple is a prefix of images that survived depth d-1 plus one
    element of the order of g_d.  The search takes the tuples of a depth in
    prefix-major order, `_BLOCK_ROWS` at a time, and extends a block's maps
    over that depth's level of a Schreier tree of <g_1..g_d> as int32 rows
    (groups._extend_block); the rows that stay injective homomorphisms
    descend before the next block is tried.  Every tuple is tried that the
    one-tuple-at-a-time search tries, in the same order, so `tuples_tried`,
    the budget outcome and the automorphisms found do not depend on the
    blocks; the budget is tested before a block is extended.  Only the
    automorphisms found are built as Automorphism objects.
    """
    gens = minimal_generating_sequence(G)
    if not gens:  # trivial group
        ident = identity_automorphism(G)
        return AutGroupResult(G, GroupTable([ident], [ident]), 0)
    H = None  # each prefix's subgroup grows from the one before
    chain = [(H := subgroup_generated(G, [g], H)).order for g in gens]
    levels = _schreier_levels(G, [[G.index_of(g)] for g in gens])
    if [level[-1] for level in levels] != chain:
        raise AssertionError("partial closure disagrees with the subgroup chain")
    by_order: Dict[int, List[int]] = {}
    for i, x in enumerate(G.elements):
        by_order.setdefault(x.order(), []).append(i)
    candidates = [np.array(by_order[g.order()], dtype=np.int32) for g in gens]
    found: List[Automorphism] = []
    tuples_tried = 0

    def descend(depth: int, maps: np.ndarray, images: np.ndarray) -> None:
        nonlocal tuples_tried
        cands = candidates[depth]
        total = len(maps) * len(cands)
        for start in range(0, total, _BLOCK_ROWS):
            rows = np.arange(start, min(start + _BLOCK_ROWS, total))
            tuples_tried += len(rows)
            if tuples_tried > budget:
                raise BudgetExceeded(
                    f"automorphism search exceeded {budget} candidate tuples")
            prefix, pick = np.divmod(rows, len(cands))
            block, block_images = maps[prefix], np.column_stack((images[prefix], cands[pick]))
            hom, injective = _extend_block(G, block, block_images, levels[depth])
            keep = hom & injective
            block, block_images = block[keep], block_images[keep]
            if depth + 1 == len(gens):
                found.extend(Automorphism(G, row) for row in block)
            elif len(block):
                descend(depth + 1, block, block_images)

    e = G.index_of(G.identity)
    root = np.full((1, G.order), e, dtype=np.int32)
    descend(0, root, np.empty((1, 0), dtype=np.int32))
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
