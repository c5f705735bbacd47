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
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .elements import Element, _p_split, _require_prime
from .errors import BudgetExceeded
from .groups import (
    _BLOCK_ROWS,
    GroupTable,
    _extend_block,
    _image_codes,
    _inside,
    _level_edges,
    _subgroup_at,
    _schreier_levels,
    identity_automorphism,
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


def _greedy_levels(column: Callable[[int], np.ndarray], inside: np.ndarray,
                   orders: Sequence[int]) -> Tuple[List[int], List[tuple]]:
    """_schreier_levels over steps of one generator each, the first index
    outside the mask by highest order, then lowest index (key order), until
    the mask holds every index: minimal_generating_sequence's greedy rule."""
    ranked = np.argsort(-np.asarray(orders), kind="stable")

    def steps() -> Iterator[List[int]]:
        while not inside.all():
            yield [int(ranked[~inside[ranked]][0])]
    gens: List[int] = []
    levels = list(_schreier_levels(column, inside, steps(), gens))
    return gens, levels


def brute_force_aut(G: GroupTable, *, budget: int = DEFAULT_AUT_BUDGET) -> AutGroupResult:
    """All automorphisms of G by depth-first image search over a minimal
    generating sequence g_1..g_k, with order matching and partial-map pruning.

    The sequence and a Schreier tree of each prefix <g_1..g_d> come from one
    breadth-first closure (_greedy_levels).  A candidate tuple is a prefix
    of images that survived depth d-1 plus one element of the order of g_d.
    The search takes the tuples of a depth in prefix-major order,
    `_BLOCK_ROWS` at a time, and extends a block's maps over that depth's
    level of the tree as int32 rows (groups._extend_block); the rows that
    stay injective homomorphisms descend before the next block is tried.
    Every tuple is tried that the one-tuple-at-a-time search tries, in the
    same order, so `tuples_tried`, the budget outcome and the automorphisms
    found do not depend on the blocks; the budget is tested before a block
    is extended.  The automorphisms found are rows of a table, and their
    objects are made only when read.
    """
    orders = G._orders()
    e = G._identity_row
    gens, levels = _greedy_levels(G._right_column, np.arange(G.order) == e, orders)
    levels = list(map(_level_edges, levels))
    if not gens:  # trivial group
        ident = identity_automorphism(G)
        return AutGroupResult(G, GroupTable([ident], [ident]), 0)
    candidates = [(orders == orders[g]).nonzero()[0].astype(np.int32) for g in gens]
    found: List[np.ndarray] = []  # blocks of automorphisms, a row each
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
                found.append(block)
            elif len(block):
                descend(depth + 1, block, block_images)

    root = np.full((1, G.order), e, dtype=np.int32)
    descend(0, root, np.empty((1, 0), dtype=np.int32))
    return AutGroupResult(G, _aut_table(G, np.concatenate(found)), tuples_tried)


def _aut_table(G: GroupTable, maps: np.ndarray) -> GroupTable:
    """The automorphisms whose index arrays are the rows of `maps`, as a
    table generated by minimal_generating_sequence's greedy rule: highest
    order first, ties by key.  Its rows are coded by the images of G's
    generators, in key order, and `maps` in that order are its stacked
    images (GroupTable._aut_images), from which its automorphisms are made
    when read; _greedy_levels then picks the generators.
    """
    A = GroupTable.__new__(GroupTable)
    A._domain = G
    rows = A._root(_image_codes(G, maps[:, G._gens]), (),
                   identity_automorphism(G), None)
    if A.order != len(maps):
        raise AssertionError("automorphism search produced duplicate maps")
    A._images = maps[np.argsort(rows)]
    A._images.setflags(write=False)
    chosen, _ = _greedy_levels(A._right_column, np.arange(A.order) == A._identity_row,
                               A._orders())
    # the table was built before its generators could be picked
    A._gens = np.array(chosen, dtype=np.intp)
    return A


def _normalizes(G: GroupTable, y: Element, P: GroupTable, inside: np.ndarray) -> bool:
    """Does y conjugate P's generators into P, whose rows of G are `inside`?"""
    return all(inside[G.index_of(y.inverse() * h * y)] for h in P.generators)


def normalizer(G: GroupTable, P: GroupTable) -> GroupTable:
    """N_G(P); conjugating P's generators into P suffices by finiteness."""
    inside = _inside(P, G)
    return _subgroup_at(G, np.array([_normalizes(G, g, P, inside) for g in G.elements]))


def sylow_p_subgroup(G: GroupTable, p: int) -> GroupTable:
    """A Sylow p-subgroup: P gains the first y of G, in key order, outside P
    that is a p-element and normalizes P, so P<y> is a p-group.  While p
    divides |G:P| one exists, as P < N_S(P) for a Sylow S containing P.
    As y normalizes P, <P, y> is the union of the cosets P y^i, one kernel
    call over P and the powers of y, with P's generators and then y."""
    _require_prime(p)
    inside = np.arange(G.order) == G._identity_row
    gens: List[int] = []
    P = subgroup_generated(G, ())
    orders = G._orders().tolist()
    while (G.order // P.order) % p == 0:
        i = next((i for i in range(G.order) if not inside[i] and _p_split(orders[i], p)[1] == 1
                  and _normalizes(G, G.elements[i], P, inside)), None)
        if i is None:
            raise AssertionError("Sylow extension stalled below the p-part")
        gens.append(i)
        powers = G._powers(np.full(orders[i], i), np.arange(orders[i]))
        held = inside.nonzero()[0]
        inside[G._products(held.repeat(len(powers)), np.tile(powers, len(held)))] = True
        P = _subgroup_at(G, inside, gens)
    return P
