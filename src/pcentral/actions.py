"""Automorphism actions on groups and the mixed commutator machinery.

An ActionPair bundles a group G with a finite automorphism group A, held as a
GroupTable of automorphisms (closed under composition, identity included).
The mixed commutator [g, a] = g^-1 a(g) matches the semidirect-product
commutator, so with A = Inn(G) everything here degenerates to the ordinary
commutator calculus — that consistency is pinned by tests.

The mixed lower central series is computed by the recursion
    term_{i+1} = <[c, a] : c generates term_i, a generates A>
closed under G-conjugation and A-images (generators suffice, since
[xy, a] = y^-1 [x, a] y [y, a]), and independently by a raw-definition
breadth-first search over left-normed commutator values
(mixed_series_definitional), so the two can be played against each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .elements import Element
from .errors import BudgetExceeded, CapExceeded, NotInvariant, NotPGroup
from .groups import (
    Automorphism,
    GroupTable,
    automorphism_from_images,
    close,
    conjugation_aut,
    identity_automorphism,
    normal_closure,
    quotient,
    restrict_automorphism,
    subgroup_generated,
)
from .series import SeriesRecord, central_order_bound, omega_subgroup
from .verdict import Verdict, conclude

__all__ = [
    "ActionPair",
    "trivial_action",
    "inner_action",
    "mixed_commutator",
    "mixed_commutator_subgroup",
    "mixed_lower_central_series",
    "mixed_series_definitional",
    "is_p_central_action",
    "induced_quotient_action",
    "restrict_action",
    "aut_perm_realization",
    "aut_as_perm_group",
    "order_matches_quotient_triviality",
]

DEFAULT_ACTION_CAP = 10_000
DEFAULT_DEFINITIONAL_BUDGET = 5_000_000


class ActionPair:
    """A group together with a closed group of automorphisms acting on it."""

    def __init__(self, G: GroupTable, A_generators: Sequence[Automorphism],
                 A: GroupTable):
        self.G = G
        self.A_generators = tuple(A_generators)
        self.A = A
        self.A_elements = A.elements
        self._cache: dict = {}

    @classmethod
    def build(cls, G: GroupTable, A_generators: Sequence[Automorphism],
              *, cap: int = DEFAULT_ACTION_CAP) -> "ActionPair":
        for a in A_generators:
            if a.domain is not G:
                raise ValueError("acting automorphism is not defined on the given group")
        try:
            A = close(list(A_generators) or [identity_automorphism(G)], cap=cap, p=G.p)
        except CapExceeded:
            raise CapExceeded(f"action closure exceeded cap of {cap}") from None
        return cls(G, A_generators, A)

    @property
    def A_order(self) -> int:
        return self.A.order

    def __repr__(self) -> str:
        return f"ActionPair(|G|={self.G.order}, |A|={self.A_order})"


def trivial_action(G: GroupTable) -> ActionPair:
    return ActionPair.build(G, [identity_automorphism(G)])


def inner_action(G: GroupTable) -> ActionPair:
    return ActionPair.build(G, [conjugation_aut(G, g) for g in G.generators],
                            cap=max(DEFAULT_ACTION_CAP, G.order))


def mixed_commutator(g: Element, a: Automorphism) -> Element:
    """[g, a] = g^-1 * a(g)."""
    return a.domain.canon(g.inverse() * a(g))


def mixed_commutator_subgroup(pair: ActionPair) -> GroupTable:
    """[G, A]: generated by generator commutators, closed under G and A."""
    if "H" not in pair._cache:
        seeds = {mixed_commutator(g, a)
                 for g in pair.G.generators for a in pair.A_generators}
        pair._cache["H"] = normal_closure(pair.G, seeds, pair.A_generators)
    return pair._cache["H"]


def commutator_group_of_pair(pair: ActionPair) -> GroupTable:
    """[G, A], the subgroup table of G (cached)."""
    return mixed_commutator_subgroup(pair)


def mixed_lower_central_series(pair: ActionPair) -> SeriesRecord:
    """Mixed lower central series of the pair, computed to stabilization,
    seeding each term by [c, a] for generators c of the last (see above)."""
    if "mixed_series" not in pair._cache:
        G, A = pair.G, pair.A_generators
        pair._cache["mixed_series"] = SeriesRecord.until_stable(
            G, lambda T: normal_closure(
                G, {mixed_commutator(c, a) for c in T.generators for a in A}, A))
    return pair._cache["mixed_series"]


def gamma_term(pair: ActionPair, k: int) -> GroupTable:
    """k-th mixed lower central term (k >= 1); stable past stabilization."""
    return mixed_lower_central_series(pair).term(k)


def mixed_series_definitional(pair: ActionPair, k_max: int, *,
                              entries: str = "generators",
                              budget: int = DEFAULT_DEFINITIONAL_BUDGET,
                              ) -> List[GroupTable]:
    """Mixed series terms straight from the left-normed commutator definition.

    States are pairs (value, number of A-entries so far, capped at k_max - 1);
    extending a left-normed commutator only depends on its current value, so
    this BFS enumerates every reachable commutator value exactly, with no word
    length truncation.  A value with c A-entries qualifies as a generator of
    the k-th term for every k <= c + 1 (its word length is automatically >= k).

    entries="all" sweeps every element of G and A as the next entry (the
    literal definition; affordable only on small pairs).  The default
    "generators" alphabet uses G's generators and A's generators with their
    inverses, which generates the same subgroups by the standard commutator
    expansions [x, uv] = [x,v]*([x,u] conj v) and a([x,b]) = [x,b]*[[x,b],a].
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    G = pair.G
    cap = k_max - 1
    if entries == "all":
        g_alphabet: List[Element] = [g for g in G.elements if not g.is_identity()]
        a_alphabet: List[Automorphism] = [a for a in pair.A_elements if not a.is_identity()]
    elif entries == "generators":
        g_letters: Dict[bytes, Element] = {}
        for g in G.generators:
            g_letters[g.key] = g
            g_letters[g.inverse().key] = G.canon(g.inverse())
        g_alphabet = [g for g in g_letters.values() if not g.is_identity()]
        a_letters: Dict[bytes, Automorphism] = {}
        for a in pair.A_generators:
            a_letters[a.key] = a
            a_letters[a.inverse().key] = a.inverse()
        a_alphabet = [a for a in a_letters.values() if not a.is_identity()]
    else:
        raise ValueError(f"unknown entry mode {entries!r}")

    buckets: List[Set[Element]] = [set() for _ in range(cap + 1)]
    seen: Set[Tuple[bytes, int]] = set()
    frontier: List[Tuple[Element, int]] = []
    for x in G.elements:
        seen.add((x.key, 0))
        buckets[0].add(x)
        frontier.append((x, 0))
    steps = 0
    while frontier:
        new: List[Tuple[Element, int]] = []
        for v, c in frontier:
            for g in g_alphabet:
                steps += 1
                w = G.comm(v, g)
                state = (w.key, c)
                if state not in seen:
                    seen.add(state)
                    buckets[c].add(w)
                    new.append((w, c))
            c2 = min(c + 1, cap)
            for a in a_alphabet:
                steps += 1
                w = mixed_commutator(v, a)
                state = (w.key, c2)
                if state not in seen:
                    seen.add(state)
                    buckets[c2].add(w)
                    new.append((w, c2))
            if steps > budget:
                raise BudgetExceeded(
                    f"definitional sweep exceeded {budget} commutator steps")
        frontier = new

    terms: List[GroupTable] = [G]
    tail: Set[Element] = set()
    collected: List[Set[Element]] = [set() for _ in range(cap + 1)]
    for c in range(cap, -1, -1):
        tail = tail | buckets[c]
        collected[c] = set(tail)
    for k in range(2, k_max + 1):
        terms.append(subgroup_generated(G, collected[k - 1]))
    return terms


def is_p_central_action(pair: ActionPair, X: Optional[GroupTable] = None) -> bool:
    """Does A fix every element of X of order dividing p (4 if p = 2)?"""
    G = pair.G
    if G.p is None:
        raise NotPGroup("no designated prime on the acted-on group")
    bound = central_order_bound(G.p)
    X = X if X is not None else G
    for x in X.elements:
        if bound % x.order() == 0:
            for a in pair.A_generators:
                if a(x) != x:
                    return False
    return True


def induced_quotient_action(pair: ActionPair, N: GroupTable) -> ActionPair:
    """The action induced on G/N; N must be normal and A-invariant."""
    if any(a(n).key not in N.keys for a in pair.A_generators for n in N.generators):
        raise NotInvariant("kernel subgroup is not invariant under the action")
    Q = quotient(pair.G, N)
    induced = []
    for a in pair.A_generators:
        images = [Q.project(a(g)) for g in pair.G.generators]
        induced.append(automorphism_from_images(Q, Q.generators, images))
    return ActionPair.build(Q, induced)


def restrict_action(pair: ActionPair, H: GroupTable) -> ActionPair:
    """The action restricted to an A-invariant subgroup H, acting on H."""
    return ActionPair.build(H, [restrict_automorphism(a, H) for a in pair.A_generators])


def aut_perm_realization(pair: ActionPair) -> GroupTable:
    """A as a group table: each automorphism is a permutation of the indices
    of G's element list."""
    return pair.A


def aut_as_perm_group(pair: ActionPair) -> GroupTable:
    """A itself, realized faithfully on the index set of G's element list."""
    return pair.A


def order_matches_quotient_triviality(pair: ActionPair, sigma: Automorphism,
                                      n: int) -> Verdict:
    """Compare "sigma^(p^n) = 1" with "sigma trivial modulo the n-th omega
    term of [G,A]" and report the biconditional.  G's generators suffice, as
    omega_n([G,A]) is characteristic in [G,A], so normal in G."""
    G = pair.G
    p = G.require_p_group()
    left = (p ** n) % sigma.order() == 0
    om = omega_subgroup(commutator_group_of_pair(pair), n)
    right = all(mixed_commutator(x, sigma).key in om.keys for x in G.generators)
    return conclude("order_matches_quotient_triviality", True, left == right,
                    {"n": n, "sigma_order": sigma.order(),
                     "power_is_trivial": left, "trivial_mod_omega": right})
