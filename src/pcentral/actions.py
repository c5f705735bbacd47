"""Automorphism actions on groups and the mixed commutator machinery.

An ActionPair bundles a group G with a finite automorphism group A, held as a
GroupTable of automorphisms, closed by `close` over image rows, or a searched
Aut(G) taken as it is; an A of one generator is sized by that generator's
order and closed only when first read.
The mixed commutator [g, a] = g^-1 a(g) matches the semidirect-product
commutator, so with A = Inn(G) everything here degenerates to the ordinary
commutator calculus — that consistency is pinned by tests.

The mixed lower central series is computed by the recursion
    term_{i+1} = <[c, a] : c generates term_i, a generates A>
closed under G-conjugation and A-images (generators suffice, since
[xy, a] = y^-1 [x, a] y [y, a]), and independently by a raw-definition
breadth-first search over left-normed commutator values
(mixed_series_definitional), so the two can be played against each other.
A pair keeps both, and its restrictions and induced quotient pairs, in its
`_cache` through groups._kept.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .elements import Element
from .errors import BudgetExceeded, CapExceeded, NotInvariant, NotPGroup
from .groups import (
    Automorphism,
    GroupTable,
    _inside,
    _kept,
    _key_in,
    _rows_in,
    close,
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
    """A group together with a finite group of automorphisms acting on it,
    A = <A_generators>, of order A_order.  With one generator (or none, for
    the identity) |A| is the generator's order, and A is closed when first
    read; with more, A is closed at build, unless its table is given."""

    def __init__(self, G: GroupTable, A_generators: Sequence[Automorphism],
                 A_order: int, A: Optional[GroupTable] = None):
        self.G = G
        self.A_generators = tuple(A_generators)
        self.A_order = A_order
        self._A = A
        self._cache: dict = {}

    @classmethod
    def build(cls, G: GroupTable, A_generators: Sequence[Automorphism],
              *, cap: int = DEFAULT_ACTION_CAP, A: Optional[GroupTable] = None) -> "ActionPair":
        """The pair, or CapExceeded when |A| is above `cap`; A, if given, is
        the table that the generators generate (a searched Aut(G))."""
        if any(a.domain is not G for a in A_generators):
            raise ValueError("acting automorphism is not defined on the given group")
        if A is None and len(A_generators) > 1:
            try:
                A = close(list(A_generators), cap=cap, p=G.p)
            except CapExceeded:
                raise CapExceeded(f"action closure exceeded cap of {cap}") from None
        order = A.order if A is not None else A_generators[0].order() if A_generators else 1
        if order > cap:
            raise CapExceeded(f"action closure exceeded cap of {cap}")
        return cls(G, A_generators, order, A)

    @property
    def A(self) -> GroupTable:
        """The acting group as a table, closed on first read when not at
        build; its order is A_order, which is its closure's cap."""
        if self._A is None:
            self._A = close(list(self.A_generators) or [identity_automorphism(self.G)],
                            cap=self.A_order, p=self.G.p)
        return self._A

    def __repr__(self) -> str:
        return f"ActionPair(|G|={self.G.order}, |A|={self.A_order})"


def trivial_action(G: GroupTable) -> ActionPair:
    return ActionPair.build(G, [identity_automorphism(G)])


def inner_action(G: GroupTable, *, cap: int = DEFAULT_ACTION_CAP) -> ActionPair:
    """Conjugation by G's generators, each map one _conjugates call of its
    generator, so that one map's temporaries are held at a time; the
    generators' inverses are found together first, and kept for each call."""
    every = np.arange(G.order)
    G._inverses(G._gens)
    return ActionPair.build(G, [Automorphism(G, G._conjugates(every, G._gens[k:k + 1]))
                                for k in range(len(G._gens))], cap=cap)


def mixed_commutator(g: Element, a: Automorphism) -> Element:
    """[g, a] = g^-1 * a(g)."""
    return a.domain.canon(g.inverse() * a(g))


def mixed_commutator_subgroup(pair: ActionPair) -> GroupTable:
    """[G, A], the second mixed lower central term: [g, a] for the generators
    g of G and a of A, closed under G and A."""
    return mixed_lower_central_series(pair).term(2)


def commutator_group_of_pair(pair: ActionPair) -> GroupTable:
    """[G, A], the subgroup table of G (cached)."""
    return mixed_commutator_subgroup(pair)


def _mixed_commutators(G: GroupTable, cs: np.ndarray, maps: Sequence[np.ndarray]) -> np.ndarray:
    """The indices of [c, a] = c^-1 a(c) for every c in cs and every map a,
    given as its index array (a row of a stack, or an automorphism's
    images), c-major, by one kernel call; none when there are no maps."""
    images = np.array([m[cs] for m in maps], dtype=np.intp).reshape(len(maps), len(cs))
    return G._products(np.repeat(G._inverses(cs), len(maps)), images.T.ravel())


def mixed_lower_central_series(pair: ActionPair) -> SeriesRecord:
    """Mixed lower central series of the pair, computed to stabilization,
    seeding each term by [c, a] for generators c of the last (see above)."""
    G, A = pair.G, pair.A_generators
    maps = [a.images for a in A]

    def step(T: GroupTable) -> GroupTable:
        return normal_closure(G, _mixed_commutators(G, _rows_in(G, T, T._gens), maps), A)
    return _kept(pair, "mixed_series", lambda: SeriesRecord.until_stable(G, step))


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
    Letters are rows of G and maps' index arrays (A's stacked rows, or its
    generators' images and their inverses'), each once, the identity left out.

    The states seen are a mask over (A-entries, value), and each
    breadth-first level extends all its states by all letters in one kernel
    call.  Every state costs one step per letter, and the sweep raises
    BudgetExceeded before a level that would take the steps past `budget`.
    The terms and step count are kept on the pair by (k_max, entries), and a
    later call raises exactly when that count is above its budget.
    """
    steps, terms = _kept(pair, ("definitional", k_max, entries),
                         lambda: _definitional_sweep(pair, k_max, entries, budget))
    if steps > budget:
        raise BudgetExceeded(f"definitional sweep exceeded {budget} commutator steps")
    return list(terms)


def _definitional_sweep(pair: ActionPair, k_max: int, entries: str, budget: int) -> tuple:
    """The steps and the terms of mixed_series_definitional's sweep."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    G = pair.G
    N, cap, every = G.order, k_max - 1, np.arange(G.order)
    if entries == "all":
        letters, maps = every, pair.A._images
    elif entries == "generators":
        letters = np.concatenate([G._gens, G._inverses(G._gens)])
        maps = [m for a in pair.A_generators for m in (a.images, a.inverse().images)]
    else:
        raise ValueError(f"unknown entry mode {entries!r}")
    letters = np.bincount(letters, minlength=N).nonzero()[0]
    letters = letters[letters != G._identity_row]
    maps = list({m.tobytes(): m for m in maps if (m != every).any()}.values())

    # [v, g] = v^-1 (g^-1 v g) and [v, a] = v^-1 a(v): row l of `right`
    # holds the right factor for letter l at every v, and `shift` the
    # A-entries the letter adds
    images = np.array(maps, dtype=np.intp).reshape(-1, N)
    right = np.concatenate([G._conjugates(every, letters).reshape(N, -1).T, images])
    shift = np.repeat([0, 1], [len(letters), len(maps)])[:, None]
    seen = np.zeros((cap + 1, N), dtype=bool)  # seen[c, v]: the state (v, c)
    seen[0] = True
    flat, slot = seen.reshape(-1), np.empty(seen.size, dtype=np.intp)
    values, counts = np.arange(N), np.zeros(N, dtype=np.intp)
    steps = 0
    while len(values):
        steps += len(values) * len(right)
        if steps > budget:
            raise BudgetExceeded(f"definitional sweep exceeded {budget} commutator steps")
        ws = G._products(np.tile(G._inverses(values), len(right)), right[:, values].ravel())
        states = (np.minimum(counts + shift, cap) * N).ravel() + ws
        states = states[~flat[states]]
        # one of each new state: the last write of its position wins
        slot[states] = np.arange(len(states))
        states = states[slot[states] == np.arange(len(states))]
        flat[states] = True
        counts, values = np.divmod(states, N)

    collected = np.logical_or.accumulate(seen[::-1])[::-1]
    return steps, (G, *(subgroup_generated(G, collected[k - 1].nonzero()[0])
                        for k in range(2, k_max + 1)))


def is_p_central_action(pair: ActionPair, X: Optional[GroupTable] = None) -> bool:
    """Does A fix every element of X of order dividing p (4 if p = 2)?"""
    G = pair.G
    if G.p is None:
        raise NotPGroup("no designated prime on the acted-on group")
    bound = central_order_bound(G.p)
    X = X if X is not None else G
    small = _rows_in(G, X)[bound % X._orders() == 0]
    return all((a.images[small] == small).all() for a in pair.A_generators)


def induced_quotient_action(pair: ActionPair, N: GroupTable) -> ActionPair:
    """The action induced on G/N; N must be normal and A-invariant.  The
    maps ids[x] -> ids[a(x)], with ids = Q.coset_id, are one scatter, and one
    gather asserts that they are well defined.  Kept on the pair by N's mask."""
    G = pair.G
    inside = _inside(N, G)

    def build() -> ActionPair:
        gens = _rows_in(G, N, N._gens)
        if not all(inside[a.images[gens]].all() for a in pair.A_generators):
            raise NotInvariant("kernel subgroup is not invariant under the action")
        Q = quotient(G, N)
        ids = Q.coset_id
        moved = np.array([ids[a.images] for a in pair.A_generators], ids.dtype).reshape(-1, G.order)
        images = np.empty((len(moved), Q.order), dtype=ids.dtype)
        images[:, ids] = moved
        if (images[:, ids] != moved).any():
            raise AssertionError("induced map is not well defined on the cosets")
        return ActionPair.build(Q, [Automorphism(Q, m) for m in images])
    return _kept(pair, ("induced", np.packbits(inside).tobytes()), build)


def restrict_action(pair: ActionPair, H: GroupTable) -> ActionPair:
    """The action restricted to an A-invariant subgroup H, acting on H; kept
    on the pair by H's rows and generators (_key_in), which become the pair's:
    an equal H with the same generators gets the first H's pair."""
    return _kept(pair, ("restrict", *_key_in(pair.G, H)), lambda: ActionPair.build(
        H, [restrict_automorphism(a, H) for a in pair.A_generators]))


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
    term of [G,A]" for an automorphism sigma of G, in A or not, and report
    the biconditional.  G's generators suffice, as omega_n([G,A]) is
    characteristic in [G,A], so normal in G; their commutators with sigma
    are one kernel call."""
    G = pair.G
    p = G.require_p_group()
    left = (p ** n) % sigma.order() == 0
    om = omega_subgroup(commutator_group_of_pair(pair), n)
    right = bool(_inside(om, G)[_mixed_commutators(G, G._gens, [sigma.images])].all())
    return conclude("order_matches_quotient_triviality", True, left == right,
                    {"n": n, "sigma_order": sigma.order(),
                     "power_is_trivial": left, "trivial_mod_omega": right})
