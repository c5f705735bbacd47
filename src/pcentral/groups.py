"""Fully enumerated finite groups and their basic machinery.

Everything is desk scale: groups are grown coset by coset from their
generators and stored as sorted element tables (sorted by canonical
byte key), so all downstream iteration is deterministic.  Subgroups are tables
that share their parent's elements; a quotient numbers its cosets by an id
array over the cover's element indices, and its elements are cosets keyed by
their canonically minimal representative; an automorphism is an index array
over its domain's element table, so automorphism groups are group tables too.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .elements import _TAG_AUT, Element, _key_bodies, _p_split, _require_prime
from .errors import (
    BackendMismatch,
    CapExceeded,
    NotAHomomorphism,
    NotBijective,
    NotInvariant,
    NotNormal,
    NotPGroup,
)

__all__ = [
    "GroupTable",
    "QuotientGroup",
    "Coset",
    "Automorphism",
    "close",
    "subgroup_generated",
    "is_normal",
    "normal_closure",
    "quotient",
    "commutator_subgroup",
    "center",
    "centralizer",
    "automorphism_from_images",
    "identity_automorphism",
    "conjugation_aut",
    "restrict_automorphism",
    "minimal_generating_sequence",
]

DEFAULT_CLOSURE_CAP = 200_000

# rows the batched kernels take at once, so that their temporary arrays keep
# one small size whatever the table's order (larger blocks measurably raised
# peak memory on the rank-6 sigma example and gained no time)
_BLOCK_ROWS = 256

_key = operator.attrgetter("key")


class GroupTable:
    """A finite group, fully enumerated, with a canonical element order.

    A subgroup is a table with a `parent`: it canonicalises through the
    parent, so its elements are the parent's stored objects, and it takes the
    parent's prime.  A table given no generators takes every non-identity
    element as its generators.
    """

    def __init__(self, elements: Iterable[Element], generators: Sequence[Element] = (),
                 p: Optional[int] = None, parent: Optional["GroupTable"] = None):
        if parent is not None:
            elements = map(parent.canon, elements)
            p = parent.p
        els = sorted(set(elements), key=_key)
        if not els:
            raise ValueError("a group needs at least the identity element")
        self.elements: Tuple[Element, ...] = tuple(els)
        self._index: Dict[bytes, int] = {x.key: i for i, x in enumerate(self.elements)}
        self.keys = self._index.keys()
        self.parent = parent
        probe = (parent.identity if parent is not None
                 else (generators[0] if generators else els[0]).identity_like())
        if probe.key not in self._index:
            raise ValueError("element table does not contain the identity")
        self.identity: Element = self.canon(probe)
        self.generators: Tuple[Element, ...] = (
            tuple(map(self.canon, generators)) if generators
            else tuple(x for x in self.elements if x is not self.identity))
        if p is not None:
            _require_prime(p)
        self.p = p
        self._cache: dict = {}

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return isinstance(x, Element) and x.key in self._index

    def __iter__(self):
        return iter(self.elements)

    def canon(self, x: Element) -> Element:
        """The stored copy of x (so per-element caches accumulate in one place)."""
        i = self._index.get(x.key)
        if i is None:
            raise ValueError("element does not belong to this group")
        return self.elements[i]

    def index_of(self, x: Element) -> int:
        return self._index[x.key]

    def mul(self, x: Element, y: Element) -> Element:
        return self.canon(x * y)

    def _key_bodies(self) -> Optional[np.ndarray]:
        """The elements' key bodies, a row each (elements._key_bodies), kept
        after the first call; None for cosets and automorphisms."""
        if "key_bodies" not in self._cache:
            self._cache["key_bodies"] = _key_bodies(self.elements)
        return self._cache["key_bodies"]

    def _right_column(self, j: int) -> np.ndarray:
        """[index(x * e_j) for x in elements] as C ints, built on first use
        and kept; KeyError if a product lies outside the table.  Matrix and
        permutation tables multiply their key bodies a block at a time."""
        columns = self._cache.setdefault("right_columns", {})
        col = columns.get(j)
        if col is None:
            g, bodies = self.elements[j], self._key_bodies()
            if bodies is None:
                index = self._index
                col = np.array([index[(x * g).key] for x in self.elements], dtype=np.intc)
            else:
                col = np.concatenate([
                    self._rows_of(g._right_products(bodies[start:start + _BLOCK_ROWS]))
                    for start in range(0, len(bodies), _BLOCK_ROWS)])
            columns[j] = col
        return col

    def _rows_of(self, bodies: np.ndarray) -> np.ndarray:
        """The table indices of the elements with these key bodies, as C ints;
        KeyError if one is not in the table."""
        rows = self._key_bodies()
        pos = np.searchsorted(_opaque_rows(rows), _opaque_rows(bodies))
        found = pos < len(rows)
        # compared as numbers: an equality test of void values is far slower
        found[found] = (rows[pos[found]] == bodies[found]).all(axis=1)
        if not found.all():
            raise KeyError("a product lies outside the table")
        return pos.astype(np.intc)

    def _fill_orders(self) -> None:
        """Cache the order of every element that has none, by batched powers
        where the backend has them (matrices)."""
        els = self.elements
        orders_of = getattr(els[0], "_body_orders", None)
        todo = [i for i, x in enumerate(els) if x._ord is None] if orders_of else []
        bodies = self._key_bodies() if todo else None
        if bodies is None:
            return
        todo = np.array(todo, dtype=np.intp)
        for start in range(0, len(todo), _BLOCK_ROWS):
            rows = todo[start:start + _BLOCK_ROWS]
            for i, k in zip(rows.tolist(), orders_of(bodies[rows]).tolist()):
                els[i]._ord = k

    def conj(self, x: Element, g: Element) -> Element:
        """g^-1 x g, canonicalized."""
        return self.canon(g.inverse() * x * g)

    def comm(self, x: Element, y: Element) -> Element:
        """[x, y] = x^-1 y^-1 x y, canonicalized."""
        return self.canon(x.inverse() * y.inverse() * x * y)

    @property
    def is_p_group(self) -> bool:
        return self.p is not None and _p_split(self.order, self.p)[1] == 1

    def require_p_group(self) -> int:
        if self.p is None:
            raise NotPGroup("no prime designated for this group")
        if not self.is_p_group:
            raise NotPGroup(f"|G| = {self.order} is not a power of p = {self.p}")
        return self.p

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._fill_orders()
            self._cache["exponent"] = math.lcm(*(x.order() for x in self.elements))
        return self._cache["exponent"]

    def order_stats(self) -> Dict[int, int]:
        self._fill_orders()
        stats: Dict[int, int] = {}
        for x in self.elements:
            k = x.order()
            stats[k] = stats.get(k, 0) + 1
        return stats

    # -- subgroups -------------------------------------------------------

    def subgroup(self, elements: Iterable[Element], gens: Sequence[Element] = ()) -> "GroupTable":
        return GroupTable(elements, gens, parent=self)

    def lies_in(self, G: "GroupTable") -> bool:
        """Is this table G, or cut from G through a chain of parents?"""
        H: Optional[GroupTable] = self
        while H is not None and H is not G:
            H = H.parent
        return H is G

    @property
    def trivial_subgroup(self) -> "GroupTable":
        if "trivial" not in self._cache:
            self._cache["trivial"] = self.subgroup((self.identity,))
        return self._cache["trivial"]

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, p={self.p})"


def _opaque_rows(rows: np.ndarray) -> np.ndarray:
    """Each row as one void value; void values compare like their bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _closure(found: Dict[bytes, Element], gens: Sequence[Element], mul: Callable,
             cap: Optional[int] = None) -> List[Element]:
    """Grow `found` (key -> element) in place into <gens>; the members of
    `gens` that `found` already holds must generate it.

    The one closure behind group, subgroup and action closure, by Dimino's
    algorithm (G. Butler, *Fundamental Algorithms for Permutation Groups*,
    1991): a generator g missing when reached adds the right coset Hg of the
    group H held so far, then Hrs for each coset representative r and
    generator s with rs new, so each element is made once.  Returns the
    generators the result is closed under, those held at the start first.
    Raises CapExceeded as soon as more than `cap` elements are found.
    """
    held = [g for g in gens if g.key in found]
    for g in gens:
        if g.key in found:
            continue
        ident = g.identity_like().key
        base = [h for h in found.values() if h.key != ident]
        held.append(g)
        reps: List[Element] = []
        # reps grows while the products rs are walked
        for r in chain((g,), (mul(r, s) for r in reps for s in held)):
            if r.key in found:
                continue
            reps.append(r)
            for y in chain((r,), (mul(h, r) for h in base)):
                found[y.key] = y
                if cap is not None and len(found) > cap:
                    raise CapExceeded(f"closure exceeded cap of {cap} elements")
    return held


def close(generators: Sequence[Element], *, cap: int = DEFAULT_CLOSURE_CAP,
          p: Optional[int] = None) -> GroupTable:
    """Enumerate the group generated by `generators`, grown from the identity."""
    if not generators:
        raise ValueError("need at least one generator")
    identity = generators[0].identity_like()
    found = {identity.key: identity}
    _closure(found, generators, operator.mul, cap=cap)
    return GroupTable(found.values(), generators, p=p)


def subgroup_generated(G: GroupTable, seeds: Iterable[Element],
                       H: Optional[GroupTable] = None) -> GroupTable:
    """<H, seeds> inside G, grown from its subgroup H (from the identity when
    H is None).  Seeds are taken in key order and dropped when already in the
    group grown so far, so the generators are H's, then the seeds kept.
    """
    found = ({h.key: h for h in H.elements} if H is not None
             else {G.identity.key: G.identity})
    pool = sorted({s.key: s for s in map(G.canon, seeds) if s.key not in found}.values(),
                  key=_key)
    gens = _closure(found, (*(H.generators if H is not None else ()), *pool), G.mul)
    return G.subgroup(found.values(), gens)


def is_normal(G: GroupTable, H: GroupTable) -> bool:
    return all(G.conj(h, g).key in H.keys for g in G.generators for h in H.generators)


def normal_closure(G: GroupTable, seeds: Iterable[Element],
                   maps: Sequence["Automorphism"] = ()) -> GroupTable:
    """Smallest normal subgroup of G containing the seeds and invariant under
    the automorphisms in `maps`: the fixpoint of adding the conjugates of H's
    generators by G's generators and their images under the maps.  Generators
    suffice: H = <S> is normal and invariant exactly when S^g and a(S) lie in H
    for the generators g of G and the maps a."""
    H = subgroup_generated(G, seeds)
    while True:
        grown = [c for h in H.generators for g in G.generators
                 if (c := G.conj(h, g)).key not in H.keys]
        grown += [c for h in H.generators for a in maps if (c := a(h)).key not in H.keys]
        if not grown:
            return H
        H = subgroup_generated(G, grown, H)


def commutator_subgroup(G: GroupTable, X: GroupTable, Y: GroupTable) -> GroupTable:
    """[X, Y]: the normal closure in G of [x, y] for the generators x of X and
    y of Y.  Modulo that closure the generators of X and Y commute, so it holds
    every [x, y] with x in X and y in Y (Holt–Eick–O'Brien, *Handbook of
    Computational Group Theory*, 2005).  When X and Y are both normal every
    generator of [X, Y] lies in X ∩ Y, and that is asserted.
    """
    H = normal_closure(G, {G.comm(x, y) for x in X.generators for y in Y.generators})
    if (any(h.key not in X.keys or h.key not in Y.keys for h in H.generators)
            and is_normal(G, X) and is_normal(G, Y)):
        raise AssertionError("[X, Y] left X ∩ Y for normal X, Y")
    return H


def center(G: GroupTable) -> GroupTable:
    if "center" not in G._cache:
        G._cache["center"] = centralizer(G, G.generators)
    return G._cache["center"]


def centralizer(G: GroupTable, S: Iterable[Element]) -> GroupTable:
    S = [G.canon(s) for s in S]
    return G.subgroup(x for x in G.elements if all(G.mul(x, s) == G.mul(s, x) for s in S))


class Automorphism(Element):
    """A bijective homomorphism G -> G as an index array: images[i] is the
    index of the image of domain.elements[i].

    The key is a tag byte, which no element key starts with, followed by the
    generators' image keys.  Those all have one length, so automorphisms sort
    by their tuple of generator images.
    """

    __slots__ = ("domain", "images")

    def __init__(self, domain: GroupTable, images: Sequence[int]):
        self.domain = domain
        self.images = np.asarray(images, dtype=np.int32)
        self.images.setflags(write=False)
        els, index = domain.elements, domain._index
        self.key = bytes((_TAG_AUT,)) + b"".join(
            els[self.images[index[g.key]]].key for g in domain.generators)
        self._inv = None
        self._ord = None

    def __call__(self, x: Element) -> Element:
        dom = self.domain
        try:
            i = dom._index[x.key]
        except KeyError:
            raise ValueError("element does not belong to the automorphism's domain") from None
        return dom.elements[self.images[i]]

    def __mul__(self, other: Element) -> "Automorphism":
        """(a * b)(x) = a(b(x)): apply b first, then a."""
        if not isinstance(other, Automorphism) or other.domain is not self.domain:
            raise BackendMismatch("automorphisms act on different groups")
        return Automorphism(self.domain, self.images[other.images])

    def _compute_inverse(self) -> "Automorphism":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(len(inv), dtype=np.int32)
        return Automorphism(self.domain, inv)

    def identity_like(self) -> "Automorphism":
        return identity_automorphism(self.domain)

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(len(self.images))).all())

    def order(self) -> int:
        """The lcm of the cycle lengths through the domain's generators: a^k
        is the identity exactly when it fixes every generator, as the
        generators generate the domain (the key relies on that too)."""
        k = self._ord
        if k is None:
            images, index = self.images.tolist(), self.domain._index
            k = 1
            for g in self.domain.generators:
                start = index[g.key]
                i, length = images[start], 1
                while i != start:
                    i, length = images[i], length + 1
                k = math.lcm(k, length)
            self._ord = k
        return k

    def __repr__(self) -> str:
        return f"Automorphism(on order-{self.domain.order} group)"


def _schreier_levels(column: Callable[[int], np.ndarray], inside: np.ndarray,
                     steps: Iterable[Sequence[int]]) -> Tuple[List[int], List[tuple]]:
    """The one breadth-first closure over element indices: a Schreier tree
    of <gens>, grown from the subgroup H_0 in the mask `inside` a step at a
    time.  column(j) is [index(x * e_j) for every x]; step d adds the
    generators steps[d], and `inside` grows in place to H_d = <H_0,
    steps[0..d]>.  Steps are read lazily, so a step source may pick its
    generators from the mask as it stands.

    Returns gens, all steps in order, and a level per step, a tuple of
    - `grow`: the tree edges x -> x*g_j = y that first reach each new y, as
      (xs, js, ys) arrays with j indexing gens, one triple per breadth-first
      layer, so every x lies in H_{d-1} or an earlier layer;
    - `check`: every other edge x -> x*g_j with x new or g_j new, as one
      triple (an edge of an old generator inside H_{d-1} was checked at a
      lower level);
    - `new`: the elements added, and `size`: |H_d|.
    A map of H_d that agrees with f(x*g_j) = f(x)*f(g_j) on the edges of
    every level up to d is a homomorphism (Holt–Eick–O'Brien, *Handbook of
    Computational Group Theory*, 2005, on Schreier trees).
    """
    gens, cols, levels = [], [], []
    first = np.empty(len(inside), dtype=np.intp)  # an edge reaching each new element
    for step in steps:
        old = inside.nonzero()[0].astype(np.intc)
        xs = old.repeat(len(step))
        js = len(gens) + np.arange(len(xs), dtype=np.intc) % len(step)
        gens += step
        cols += map(column, step)
        table = np.stack(cols)
        grow, check, new = [], [], []
        while len(xs):
            ys = table[js, xs]
            reach = (~inside[ys]).nonzero()[0]
            first[ys[reach]] = reach
            tree = np.zeros(len(ys), dtype=bool)
            tree[first[ys[reach]]] = True
            added = ys[tree]
            inside[added] = True
            new.append(added)
            if len(added):
                grow.append((xs[tree], js[tree], added))
            tree = ~tree
            check.append((xs[tree], js[tree], ys[tree]))
            xs = added.repeat(len(gens))
            js = np.arange(len(xs), dtype=np.intc) % len(gens)
        levels.append((grow, tuple(map(np.concatenate, zip(*check))), np.concatenate(new),
                       int(inside.sum())))
    return gens, levels


def _extend_block(G: GroupTable, F: np.ndarray, images: np.ndarray,
                  level: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Extend each row of F over one level of _schreier_levels, in place.

    Row r of the int32 array F maps H_{d-1} by index; images[r, j] is the
    index of its image of g_j, for each generator g_j of H_d.  Each layer of
    tree edges sets
    f(x*g_j) = f(x)*images[r, j] for every row by one gather through the
    right columns of the images that occur in the block.  Returns two row
    masks: every check edge agrees (f is a homomorphism on H_d), and
    no new element maps to the identity (so a homomorphism injective on the
    old subgroup is injective).
    """
    grow, (xs, js, ys), new, _ = level
    occurs = np.bincount(images.ravel(), minlength=G.order).astype(bool)
    offsets = (occurs.cumsum() - 1)[images] * G.order
    table = np.concatenate([G._right_column(m) for m in occurs.nonzero()[0].tolist()])
    for gx, gj, gy in grow:
        F[:, gy] = table[offsets[:, gj] + F[:, gx]]
    hom = np.ones(len(F), dtype=bool)
    # at most |G| edges and _BLOCK_ROWS^2 cells per comparison, so that its
    # temporaries stay near the size of the maps
    step = max(1, min(G.order, _BLOCK_ROWS * _BLOCK_ROWS // len(F)))
    for start in range(0, len(xs), step):
        part = slice(start, start + step)
        hom &= (table[offsets[:, js[part]] + F[:, xs[part]]] == F[:, ys[part]]).all(axis=1)
    return hom, (F[:, new] != G.index_of(G.identity)).all(axis=1)


def automorphism_from_images(G: GroupTable, gens: Sequence[Element],
                             images: Sequence[Element]) -> Automorphism:
    """Extend generator images over a Schreier tree of <gens>, verifying both
    well-definedness (every edge consistent) and bijectivity."""
    if len(gens) != len(images):
        raise ValueError(f"{len(gens)} generators but {len(images)} images")
    gen_idx = [G.index_of(G.canon(g)) for g in gens]
    row = np.array([[G.index_of(G.canon(m)) for m in images]], dtype=np.int32)
    F = np.full((1, G.order), G.index_of(G.identity), dtype=np.int32)
    hom = injective = np.ones(1, dtype=bool)
    size = 1  # <> is the trivial group
    if gens:  # one level, with every generator, grown from the identity
        inside = np.arange(G.order) == G.index_of(G.identity)
        _, (level,) = _schreier_levels(G._right_column, inside, [gen_idx])
        (hom, injective), size = _extend_block(G, F, row, level), level[-1]
    if not hom[0]:
        raise NotAHomomorphism("generator images are inconsistent on the Cayley graph")
    if size != G.order:
        raise ValueError("the given elements do not generate the group")
    if not injective[0]:
        raise NotBijective("generator images define a non-bijective endomorphism")
    return Automorphism(G, F[0])


def identity_automorphism(G: GroupTable) -> Automorphism:
    return Automorphism(G, np.arange(G.order))


def conjugation_aut(G: GroupTable, g: Element) -> Automorphism:
    g = G.canon(g)
    return Automorphism(G, [G.index_of(G.conj(x, g)) for x in G.elements])


def restrict_automorphism(a: Automorphism, H: GroupTable) -> Automorphism:
    """Restrict a to an A-invariant subgroup H, as an automorphism of H;
    invariance is checked on H's generators."""
    if any(a(h).key not in H.keys for h in H.generators):
        raise NotInvariant("subgroup is not invariant under the automorphism")
    return Automorphism(H, [H.index_of(a(h)) for h in H.elements])


def minimal_generating_sequence(G: GroupTable) -> Tuple[Element, ...]:
    """Greedy generating sequence: highest order first, ties by canonical key."""
    candidates = sorted(G.elements, key=lambda x: (-x.order(), x.key))
    H = subgroup_generated(G, ())
    while H.order < G.order:
        H = subgroup_generated(G, [next(x for x in candidates if x.key not in H.keys)], H)
    return H.generators


# -- quotients -----------------------------------------------------------


class Coset(Element):
    """An element of a quotient group: a coset keyed by its minimal representative."""

    __slots__ = ("rep", "quotient")

    def __init__(self, rep: Element, quotient: "QuotientGroup"):
        self.rep = rep
        self.quotient = quotient
        self.key = rep.key
        self._inv = None
        self._ord = None

    def __mul__(self, other: Element) -> "Coset":
        if not isinstance(other, Coset) or other.quotient is not self.quotient:
            raise BackendMismatch("cosets belong to different quotients")
        return self.quotient.project(self.rep * other.rep)

    def _compute_inverse(self) -> "Coset":
        return self.quotient.project(self.rep.inverse())

    def identity_like(self) -> "Coset":
        return self.quotient.identity

    def is_identity(self) -> bool:
        return self is self.quotient.identity

    def __repr__(self) -> str:
        return f"Coset({self.rep!r})"


class QuotientGroup(GroupTable):
    """G/N, with G its `cover`: coset_id[i] is the index in this table of the
    coset of cover.elements[i].

    One scan of the cover in key order meets each coset first at its minimal
    member, which becomes the coset's representative and key, so coset ids
    follow the table's sorted order.
    """

    def __init__(self, cover: GroupTable, N: GroupTable):
        self.cover = cover
        self.normal_subgroup = N
        self.coset_id = coset_id = [-1] * cover.order
        cosets: List[Coset] = []
        for i, x in enumerate(cover.elements):
            if coset_id[i] < 0:
                for n in N.elements:
                    coset_id[cover.index_of(x * n)] = len(cosets)
                cosets.append(Coset(x, self))
        # GroupTable.__init__ finds the identity through Coset.identity_like
        self.identity = cosets[coset_id[cover.index_of(cover.identity)]]
        super().__init__(cosets, [cosets[coset_id[cover.index_of(g)]]
                                  for g in cover.generators], p=cover.p)

    def project(self, x: Element) -> Coset:
        """The coset of an element of the cover."""
        return self.elements[self.coset_id[self.cover.index_of(x)]]

    def preimage(self, S: GroupTable) -> GroupTable:
        """The full preimage in the cover of a subgroup of this quotient."""
        if not S.lies_in(self):
            raise ValueError("subgroup does not live in this quotient")
        ids = {self.index_of(c) for c in S.elements}
        return self.cover.subgroup(
            x for x, c in zip(self.cover.elements, self.coset_id) if c in ids)

    def __repr__(self) -> str:
        return f"QuotientGroup(order={self.order} = {self.cover.order}/{self.normal_subgroup.order})"


def quotient(G: GroupTable, N: GroupTable) -> QuotientGroup:
    """G/N; raises NotNormal unless N is normal in G."""
    if not N.lies_in(G):
        raise ValueError("subgroup does not live in the given group")
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    return QuotientGroup(G, N)
