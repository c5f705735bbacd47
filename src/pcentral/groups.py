"""Fully enumerated finite groups and their basic machinery.

Everything is desk scale: groups are grown breadth first over arrays from
their generators (`close`) and stored as tables of rows sorted by canonical
key, so all downstream iteration is deterministic.  A table is its rows, and
one lookup, `_find` among its sorted row codes, finds an element's row;
element objects are made when first read.  A subgroup is cut from its parent
table by a membership mask (`_subgroup_at`): it is its rows of its root
table.  A quotient numbers its cosets by an id array over the cover's rows,
and its elements are cosets keyed by their canonically minimal
representative; an automorphism is an index array over its domain's rows,
so automorphism groups are group tables too.

Once a table exists, the group core works on element indices: one pairwise
kernel, GroupTable._products, multiplies index arrays in batches on every
kind of table.  Right columns, centralizers, normality, coset numbering,
orders and powers are built on it, and one closure, _schreier_levels, grows
subgroups and Schreier trees as masks, layer by layer, through the columns.
A matrix or permutation root of at most 256 elements keeps its whole
multiplication table, one byte a cell, gathered from its generators' right
columns along their Schreier tree; its kernel reads products off it, and its
right columns are the table's rows.  A root may be handed its generators'
columns where they are known without products, as the catalog's elementary
abelian groups are.  What a table derives from itself (its center, central
quotient, series, omega and agemo terms and commutator subgroups) is built
once and kept in its `_cache` by `_kept`; `quotient` makes a new table.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence as _Sequence
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _index_dtype(n: int) -> np.dtype:
    """The narrowest dtype that holds every row of a table of order n, for
    the index arrays a table keeps: one byte up to 256 rows, two up to
    65536, else int32.  Such arrays are gathered and compared, never added
    to: a narrow sum wraps (and numpy before 2 promotes it otherwise)."""
    return np.dtype(np.uint8 if n <= 1 << 8 else np.uint16 if n <= 1 << 16 else np.int32)


class _Elements(_Sequence):
    """A table's elements, read-only, each made by the root when first read."""

    def __init__(self, table: "GroupTable"):
        self._root = table.root
        self._rows = table.root_rows if table.parent is not None else range(table.order)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._root._element, map(int, self._rows[i])))
        return self._root._element(int(self._rows[i]))


class GroupTable:
    """A finite group, fully enumerated, with a canonical element order.

    The constructor makes a root table from element objects, which it keeps,
    on their sorted distinct row codes (`_root`): the key bodies of matrices
    or permutations (`_bodies`), or else the keys; automorphisms of one
    `_domain` keep only their stacked images (_root_maps).  A subgroup is cut
    from its `parent` by a mask (_subgroup_at): it takes the parent's prime,
    and is `root_rows`, its rows in its `root` (the table at the end of its
    chain of parents; a root is its own).  Every table keeps its identity's
    row and its generators' rows (`_gens`); given no generators, it takes
    every non-identity element.
    """

    _bodies: Optional[np.ndarray] = None
    _domain: Optional["GroupTable"] = None

    def __init__(self, elements: Iterable[Element], generators: Sequence[Element] = (),
                 p: Optional[int] = None):
        els = list(elements)
        if not els:
            raise ValueError("a group needs at least the identity element")
        if p is not None:
            _require_prime(p)
        if all(isinstance(x, Automorphism) and x.domain is els[0].domain for x in els):
            dom = els[0].domain
            images = np.array([x.images for x in els], dtype=_index_dtype(dom.order))
            rows = self._root_maps(dom, images[:, dom._gens], p, generators)
            self._images[rows] = images
            return
        codes = _key_bodies(els)
        self._root(self._codes_of(els) if codes is None else codes, els,
                   (generators[0] if generators else els[0]).identity_like(), p, generators)

    @classmethod
    def _of_bodies(cls, bodies: np.ndarray, identity: Element, gen_rows: Sequence[int],
                   p: Optional[int], gen_columns: Sequence[np.ndarray] = ()) -> "GroupTable":
        """The root table on key bodies of the identity's backend, generated
        by the elements at gen_rows; it makes no element object.  Bodies
        given in ascending order may come with their generators' right
        columns (gen_columns, in the table's index dtype), which it keeps."""
        T = cls.__new__(cls)
        T._gens = T._root(bodies, (), identity, p)[np.asarray(gen_rows, dtype=np.intp)]
        if len(gen_columns):
            T._cache["right_columns"] = dict(zip(T._gens.tolist(), gen_columns))
        return T

    def _root(self, codes: np.ndarray, objects: Sequence[Element], identity: Element,
              p: Optional[int], generators: Sequence[Element] = ()) -> np.ndarray:
        """Become a root on the distinct `codes` in ascending (byte) order,
        keeping objects[i], if given, as codes[i]'s row's object; the identity
        and generators (else every other row), if given, must have rows.
        Returns each code's row."""
        rank = np.argsort(codes if codes.ndim == 1 else _opaque_rows(codes), kind="stable")
        moved = bool((rank[1:] < rank[:-1]).any())
        if moved:  # copied only when out of order
            codes = codes[rank]
        flat, first = codes if codes.ndim == 1 else _opaque_rows(codes), np.ones(len(codes), bool)
        first[1:] = flat[1:] != flat[:-1]
        self._codes = codes if first.all() else codes[first]
        self._codes.setflags(write=False)
        self._made = dict(enumerate(map(objects.__getitem__, rank[first].tolist()))
                          if objects else ())
        if self._codes.ndim == 2:
            self._bodies, self._proto, self._header = (self._codes, identity,
                                                       identity.key[:identity._BODY[0]])
        order = len(self._codes)
        self.parent, self.root = None, self
        self.root_rows = np.arange(order, dtype=_index_dtype(order))
        self.p, self._cache, self.elements = p, {}, _Elements(self)
        if identity is not None:  # else the caller sets the identity's and generators' rows
            try:
                found = self._lookup([identity, *generators]).astype(np.intp)
            except KeyError:
                raise ValueError("element does not belong to this group" if identity in self
                                 else "element table does not contain the identity") from None
            self._identity_row = int(found[0])
            self._gens = found[1:] if generators else (self.root_rows != found[0]).nonzero()[0]
        rows = first.cumsum()
        rows -= 1
        return rows[np.argsort(rank)] if moved else rows

    def _root_maps(self, domain: "GroupTable", heads: np.ndarray, p: Optional[int],
                   generators: Sequence[Element] = ()) -> np.ndarray:
        """Become the root table of the automorphisms of `domain` whose images
        of its generators are the rows of `heads`: the one automorphism table
        constructor.  It keeps no object; the caller writes each map once
        into its stack (`_images`, of the domain's index dtype), at its
        head's row, which it returns."""
        self._domain = domain
        rows = self._root(_image_codes(domain, heads), (), identity_automorphism(domain), p,
                          generators)
        self._images = np.empty((self.order, domain.order), dtype=_index_dtype(domain.order))
        return rows

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.root_rows)

    @property
    def identity(self) -> Element:
        return self.elements[self._identity_row]

    @property
    def generators(self) -> Tuple[Element, ...]:
        return tuple(map(self.elements.__getitem__, self._gens.tolist()))

    @functools.cached_property
    def keys(self) -> frozenset:
        """The elements' keys as a set, for tests; the package reads rows."""
        return frozenset(map(self._row_key, range(self.order)))

    def __contains__(self, x: Element) -> bool:
        try:
            return isinstance(x, Element) and self.index_of(x) >= 0
        except KeyError:
            return False

    def __iter__(self):
        return iter(self.elements)

    def _element(self, row: int) -> Element:
        """A root's object at a row, made on first use and kept."""
        x = self._made.get(row)
        if x is None:
            x = self._made[row] = self._make(row)
        return x

    def _make(self, row: int) -> Element:
        if self._domain is not None:
            return Automorphism(self._domain, self._images[row])
        return self._proto._like(self._row_key(row))

    def _row_key(self, row: int) -> bytes:
        """The key at a row, made without an object where it holds a body."""
        if self.parent is not None:
            return self.root._row_key(self.root_rows[row])
        if self._bodies is not None:
            return self._header + self._bodies[row].tobytes()
        return self._element(row).key

    def _codes_of(self, xs: List[Element]) -> np.ndarray:
        """The row codes of xs in this root; KeyError if one can have none."""
        if self._bodies is not None:
            bodies = _key_bodies(xs)
            if bodies is None or not xs[0].key.startswith(self._header):
                raise KeyError("element of another backend, size or prime")
            return bodies
        if self._domain is not None:
            dom, gens = self._domain, self._domain._gens
            if not all(isinstance(x, Automorphism) and x.domain is dom for x in xs):
                raise KeyError("not an automorphism of this table's domain")
            return _image_codes(dom, np.array([x.images[gens] for x in xs],
                                              dtype=np.intp).reshape(len(xs), len(gens)))
        return np.array([x.key for x in xs], dtype=object)

    def _lookup(self, xs: List[Element]) -> np.ndarray:
        """The rows of xs as C ints, by _find among the sorted row codes (a
        subgroup's are its root rows); KeyError for one outside the table."""
        if not xs:
            return np.empty(0, dtype=np.intc)
        if self.parent is not None:
            return _find(self.root_rows, self.root._lookup(xs))
        return _find(self._codes, self._codes_of(xs))

    def index_of(self, x: Element) -> int:  # KeyError for x outside the table
        return int(self._lookup([x])[0])

    def canon(self, x: Element) -> Element:
        """The stored copy of x (so per-element caches accumulate in one place)."""
        return self.elements[self._rows([x])[0]]

    def _rows(self, xs: Iterable[Element]) -> np.ndarray:
        """The indices of the elements xs, or xs itself if it is an index
        array; ValueError for an element outside the table."""
        if isinstance(xs, np.ndarray):
            return xs
        try:
            return self._lookup(list(xs)).astype(np.intp)
        except KeyError:
            raise ValueError("element does not belong to this group") from None

    def mul(self, x: Element, y: Element) -> Element:
        return self.canon(x * y)

    def _key_bodies(self) -> Optional[np.ndarray]:
        return self._bodies

    def _right_column(self, j: int) -> np.ndarray:
        """[index(x * e_j) for x in elements] in the table's index dtype,
        built on first use and kept; KeyError if a product lies outside the
        table.  On a root with a product table it is a view of the table's
        row j.  Otherwise a subgroup's columns and a root's generators'
        columns are one _products call each, and a root's other columns are
        gathers through its generators' columns (_tree_column)."""
        columns = self._cache.setdefault("right_columns", {})
        if j not in columns:
            table = self._product_table()
            if table is not None:
                column = table[j]
            elif self.parent is not None or j in self._gens:
                column = self._products(np.arange(self.order), np.full(self.order, j))
            else:
                column = self._tree_column(j)
            columns[j] = column.astype(_index_dtype(self.order), copy=False)
        return columns[j]

    def _product_table(self) -> Optional[np.ndarray]:
        """A matrix or permutation root with one-byte indices (at most 256
        elements, _index_dtype) keeps every right column in one |G| x |G|
        table: row j is the column of e_j, so table[y, x] is the row of
        x * y.  It is built on first use, from the generators' columns,
        by gathers down their Schreier tree (_tree_edges): the column of
        y = x * e_g is the column of g read at the column of x.  Rows the
        generators do not reach take kernel columns.  The right columns
        already kept become views of its rows.  None on any other table,
        while the table is built (so its generators' columns come from the
        kernel), and for good once a product lies outside the table."""
        if "product_table" not in self._cache:
            self._cache["product_table"] = None
            if self._bodies is not None and _index_dtype(self.order).itemsize == 1:
                try:
                    self._cache["product_table"] = self._gathered_table()
                except KeyError:  # a GroupTable of elements that are not closed
                    pass
        return self._cache["product_table"]

    def _gathered_table(self) -> np.ndarray:
        """The product table, built as _product_table says; KeyError if a
        product lies outside the table."""
        order = self.order
        table = np.empty((order, order), dtype=np.uint8)
        table[self._identity_row] = self.root_rows
        reached = self.root_rows == self._identity_row
        for g in self._gens.tolist():
            table[g] = self._right_column(g)
        for xs, g, ys in self._tree_edges():
            table[ys] = table[g][table[xs]]
            reached[ys] = True
        rest = (~reached).nonzero()[0]
        if len(rest):  # the generators generate less than the table
            table[rest] = self._products(np.tile(self.root_rows, len(rest)),
                                         np.repeat(rest, order)).reshape(len(rest), order)
        columns = self._cache.setdefault("right_columns", {})
        for j in columns:
            columns[j] = table[j]
        return table

    def _tree_column(self, j: int) -> np.ndarray:
        """A root's right column of a non-generator j: x * e_j = (x * e_u) * g
        for the parent u = j * g^-1 of j in a breadth-first Schreier tree of
        the generators (_schreier_tree), walked up from j to the nearest kept
        column, or the identity, and gathered back down through the
        generators' columns.  The columns passed on the way are not kept."""
        parent, via = self._schreier_tree()
        columns, path = self._cache["right_columns"], []
        while j not in columns and j != self._identity_row:
            if parent[j] < 0:  # not reached: the generators generate less
                return self._products(np.arange(self.order), np.full(self.order, j))
            path.append(int(via[j]))
            j = int(parent[j])
        column = columns[j] if j in columns else self.root_rows  # the identity's
        for g in reversed(path):
            column = self._right_column(g)[column]
        return column

    def _schreier_tree(self) -> Tuple[np.ndarray, np.ndarray]:
        """Int32 arrays (parent, via) over a root's rows, built on first use
        and kept: y = parent[y] * e_{via[y]}, via[y] a generator's row, along
        the edges of _tree_edges; -1 at the identity and at rows not
        reached."""
        if "schreier_tree" not in self._cache:
            tree = np.full((2, self.order), -1, dtype=np.int32)
            for xs, g, ys in self._tree_edges():
                tree[0, ys], tree[1, ys] = xs, g
            self._cache["schreier_tree"] = tree
        return self._cache["schreier_tree"]

    def _tree_edges(self) -> Iterator[Tuple[np.ndarray, int, np.ndarray]]:
        """The edges y = x * e_g of a breadth-first Schreier tree of a root's
        generators, as arrays (xs, g, ys) for each generator g of each layer:
        one _schreier_levels step of every generator from the identity.  A
        layer's xs are the identity or the ys of the layers before."""
        gens = list(dict.fromkeys(self._gens.tolist()))
        if not gens:
            return
        inside = np.arange(self.order) == self._identity_row
        ((layers, cols, _, _),) = _schreier_levels(self._right_column, inside, [gens], [])
        for xs, _, reach in layers:  # j0 is 0 in a level grown from the identity
            js, at = np.divmod(reach, len(xs))
            for j, (g, col) in enumerate(zip(gens, cols)):
                x = xs[at[js == j]]
                yield x, g, col[x]

    def _products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """[index(elements[x] * elements[y]) for x, y in zip(xs, ys)] as C
        ints: the one pairwise product kernel of the group core; KeyError if
        a product lies outside the table.

        A matrix or permutation root of at most 256 elements reads the
        products off its multiplication table (_product_table).  Any other
        matrix or permutation root, and one whose table is being built,
        multiplies the paired key bodies in blocks of _BLOCK_ROWS pairs (one
        float32 matmul mod p, or one gather per row) and finds the products
        among its bodies.  A subgroup multiplies in its root and maps back
        through its sorted root_rows.  A quotient multiplies the
        representatives in its cover (QuotientGroup._products).  An
        automorphism table gathers its stacked images and finds the
        products' generator images among its codes.  Any other table
        multiplies its objects a pair at a time.
        """
        xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
        if self.parent is not None:
            at = self.root_rows
            return _find(at, self.root._products(at[xs], at[ys]))
        if not len(xs):
            return np.empty(0, dtype=np.intc)
        table = self._product_table()
        if table is not None:
            return table[ys, xs].astype(np.intc)
        bodies = self._bodies
        if bodies is not None:
            return np.concatenate([
                _find(bodies, self._proto._pair_products(bodies[xs[start:start + _BLOCK_ROWS]],
                                                         bodies[ys[start:start + _BLOCK_ROWS]]))
                for start in range(0, len(xs), _BLOCK_ROWS)])
        if self._domain is not None:
            images, gen_idx = self._images, self._domain._gens
            return _find(self._codes, _image_codes(self._domain, images[xs[:, None],
                                                                       images[ys[:, None], gen_idx]]))
        els = self.elements
        return self._lookup([els[i] * els[j] for i, j in zip(xs.tolist(), ys.tolist())])

    def _powers(self, xs: np.ndarray, k) -> np.ndarray:
        """[index(elements[x] ** k) for x in xs], k one count or one per x, by
        squaring from the lowest set bit of each k: at most two kernel calls
        per bit of the largest k."""
        k = np.array(np.broadcast_to(k, np.shape(xs)), dtype=np.int64)
        base = np.array(xs, dtype=np.intp)
        out = np.full(len(base), self._identity_row, dtype=np.intp)
        started = np.zeros(len(base), dtype=bool)
        while True:
            odd = (k & 1).astype(bool)
            more = odd & started
            if more.any():
                out[more] = self._products(out[more], base[more])
            first = odd & ~started
            out[first] = base[first]
            started |= first
            k >>= 1
            live = k > 0
            if not live.any():
                return out
            base[live] = self._products(base[live], base[live])

    def _inverses(self, xs: np.ndarray) -> np.ndarray:
        """The indices of the inverses x^(order - 1) of the elements xs, each
        found once and kept in the table's index dtype.  A row not yet found
        holds the identity's row, which is no other element's inverse."""
        inv = self._cache.get("inverses")
        if inv is None:
            inv = self._cache["inverses"] = np.full(self.order, self._identity_row,
                                                    dtype=_index_dtype(self.order))
        todo = np.zeros(self.order, dtype=bool)
        todo[xs] = True
        todo &= inv == self._identity_row
        todo[self._identity_row] = False
        todo = todo.nonzero()[0]
        if len(todo):
            inv[todo] = self._powers(todo, self._orders(todo) - 1)
        return inv[xs]

    def _conjugates(self, xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """The indices of g^-1 x g for every x in xs and g in gs, x-major."""
        xs, gs = np.repeat(xs, len(gs)), np.tile(gs, len(xs))
        return self._products(self._products(self._inverses(gs), xs), gs)

    def _commutators(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The indices of [x, y] = x^-1 y^-1 x y for every x in xs and y in
        ys, x-major."""
        xs, ys = np.repeat(xs, len(ys)), np.tile(ys, len(xs))
        return self._products(self._products(self._inverses(xs), self._inverses(ys)),
                              self._products(xs, ys))

    def _orders(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The orders of the elements at the given rows, or of all, as
        int64s.  A root keeps them in one array, 0 where not yet known (the
        identity's is 1 from the start), and fills the rows asked for; a
        subgroup reads its root's rows."""
        if self.parent is not None:
            return self.root._orders(self.root_rows if rows is None else self.root_rows[rows])
        orders = self._cache.get("orders")
        if orders is None:
            orders = self._cache["orders"] = np.zeros(self.order, dtype=np.int64)
            orders[self._identity_row] = 1
        todo = (orders == 0).nonzero()[0] if rows is None else rows[orders[rows] == 0]
        if len(todo):
            rule = _cycle_orders if self._domain is not None else _prime_power_orders
            orders[todo] = rule(self, todo)
        return orders if rows is None else orders[rows]

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
        return math.lcm(*self._orders().tolist())

    def order_stats(self) -> Dict[int, int]:
        stats: Dict[int, int] = {}
        for k in self._orders().tolist():
            stats[k] = stats.get(k, 0) + 1
        return stats

    # -- subgroups -------------------------------------------------------

    def lies_in(self, G: "GroupTable") -> bool:
        """Is this table G, or cut from G through a chain of parents?"""
        H: Optional[GroupTable] = self
        while H is not None and H is not G:
            H = H.parent
        return H is G

    @functools.cached_property
    def trivial_subgroup(self) -> "GroupTable":
        return _subgroup_at(self, np.arange(self.order) == self._identity_row)

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, p={self.p})"


def _kept(owner, key: Hashable, build: Callable[[], object]) -> object:
    """owner._cache[key], made by build() on the first call with the key and
    kept while the owner, a table or a pair, lives; a failed build keeps nothing."""
    if key not in owner._cache:
        owner._cache[key] = build()
    return owner._cache[key]


def _key_in(G: GroupTable, H: GroupTable) -> tuple:
    """H as part of a key kept on G: its packed mask over G's rows, and its
    generators, which are H's rows, so the mask's set bits in order."""
    return np.packbits(_inside(H, G)).tobytes(), tuple(H._gens.tolist())


def _rows_in(G: GroupTable, H: GroupTable, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """G's rows of H's elements at `rows` (all when None), read off their
    root rows, or looked up when H has another root; ValueError for one
    outside G."""
    if H.root is not G.root:
        return G._rows(H.elements if rows is None else map(H.elements.__getitem__, rows))
    try:
        return _find(G.root_rows, H.root_rows if rows is None else H.root_rows[rows]).astype(np.intp)
    except KeyError:
        raise ValueError("element does not belong to this group") from None


def _inside(H: GroupTable, G: GroupTable) -> np.ndarray:
    """Which of G's rows lie in H, as a mask, read off their root rows, or
    looked up in H when H has another root."""
    if H.root is not G.root:
        return np.fromiter(map(H.__contains__, G.elements), bool, G.order)
    mask = np.zeros(H.root.order, dtype=bool)
    mask[H.root_rows] = True
    return mask[G.root_rows]


def _prime_power_orders(T: GroupTable, rows: np.ndarray) -> np.ndarray:
    """The orders of the elements at rows: for each prime r with |T| = r^a m,
    r prime to m, the r-part of x's order is that of x^m, found by at most a
    r-th powers through _powers."""
    orders = np.ones(len(rows), dtype=np.int64)
    e, rest, r = T._identity_row, T.order, 2
    while rest > 1:
        if rest % r:
            r += 1
            continue
        a, m = _p_split(T.order, r)
        rest //= r ** a
        z = T._powers(rows, m)
        for _ in range(a):
            live = z != e
            if not live.any():
                break
            orders[live] *= r
            z[live] = T._powers(z[live], r)
    return orders


def _cycle_orders(A: GroupTable, rows: np.ndarray) -> np.ndarray:
    """The orders of the automorphisms at rows of the table A: the lcm of
    their cycle lengths through the domain's generators (Automorphism.order),
    followed for every row at once by gathers from the stacked images.
    NotBijective once a walk passes |G| steps."""
    images = A._images
    orders = np.ones(len(rows), dtype=np.int64)
    for s in A._domain._gens.tolist():
        length = np.ones(len(rows), dtype=np.int64)
        live, at = np.arange(len(rows)), images[rows, s]
        for _ in range(A._domain.order):  # no cycle is longer than |G|
            moving = at != s
            live, at = live[moving], at[moving]
            if not len(live):
                break
            length[live] += 1
            at = images[rows[live], at]
        else:
            raise _not_a_permutation()
        orders = np.lcm(orders, length)
    return orders


def _not_a_permutation() -> NotBijective:
    return NotBijective("an automorphism's images are not a permutation: "
                        "a cycle walk passed |G| steps")


def _opaque_rows(rows: np.ndarray) -> np.ndarray:
    """Each row as one void value; void values compare like their bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()


def _image_codes(domain: GroupTable, images: np.ndarray) -> np.ndarray:
    """One value for each row of indices into the domain (a map's images of
    the domain's generators), ordered like the rows and so like the maps'
    keys: the row as a number in base |domain| when that fits an int64,
    else its big-endian bytes as one void value."""
    if domain.order ** images.shape[1] < 1 << 62:
        return images.astype(np.int64) @ domain.order ** np.arange(
            images.shape[1] - 1, -1, -1, dtype=np.int64)
    return _opaque_rows(images.astype(">i4"))


def _find(rows: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The positions of the entries of `wanted` among `rows`, as C ints;
    KeyError if one is missing.  `rows` holds ascending values, or rows
    whose bytes ascend."""
    pos = (rows.searchsorted(wanted) if rows.ndim == 1
           else _opaque_rows(rows).searchsorted(_opaque_rows(wanted)))
    # compared as numbers (an equality test of void values is far slower);
    # an entry above every row is compared with the last, and differs
    if not (rows.take(pos, axis=0, mode="clip") == wanted).all():
        raise KeyError("a product lies outside the table")
    return pos.astype(np.intc)


def close(generators: Sequence[Element], *, cap: int = DEFAULT_CLOSURE_CAP,
          p: Optional[int] = None) -> GroupTable:
    """Enumerate the group generated by `generators`, for elements that have
    no table yet, by a breadth-first closure over arrays (_breadth_first).
    Matrices and permutations are rows of key bodies, multiplied by
    _pair_products.  An automorphism is the row of its images of the
    domain's generators, s * a's is s.images[a's]; once the closure is under
    `cap`, each full map is written, from its parent's, into the table's
    stack.  Elements with empty key bodies are each the identity."""
    if not generators:
        raise ValueError("need at least one generator")
    T, first, k = GroupTable.__new__(GroupTable), generators[0], len(generators)
    if isinstance(first, Automorphism):
        dom = first.domain
        if not all(isinstance(a, Automorphism) and a.domain is dom for a in generators):
            raise BackendMismatch("automorphisms act on different groups")
        dtype = _index_dtype(dom.order)
        maps = np.array([a.images for a in generators], dtype=dtype)
        heads, edges = _breadth_first(dom._gens.astype(dtype)[None],
                                      lambda js, xs: maps[js[:, None], xs],
                                      lambda xs: _image_codes(dom, xs), k, cap)
        rows, (parent, via) = T._root_maps(dom, heads, p, generators), np.divmod(edges, k)
        T._images[rows[0]] = np.arange(dom.order)
        # in the order reached, so each parent's row is written before its own
        for row, above, j in zip(rows[1:].tolist(), rows[parent].tolist(), via.tolist()):
            maps[j].take(T._images[above], out=T._images[row])
        return T
    identity = first.identity_like()
    bodies = _key_bodies([identity, *generators])
    if bodies is None:
        if any(g != identity for g in generators):
            raise BackendMismatch("generators differ in backend, size or prime")
        return GroupTable([identity], generators, p=p)
    rows, _ = _breadth_first(bodies[:1], lambda js, xs: identity._pair_products(bodies[1 + js], xs),
                             _opaque_rows, k, cap)
    T._root(rows, (), identity, p, generators)
    return T


def _breadth_first(start: np.ndarray, step: Callable, code: Callable, k: int,
                   cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """The rows reached from the row `start` by left products with k
    generators, a layer at a time: step(js, xs) is the rows s_j * x, asked
    for _BLOCK_ROWS pairs at a time, and code(rows) tells rows apart, an int
    or bytes each.  Returns the rows in the order reached and the edge
    k * parent + j that first reached each after the start; CapExceeded once
    more than `cap` rows are found."""
    seen, layers, edges = set(code(start).tolist()), [start], []
    while len(layers[-1]):
        first = len(seen) - len(layers[-1])  # the layer's first index
        at, js = np.divmod(np.arange(len(layers[-1]) * k), k)  # x-major
        ys = np.concatenate([step(js[i:i + _BLOCK_ROWS], layers[-1][at[i:i + _BLOCK_ROWS]])
                             for i in range(0, len(js), _BLOCK_ROWS)])
        # the candidates not seen before, each once (set.add returns None)
        fresh = np.array([i for i, c in enumerate(code(ys).tolist())
                          if c not in seen and not seen.add(c)], dtype=np.intp)
        if len(seen) > cap:
            raise CapExceeded(f"closure exceeded cap of {cap} elements")
        edges.append(fresh + k * first)
        layers.append(ys[fresh])
    return np.concatenate(layers), np.concatenate(edges)


def _grow(G: GroupTable, inside: np.ndarray, held: List[int],
          seeds: np.ndarray) -> List[int]:
    """_schreier_levels from the mask `inside` = <held>, a step per seed in
    key order, each dropped when already inside; returns held and seeds kept."""
    seeds = np.bincount(seeds, minlength=G.order).nonzero()[0]  # ascending, once each
    steps = ([s] for s in seeds.tolist() if not inside[s])
    gens = list(held)
    for _ in _schreier_levels(G._right_column, inside, steps, gens):
        pass  # each level is freed as its step ends
    return gens


def _subgroup_at(G: GroupTable, inside: np.ndarray, gen_rows: Sequence[int] = ()) -> GroupTable:
    """The subgroup of G on the mask `inside`, generated by the elements at
    gen_rows, or by every non-identity element when there are none: the one
    subgroup constructor.  It is its rows of G's root, in G's order, so in
    key order, and its generators' and identity's rows among them."""
    rows = inside.nonzero()[0]
    H = GroupTable.__new__(GroupTable)
    H.parent, H.root, H.root_rows = G, G.root, G.root_rows[rows]
    H.p, H._cache, H.elements = G.p, {}, _Elements(H)
    H._identity_row = int(np.searchsorted(rows, G._identity_row))
    H._gens = (np.searchsorted(rows, gen_rows) if len(gen_rows)
               else (rows != G._identity_row).nonzero()[0])
    return H


def subgroup_generated(G: GroupTable, seeds: Iterable[Element],
                       H: Optional[GroupTable] = None) -> GroupTable:
    """<H, seeds> inside G, grown from its subgroup H (from the identity when
    H is None) as a membership mask.  Seeds, elements of G or an array of
    their rows, are taken in key order and dropped when already in the
    group grown so far, so the generators are H's, then the seeds kept."""
    seeds = G._rows(seeds)
    inside = np.zeros(G.order, dtype=bool)
    held = _rows_in(G, H, H._gens).tolist() if H is not None else []
    inside[_rows_in(G, H) if H is not None else G._identity_row] = True
    return _subgroup_at(G, inside, _grow(G, inside, held, seeds))


def is_normal(G: GroupTable, H: GroupTable) -> bool:
    conj = G._conjugates(_rows_in(G, H, H._gens), G._gens)
    return bool(_inside(H, G)[conj].all())


def normal_closure(G: GroupTable, seeds: Iterable[Element],
                   maps: Sequence["Automorphism"] = ()) -> GroupTable:
    """Smallest normal subgroup of G containing the seeds and invariant under
    the automorphisms in `maps`: the fixpoint of adding the conjugates of H's
    generators by G's generators and their images under the maps.  Generators
    suffice: H = <S> is normal and invariant exactly when S^g and a(S) lie in H
    for the generators g of G and the maps a.  H stays a mask until the
    fixpoint, and grows as subgroup_generated grows it (seeds as there)."""
    seeds = G._rows(seeds)
    if any(a.domain is not G for a in maps):
        raise ValueError("acting automorphism is not defined on the given group")
    inside = np.arange(G.order) == G._identity_row
    gens, done = _grow(G, inside, [], seeds), None
    while gens != done:  # _grow keeps no seed that lies inside
        done, hs = gens, np.array(gens, dtype=np.intp)
        gens = _grow(G, inside, gens, np.concatenate([G._conjugates(hs, G._gens),
                                                       *(a.images[hs] for a in maps)]))
    return _subgroup_at(G, inside, gens)


def commutator_subgroup(G: GroupTable, X: GroupTable, Y: GroupTable) -> GroupTable:
    """[X, Y]: the normal closure in G of [x, y] for the generators x of X and
    y of Y.  Modulo that closure the generators of X and Y commute, so it holds
    every [x, y] with x in X and y in Y (Holt–Eick–O'Brien, *Handbook of
    Computational Group Theory*, 2005).  When X and Y are both normal every
    generator of [X, Y] lies in X ∩ Y, and that is asserted.  Kept on G,
    keyed by X and Y (_key_in), once asserted.
    """

    def build() -> GroupTable:
        H = normal_closure(G, G._commutators(_rows_in(G, X, X._gens), _rows_in(G, Y, Y._gens)))
        if (not (_inside(X, H)[H._gens].all() and _inside(Y, H)[H._gens].all())
                and is_normal(G, X) and is_normal(G, Y)):
            raise AssertionError("[X, Y] left X ∩ Y for normal X, Y")
        return H
    return _kept(G, ("commutator", *_key_in(G, X), *_key_in(G, Y)), build)


def center(G: GroupTable) -> GroupTable:
    return _kept(G, "center", lambda: centralizer(G, G._gens))


def centralizer(G: GroupTable, S: Iterable[Element]) -> GroupTable:
    """The elements x with xs = sx for every s in S (elements or an array of
    rows), by one kernel call over both sides of every pair."""
    S, every = G._rows(S), np.arange(G.order)
    xs, ss = np.tile(every, len(S)), np.repeat(S, G.order)
    left, right = G._products(np.concatenate([xs, ss]),
                              np.concatenate([ss, xs])).reshape(2, len(S), G.order)
    return _subgroup_at(G, (left == right).all(axis=0))


class Automorphism(Element):
    """A bijective homomorphism G -> G as an index array: images[i] is the
    index of the image of domain.elements[i], in the domain's index dtype,
    so that a table's objects are views of its stack's rows.

    The key is a tag byte, which no element key starts with, followed by the
    generators' image keys.  Those all have one length, so automorphisms sort
    by their tuple of generator images.
    """

    __slots__ = ("domain", "images")

    def __init__(self, domain: GroupTable, images: Sequence[int]):
        self.domain, self.images = domain, np.asarray(images, dtype=_index_dtype(domain.order))
        self.images.setflags(write=False)
        self.key = bytes((_TAG_AUT,)) + b"".join(
            map(domain._row_key, self.images[domain._gens].tolist()))
        self._inv = self._ord = None

    def __call__(self, x: Element) -> Element:
        dom = self.domain
        try:
            i = dom.index_of(x)
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
        generators generate the domain (the key relies on that too).
        NotBijective once a walk passes |G| steps."""
        k = self._ord
        if k is None:
            image, bound = self.images.item, self.domain.order
            k = 1
            for start in self.domain._gens.tolist():
                i, length = image(start), 1
                while i != start:
                    if length == bound:
                        raise _not_a_permutation()
                    i, length = image(i), length + 1
                k = math.lcm(k, length)
            self._ord = k
        return k

    def __repr__(self) -> str:
        return f"Automorphism(on order-{self.domain.order} group)"


def _schreier_levels(column: Callable[[int], np.ndarray], inside: np.ndarray,
                     steps: Iterable[Sequence[int]], gens: List[int]) -> Iterator[tuple]:
    """The one closure that grows a membership mask layer by layer: a
    Schreier tree of <gens>, grown breadth first from the subgroup H_0 in
    the mask `inside`, which the indices in `gens` generate, a step at a time.
    column(j) is [index(x * e_j) for every x]; step d adds the generators
    steps[d] to `gens`, and `inside` grows in place to H_d = <H_0,
    steps[0..d]>.  Steps are read lazily, so a step source may pick its
    generators from the mask as it stands.  A step's generators lie in the
    mask once it ends, the identity's products with them; AssertionError
    when a wrong column (a wrapped index array) leaves one out, as a step
    source that picks indices outside the mask would pick it forever.

    Yields a level (layers, cols, new, size) as each step ends, so a caller
    that drops the levels frees each one before the next step: a layer
    (xs, j0, reach) per breadth-first round, the columns of gens, the
    elements added and |H_d|.  A layer takes x*g_j for x in xs and j >= j0,
    generator-major (H_{d-1} by the step's generators, then each layer's new
    elements by all), and reach the positions of its tree edges among them,
    one first reaching each new element.
    """
    cols, size = [column(j) for j in gens], int(inside.sum())
    first = np.empty(len(inside), dtype=np.intp)  # a position reaching each new element
    for step in steps:
        xs, j0 = inside.nonzero()[0].astype(np.intc), len(gens)
        gens += step
        cols += map(column, step)
        layers, new = [], []
        while len(xs):
            ys = np.concatenate([c[xs] for c in cols[j0:]])
            reach = (~inside[ys]).nonzero()[0]
            first[ys[reach]] = reach
            reach = reach[first[ys[reach]] == reach]
            added = ys[reach]
            inside[added] = True
            layers.append((xs, j0, reach))
            new.append(added)
            xs, j0 = added, 0
        if not inside[step].all():
            raise AssertionError("a generator is outside the group it generates: "
                                 "a right column is wrong")
        size += sum(map(len, new))
        yield layers, cols[:], np.concatenate(new), size


def _extend_block(G: GroupTable, F: np.ndarray, images: np.ndarray,
                  level: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Extend each row of F over one level of _schreier_levels, in place, a
    breadth-first layer at a time.

    Row r of the index array F maps H_{d-1} by index; images[r, j] is the
    index of its image of g_j, for each generator g_j of H_d.  A layer's
    edges are x -> x*g_j = y for its xs and its generators j >= j0, the
    products read again from the level's columns.  Its tree edges set
    f(y) = f(x)*images[r, j] for every row by one gather through the right
    columns of the images that occur, stacked (one map reads each image's
    column in place instead, a gather per generator); then every y of the
    layer has its image, and the layer's other edges are checked (edges of
    old generators inside H_{d-1} were checked one level down).  No list of
    a level's edges is held.
    A map of H_d that agrees with f(x*g_j) = f(x)*f(g_j) on the edges of
    every level up to d, with H_0 trivial, is a homomorphism (Holt–Eick–
    O'Brien, *Handbook of Computational Group Theory*, 2005, on Schreier
    trees).  Returns two row masks: every edge agrees (f is a homomorphism
    on H_d), and no new element maps to the identity (so a homomorphism
    injective on the old subgroup is injective).
    """
    layers, cols, new, _ = level
    if len(F) > 1:
        occurs = np.bincount(images.ravel(), minlength=G.order).astype(bool)
        table = np.concatenate([G._right_column(m) for m in occurs.nonzero()[0].tolist()])
        offsets = (occurs.cumsum() - 1)[images] * G.order
    else:
        columns = [G._right_column(m) for m in images[0].tolist()]

    def image(xs: np.ndarray, js: np.ndarray) -> np.ndarray:
        """f(x)*images[r, j] for each row r and each edge (x, j)."""
        if len(F) > 1:
            return table[offsets[:, js] + F[:, xs]]
        out = np.empty((1, len(xs)), dtype=F.dtype)
        for j in np.bincount(js).nonzero()[0].tolist():
            at = js == j
            out[0, at] = columns[j][F[0, xs[at]]]
        return out

    hom = np.ones(len(F), dtype=bool)
    # at most |G| edges and _BLOCK_ROWS^2 cells per comparison, so that its
    # temporaries stay near the size of the maps
    step = max(1, min(G.order, _BLOCK_ROWS * _BLOCK_ROWS // len(F)))
    for xs, j0, reach in layers:
        ys = np.concatenate([c[xs] for c in cols[j0:]])
        js, at = np.divmod(reach, len(xs))
        F[:, ys[reach]] = image(xs[at], js + j0)
        other = np.ones(len(ys), dtype=bool)
        other[reach] = False
        (js, at), ys = np.divmod(other.nonzero()[0], len(xs)), ys[other]
        for start in range(0, len(ys), step):
            part = slice(start, start + step)
            hom &= (image(xs[at[part]], js[part] + j0) == F[:, ys[part]]).all(axis=1)
    return hom, (F[:, new] != G._identity_row).all(axis=1)


def automorphism_from_images(G: GroupTable, gens: Sequence[Element],
                             images: Sequence[Element]) -> Automorphism:
    """Extend generator images over a Schreier tree of <gens>, verifying both
    well-definedness (every edge consistent) and bijectivity.  The generators
    and their images are elements of G, or arrays of their rows."""
    if len(gens) != len(images):
        raise ValueError(f"{len(gens)} generators but {len(images)} images")
    gen_idx = G._rows(gens).tolist()
    row = G._rows(images).astype(np.int32)[None]
    F = np.full((1, G.order), G._identity_row, dtype=_index_dtype(G.order))
    hom = injective = np.ones(1, dtype=bool)
    size = 1  # <> is the trivial group
    if len(gen_idx):  # one level, with every generator, grown from the identity
        inside = np.arange(G.order) == G._identity_row
        (level,) = _schreier_levels(G._right_column, inside, [gen_idx], [])
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
    return Automorphism(G, G._conjugates(np.arange(G.order), G._rows([g])))


def restrict_automorphism(a: Automorphism, H: GroupTable) -> Automorphism:
    """Restrict a to an A-invariant subgroup H, as an automorphism of H;
    invariance is checked on H's generators."""
    G = a.domain
    rows = _rows_in(G, H)
    if not _inside(H, G)[a.images[rows[H._gens]]].all():
        raise NotInvariant("subgroup is not invariant under the automorphism")
    return Automorphism(H, _rows_in(H, G, a.images[rows]))


def minimal_generating_sequence(G: GroupTable) -> Tuple[Element, ...]:
    """Greedy generating sequence: highest order first, ties by canonical key."""
    ranked = np.argsort(-G._orders(), kind="stable")
    H = subgroup_generated(G, ())
    while H.order < G.order:
        H = subgroup_generated(G, ranked[~_inside(H, G)[ranked]][:1], H)
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
    """G/N, with G its `cover`: coset_id, in this table's index dtype, holds
    at i the index in this table of the coset of cover.elements[i].

    Each coset's representative and key is its least member in key order,
    so coset ids follow the table's sorted order, and the row codes are the
    representatives' rows in the cover.  Every element is labelled
    with its least known coset mate: round t takes the least label over the
    right columns x -> x*n and x -> x*n^(2^t) of a generating set of N, then
    follows labels to their own labels, until no label moves (min-label
    propagation).  The squared columns make a cyclic N of order m settle in
    about log2(m) rounds.
    """

    def __init__(self, cover: GroupTable, N: GroupTable):
        self.cover = cover
        self.normal_subgroup = N
        inside = np.arange(cover.order) == cover._identity_row
        columns = [cover._right_column(j)
                   for j in _grow(cover, inside, [], _rows_in(cover, N, N._gens))]
        jumps, label = columns, np.arange(cover.order)
        while True:
            least = np.minimum.reduce([label, *(label[c] for c in columns + jumps)])
            least = least[least]
            if (least == label).all():
                break
            label, jumps = least, [c[c] for c in jumps]
        first = label == np.arange(cover.order)
        self.coset_id = (first.cumsum() - 1).astype(_index_dtype(int(first.sum())))[label]
        self._root(first.nonzero()[0], (), None, cover.p)
        self._identity_row = int(self.coset_id[cover._identity_row])
        self._gens = self.coset_id[cover._gens].astype(np.intp)

    def _codes_of(self, xs: List[Element]) -> np.ndarray:
        """The cover rows of cosets' representatives, and of cover elements."""
        return self.cover._lookup([x.rep if isinstance(x, Coset) else x for x in xs])

    def _make(self, row: int) -> Coset:
        return Coset(self.cover.elements[self._codes[row]], self)

    def _row_key(self, row: int) -> bytes:  # a coset's key is its representative's
        return self.cover._row_key(self._codes[row])

    def _products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The cosets of the products of the representatives, in the cover."""
        reps = self._codes
        return self.coset_id[self.cover._products(reps[xs], reps[ys])].astype(np.intc)

    def project(self, x: Element) -> Coset:
        """The coset of an element of the cover."""
        return self.elements[self.coset_id[self.cover.index_of(x)]]

    def preimage(self, S: GroupTable) -> GroupTable:
        """The full preimage in the cover of a subgroup of this quotient."""
        if not S.lies_in(self):
            raise ValueError("subgroup does not live in this quotient")
        return _subgroup_at(self.cover, _inside(S, self)[self.coset_id])

    def __repr__(self) -> str:
        return f"QuotientGroup(order={self.order} = {self.cover.order}/{self.normal_subgroup.order})"


def quotient(G: GroupTable, N: GroupTable) -> QuotientGroup:
    """G/N; raises NotNormal unless N is normal in G."""
    if not N.lies_in(G):
        raise ValueError("subgroup does not live in the given group")
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    return QuotientGroup(G, N)
