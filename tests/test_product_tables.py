"""A root's products and right columns against the body kernel.

On a table of matrices or permutations, `GroupTable._products` and
`GroupTable._right_column` must give what the key-body kernel gives: the
paired bodies multiplied by `_pair_products` and found among the table's
bodies by `_find`.  That reference is computed here straight from the bodies,
so it reads no column, tree or table the group keeps.

The inputs are every built-in group spec, relabeled tables
(tests/test_relabeling.py), the order-256 and order-257 cyclic groups (the
edges of one- and two-byte indices), a table whose generators generate less
than it holds, the elementary abelian groups of the catalog and of the sigma
example at p = 2, 3, 5, and tables that are not closed, where a product
outside the table must still raise KeyError.

A matrix or permutation root of at most 256 elements keeps its right
columns as the rows of one multiplication table, and no other table keeps
one; the elementary abelian groups of the catalog are born with their
generators' columns.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import relabelings

from pcentral.actions import inner_action
from pcentral.catalog import build_group
from pcentral.corpus import default_config
from pcentral.elements import FpMatrix, Permutation
from pcentral.groups import GroupTable, _find, _index_dtype, center, quotient
from pcentral.series import lower_central_series

# random pairs compared on each table
_PAIRS = 2000
# the rows whose right columns are compared on a table of more than 256
# elements, besides its generators', spread over the table
_SPREAD = 6

BUILT_IN_SPECS = sorted({e.group_spec for e in default_config().entries if e.group_spec})
ELEMENTARY_SPECS = sorted({*(s for s in BUILT_IN_SPECS if s.startswith("elementary_abelian")),
                           *(f"elementary_abelian({p},{p + 1})" for p in (2, 3, 5))})


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


def _kernel(T, xs, ys):
    """The rows of the products of T's elements at xs and ys, by the body
    kernel alone."""
    bodies = T._bodies
    return _find(bodies, T._proto._pair_products(bodies[xs], bodies[ys]))


def _kernel_column(T, j):
    return _kernel(T, np.arange(T.order), np.full(T.order, j))


def _columns(T):
    if T.order <= 256:
        return range(T.order)
    spread = np.linspace(0, T.order - 1, _SPREAD).astype(int).tolist()
    return sorted({*T._gens.tolist(), *spread})


def _assert_matches_kernel(T):
    """T's products on random pairs and its right columns, in T's index
    dtype, against the body kernel's."""
    rng = np.random.default_rng(T.order)
    xs, ys = rng.integers(0, T.order, (2, _PAIRS))
    assert np.array_equal(T._products(xs, ys), _kernel(T, xs, ys))
    for j in _columns(T):
        column = T._right_column(j)
        assert column.dtype == _index_dtype(T.order)
        assert np.array_equal(column, _kernel_column(T, j)), j
    # products read again once every column has been asked for
    assert np.array_equal(T._products(ys, xs), _kernel(T, ys, xs))


@pytest.mark.parametrize("spec", BUILT_IN_SPECS)
def test_built_in_tables_multiply_like_the_kernel(spec):
    _assert_matches_kernel(build_group(spec))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_relabeled_tables_multiply_like_the_kernel(data):
    spec = data.draw(st.sampled_from([s for s in BUILT_IN_SPECS if _group(s).order <= 256]))
    _assert_matches_kernel(data.draw(relabelings(_group(spec))))


@pytest.mark.parametrize("spec,dtype", [("cyclic(2,8)", np.uint8), ("cyclic(257,1)", np.uint16)])
def test_the_index_width_edges_multiply_like_the_kernel(spec, dtype):
    # 256 rows fit one byte and 257 need two
    T = build_group(spec)
    assert _index_dtype(T.order) == dtype
    _assert_matches_kernel(T)


def test_rows_the_generators_do_not_reach_multiply_like_the_kernel():
    # C_4 x C_2 with one generator of order 4: the rows outside <g> are
    # reached by no Schreier tree of the generators
    G = build_group("direct_product(cyclic(2,2), cyclic(2,1))")
    g = next(x for x in G.elements if x.order() == 4)
    T = GroupTable(list(G.elements), [g], p=2)
    assert T.order == 8
    _assert_matches_kernel(T)


@pytest.mark.parametrize("x", [Permutation.identity(3), FpMatrix.identity(3, 2)],
                         ids=["permutation", "matrix"])
def test_a_trivial_table_multiplies_like_the_kernel(x):
    # no generators: its one row is the identity's
    T = GroupTable([x])
    _assert_matches_kernel(T)
    assert T._cache["product_table"].tolist() == [[0]]


@pytest.mark.parametrize("spec", ELEMENTARY_SPECS)
def test_elementary_abelian_generator_columns_are_the_kernels(spec):
    T = build_group(spec)
    every = np.arange(T.order)
    for g in T._gens.tolist():
        column = T._right_column(g)
        assert column.dtype == _index_dtype(T.order)
        assert np.array_equal(column, _kernel_column(T, g))
        assert np.array_equal(column, T._products(every, np.full(T.order, g)))


def _not_closed():
    """Two tables that hold a generator but not its square."""
    a = Permutation.from_cycles(3, [(0, 1, 2)])
    m = FpMatrix(3, np.array([[1, 1], [0, 1]]))
    return [GroupTable([a.identity_like(), a], [a], p=3),
            GroupTable([m.identity_like(), m], [m], p=3)]


@pytest.mark.parametrize("T", _not_closed(), ids=["permutation", "matrix"])
def test_a_table_that_is_not_closed_raises_on_a_product_outside_it(T):
    e, g = T._identity_row, int(T._gens[0])
    assert T._products([e, g], [g, e]).tolist() == [g, g]
    with pytest.raises(KeyError):
        T._products([g], [g])
    with pytest.raises(KeyError):
        T._right_column(g)
    # a product inside the table still reads, and one outside still raises
    assert T._products([g, e], [e, e]).tolist() == [g, e]
    with pytest.raises(KeyError):
        T._products([e, g], [g, g])


@pytest.mark.parametrize("spec", ["heisenberg(3)", "elementary_abelian(2,4)", "cyclic(2,8)",
                                  "wreath_cp_cp(3)"])
def test_a_one_byte_root_keeps_its_right_columns_as_its_tables_rows(spec):
    T = build_group(spec)
    columns = [T._right_column(j) for j in range(T.order)]
    table = T._cache["product_table"]
    assert table.shape == (T.order, T.order) and table.dtype == np.uint8
    assert all(column.base is table for column in columns)
    assert all(column.base is table for column in T._cache["right_columns"].values())


def test_a_one_byte_root_multiplies_through_its_generators_columns_alone(monkeypatch):
    # heisenberg(3) has two generators, of 27 rows each: one block of the
    # body kernel each, and every later product is read off the table
    G = build_group("heisenberg(3)")
    calls = []
    real = FpMatrix._pair_products

    def counting(self, lefts, rights):
        calls.append(len(lefts))
        return real(self, lefts, rights)
    monkeypatch.setattr(FpMatrix, "_pair_products", counting)
    assert lower_central_series(G).orders() == [27, 3, 1, 1]
    assert G.exponent() == 3
    assert calls == [27, 27]


def test_no_other_table_keeps_a_product_table():
    # over 256 elements, subgroups, quotients, automorphism tables and
    # tables that are not closed multiply through their kernels
    big, small = build_group("cyclic(257,1)"), build_group("heisenberg(3)")
    Z = center(small)
    tables = [big, build_group("elementary_abelian(3,6)"), Z, quotient(small, Z),
              inner_action(small).A, *_not_closed()]
    for T in tables:
        e = T._identity_row
        assert T._products([e], [e]).tolist() == [e]
        assert T._cache.get("product_table") is None


def test_elementary_abelian_groups_are_born_with_their_generators_columns(arithmetic):
    # E(3,6) has 729 rows, so no product table: its generators' columns are
    # made by digit arithmetic and read without a kernel row
    T = build_group("elementary_abelian(3,6)")
    gens = T._gens.tolist()
    assert sorted(T._cache["right_columns"]) == sorted(gens)
    for g in gens:
        T._right_column(g)
    assert arithmetic["rows"] == 0
