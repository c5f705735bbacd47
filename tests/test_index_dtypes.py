"""Every stored array of row indices against an int32 reference and against
`close`.

A table keeps rows of tables as index arrays: an automorphism table's stack
of images, the right columns, the inverses and a subgroup's root rows.  Each
is compared here, as values, with a reference that never reads it: the
columns and inverses with the rows of element objects' products and
inverses, a subgroup's root rows with the mask of its defining property.
An automorphism table's int32 copy of its stack must hold permutations of
the domain's rows, compose like the table's product kernel and give the
table's codes; and the table that `close` makes from its generators must
hold the same stack.

The inputs are the acting group of every built-in action spec, every
built-in `aut--*` group, the order-256 and order-257 cyclic groups (the
edges of one- and two-byte indices) with their Aut, and relabeled tables
(tests/test_relabeling.py).

Each array is kept in the narrowest dtype that holds the rows of the table
it indexes (groups._index_dtype): one byte up to 256 rows, two up to 65536.
Every table that a built-in entry's checks make is read for that after the
checks have run.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import relabelings

from pcentral import groups
from pcentral.actions import inner_action
from pcentral.autsearch import brute_force_aut
from pcentral.catalog import build_action, build_group
from pcentral.corpus import (
    _DEFAULT_AUT_ROWS,
    _DEFAULT_PAIRS,
    DEFAULT_CAPS,
    default_config,
    run_entry,
)
from pcentral.groups import _image_codes, _index_dtype, center, close, quotient

# the rows whose right columns are compared on a table of more than 64
# elements, besides its generators', spread over the table
_SPREAD = 4


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


def _columns(T):
    if T.order <= 64:
        return range(T.order)
    spread = np.linspace(0, T.order - 1, _SPREAD).astype(int).tolist()
    return sorted({*T._gens.tolist(), *spread})


def _assert_columns_and_inverses(T):
    """T's right columns and inverses, as int32, against its objects'."""
    els = list(T.elements)
    for j in _columns(T):
        want = T._rows([x * els[j] for x in els]).astype(np.int32)
        assert np.array_equal(T._right_column(j).astype(np.int32), want), j
    want = T._rows([x.inverse() for x in els]).astype(np.int32)
    assert np.array_equal(T._inverses(np.arange(T.order)).astype(np.int32), want)


def _assert_stack(A, pairs=2000):
    """A's stack against its int32 copy, its codes and `close`."""
    dom, ref = A._domain, A._images.astype(np.int32)
    assert ref.shape == (A.order, dom.order)
    assert (np.sort(ref, axis=1) == np.arange(dom.order, dtype=np.int32)).all()
    assert np.array_equal(A._codes, _image_codes(dom, ref[:, dom._gens]))
    rng = np.random.default_rng(A.order)
    xs, ys = rng.integers(0, A.order, (2, min(pairs, A.order ** 2)))
    # (x * y)(d) = x(y(d)), gathered in int32
    assert np.array_equal(ref[A._products(xs, ys)], np.take_along_axis(ref[xs], ref[ys], 1))
    B = close(list(A.generators), cap=A.order, p=A.p)
    assert B.order == A.order
    assert np.array_equal(B._images.astype(np.int32), ref)
    assert np.array_equal(B._codes, A._codes)


def _assert_subgroups(G):
    """The center's and a quotient's tables; the center's root rows against
    the mask of the elements that commute with G's generators."""
    Z = center(G)
    gens = G.generators
    mask = [all(x * s == s * x for s in gens) for x in G.elements]
    assert np.array_equal(Z.root_rows.astype(np.int32),
                          G.root_rows[np.flatnonzero(mask)].astype(np.int32))
    _assert_columns_and_inverses(Z)
    _assert_columns_and_inverses(quotient(G, Z))


@pytest.mark.parametrize("gspec,aspec", sorted(set(_DEFAULT_PAIRS)))
def test_acting_groups_match_their_references(gspec, aspec):
    G = _group(gspec)
    A = build_action(G, aspec).A
    _assert_columns_and_inverses(G)
    _assert_columns_and_inverses(A)
    _assert_stack(A)


@pytest.mark.parametrize("spec", _DEFAULT_AUT_ROWS)
def test_searched_aut_tables_match_their_references(spec):
    G = _group(spec)
    A = brute_force_aut(G).perm_group
    _assert_columns_and_inverses(G)
    _assert_subgroups(G)
    _assert_columns_and_inverses(A)
    _assert_stack(A)


@pytest.mark.parametrize("spec,aut_order", [("cyclic(2,8)", 128), ("cyclic(257,1)", 256)])
def test_the_index_width_edges_match_their_references(spec, aut_order):
    # 256 rows fit one byte and 257 need two; Aut(C_257) has 256 maps of
    # 257 rows each
    G = _group(spec)
    A = brute_force_aut(G).perm_group
    assert A.order == aut_order
    _assert_columns_and_inverses(G)
    _assert_subgroups(G)
    _assert_columns_and_inverses(A)
    _assert_stack(A)
    _assert_stack(inner_action(G).A)


RELABELED_SPECS = ("heisenberg(3)", "dihedral(16)", "quaternion(8)", "ut(4,2)",
                   "elementary_abelian(2,4)", "wreath_cp_cp(2)", "cyclic(3,2)")


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_relabeled_tables_match_their_references(data):
    G = data.draw(relabelings(_group(data.draw(st.sampled_from(RELABELED_SPECS)))))
    _assert_columns_and_inverses(G)
    _assert_subgroups(G)
    _assert_stack(inner_action(G).A)
    if G.order <= 27:
        _assert_stack(brute_force_aut(G).perm_group)


def _assert_index_dtypes(T):
    """T's kept index arrays in the index dtype of the table they index:
    its right columns and inverses in its own, its root rows in its
    root's, its stack and its objects' images in its domain's."""
    own = _index_dtype(T.order)
    assert T.root_rows.dtype == _index_dtype(T.root.order)
    for column in T._cache.get("right_columns", {}).values():
        assert column.dtype == own
    if "inverses" in T._cache:
        assert T._cache["inverses"].dtype == own
    if T._domain is not None:
        images = _index_dtype(T._domain.order)
        assert T._images.dtype == images
        assert all(a.images.dtype == images for a in T._made.values())


@pytest.mark.parametrize("entry", default_config().entries, ids=lambda e: e.entry_id)
def test_every_kept_index_array_has_its_tables_index_dtype(entry, monkeypatch):
    # every table an entry's checks make (each root and subgroup makes its
    # element sequence), each read after they have run
    made = []

    def recording(elements, table, real=groups._Elements.__init__):
        made.append(table)
        real(elements, table)
    monkeypatch.setattr(groups._Elements, "__init__", recording)
    run_entry(entry, dict(DEFAULT_CAPS))
    assert made
    for T in made:
        _assert_index_dtypes(T)
