"""Table kernels against the element-object path.

A group table's right-multiplication columns, its elements' orders and its
exponent must equal what multiplying element objects one at a time gives, on
catalog groups of both backends: as built, with matrix groups conjugated by a
random T in GL(n, p), and with permutation groups moved onto up to 700
points, where an image no longer fits one key byte.  A table over a set that
is not closed under its products has no column for an element whose product
leaves it.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import _relabeled, relabelings

from pcentral.catalog import build_group
from pcentral.elements import FpMatrix, Permutation, decode_element
from pcentral.groups import GroupTable

SPECS = (
    "elementary_abelian(2,4)",
    "elementary_abelian(5,2)",
    "heisenberg(3)",
    "ut(4,2)",
    "direct_product(ut(3,2),elementary_abelian(2,1))",
    "cyclic(3,2)",
    "dihedral(16)",
    "wreath_cp_cp(3)",
    "sl2_3()",
    "direct_product(quaternion(8),cyclic(3,1))",
)


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


@st.composite
def fresh_tables(draw):
    """A catalog group rebuilt from new element objects, so that no order or
    column is cached on them: relabeled, or decoded from its keys."""
    G = _group(draw(st.sampled_from(SPECS)))
    if draw(st.booleans()):
        return draw(relabelings(G))
    return _relabeled(G, lambda x: decode_element(x.key))


@settings(max_examples=30, deadline=None)
@given(fresh_tables(), st.data())
def test_right_columns_match_object_products(G, data):
    for j in data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4)):
        g = G.elements[j]
        assert list(G._right_column(j)) == [G.index_of(x * g) for x in G]


@settings(max_examples=30, deadline=None)
@given(fresh_tables())
def test_orders_and_exponent_match_decoded_elements(G):
    exponent = G.exponent()
    orders = [decode_element(x.key).order() for x in G]
    assert [x.order() for x in G] == orders
    assert exponent == math.lcm(*orders)
    assert G.order_stats() == {k: orders.count(k) for k in set(orders)}


@pytest.mark.parametrize("square", ["above", "between"])
@pytest.mark.parametrize("backend", ["matrix", "permutation"])
def test_right_column_of_an_unclosed_set_raises(backend, square):
    # x has order 3, so x * x lies outside {1, x}, and in key order it lies
    # after x or between 1 and x
    if backend == "matrix":
        x = FpMatrix(3, [[1, 1], [0, 1]])
    else:
        x = Permutation.from_cycles(3, [(0, 1, 2)])
    if square == "between":
        x = x * x
    T = GroupTable([x.identity_like(), x], [x])
    with pytest.raises(KeyError):
        T._right_column(T.index_of(x))
