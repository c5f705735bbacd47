"""Differential tests against sympy's permutation-group algorithms.

Random generator subsets of permutation-backed catalog groups are closed by
the engine and by sympy.combinatorics, and the two must agree on subgroup
order, normal closure and normality, commutator subgroups [X, Y], the lower
central series, the center, centralizers and quotient order; a quotient's
center, exponent and lower and upper central series are checked against
values read off the cover through membership in the kernel.  The Aut(G) search's automorphism group and
the acting group A of catalog action pairs are compared on their order, their
Sylow subgroups and their derived series, read as permutations of the
acted-on group's element indices.  sympy is an optional oracle: the module is skipped
when it is not installed.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

sympy_comb = pytest.importorskip("sympy.combinatorics")

from pcentral.actions import aut_as_perm_group  # noqa: E402
from pcentral.autsearch import brute_force_aut, sylow_p_subgroup  # noqa: E402
from pcentral.catalog import build_action, build_group  # noqa: E402
from pcentral.groups import (  # noqa: E402
    center,
    centralizer,
    commutator_subgroup,
    is_normal,
    normal_closure,
    quotient,
    subgroup_generated,
)
from pcentral.series import lower_central_series, upper_central_series  # noqa: E402

SPECS = (
    "sym(4)",
    "dihedral(16)",
    "wreath_cp_cp(3)",
    "sl2_3()",
    "direct_product(quaternion(8), cyclic(3,1))",
)


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


def _sympy_group(elements):
    # sympy composes left to right, the engine right to left; the subgroup
    # generated by a set is the same either way
    return sympy_comb.PermutationGroup(
        [sympy_comb.Permutation([int(v) for v in x.images]) for x in elements])


@st.composite
def seeded_subgroups(draw, specs=SPECS, build=_group):
    """(G, seeds): a catalog group and one to three of its elements."""
    G = build(draw(st.sampled_from(specs)))
    idx = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    return G, [G.elements[i] for i in idx]


@settings(max_examples=40, deadline=None)
@given(seeded_subgroups())
def test_subgroup_generated_order(case):
    G, seeds = case
    assert subgroup_generated(G, seeds).order == _sympy_group(seeds).order()


@settings(max_examples=40, deadline=None)
@given(seeded_subgroups())
def test_normal_closure_and_normality(case):
    G, seeds = case
    SG, SH = _sympy_group(G.generators), _sympy_group(seeds)
    H = subgroup_generated(G, seeds)
    assert is_normal(G, H) == SH.is_normal(SG)
    N = normal_closure(G, seeds)
    assert N.order == SG.normal_closure(SH).order()
    assert is_normal(G, N)


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups(), st.data())
def test_commutator_subgroup_agrees(case, data):
    # X is often not normal; the oracle closes every engine commutator [x, y]
    # in sympy, which seeds from no generator set of its own
    G, seeds = case
    idx = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    others = [G.elements[i] for i in idx]
    SG = _sympy_group(G.generators)
    X = subgroup_generated(G, seeds)
    for Y in (G, normal_closure(G, others), subgroup_generated(G, others)):
        commutators = {G.comm(x, y) for x in X.elements for y in Y.elements}
        expected = SG.normal_closure(_sympy_group(commutators)).order()
        assert commutator_subgroup(G, X, Y).order == expected


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups())
def test_lower_central_series_orders(case):
    G, seeds = case
    H = subgroup_generated(G, seeds)
    ours = lower_central_series(H).orders()
    # the engine repeats the stable term once; sympy stops at it
    assert ours[:-1] == [t.order() for t in _sympy_group(seeds).lower_central_series()]


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups())
def test_center_order(case):
    G, seeds = case
    H = subgroup_generated(G, seeds)
    assert center(H).order == _sympy_group(seeds).center().order()


def _assert_subgroup_table_agrees(H, SH):
    """Order, center order and lower central series orders of a subgroup
    table against the same subgroup in sympy."""
    assert H.order == SH.order()
    assert center(H).order == SH.center().order()
    assert lower_central_series(H).orders()[:-1] == [
        t.order() for t in SH.lower_central_series()]


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups())
def test_centralizer_table_agrees(case):
    # a centralizer records no generators, so its table sweeps every element
    G, seeds = case
    SG, SH = _sympy_group(G.generators), _sympy_group(seeds)
    _assert_subgroup_table_agrees(centralizer(G, seeds), SG.centralizer(SH))


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups())
def test_normal_closure_table_agrees(case):
    G, seeds = case
    SG, SH = _sympy_group(G.generators), _sympy_group(seeds)
    _assert_subgroup_table_agrees(normal_closure(G, seeds),
                                  SG.normal_closure(SH))


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups())
def test_quotient_order(case):
    G, seeds = case
    N = normal_closure(G, seeds)
    SG = _sympy_group(G.generators)
    SN = SG.normal_closure(_sympy_group(seeds))
    assert quotient(G, N).order == SG.order() // SN.order()


def _commutes_mod(x, g, members):
    """Does [x, g] lie in `members` (a predicate on sympy permutations)?"""
    return members(~x * ~g * x * g)


def _upper_central_orders(SG, start):
    """Orders of Z_0 = start <= Z_1 <= ..., Z_{i+1} = {x : [x, g] in Z_i for
    every generator g}, with the stable term repeated once."""
    elements = list(SG.generate())
    Z = set(start)
    orders = [len(Z)]
    while True:
        nxt = {x for x in elements
               if all(_commutes_mod(x, g, Z.__contains__) for g in SG.generators)}
        orders.append(len(nxt))
        if len(nxt) == len(Z):
            return orders
        Z = nxt


@settings(max_examples=30, deadline=None)
@given(seeded_subgroups())
def test_quotient_agrees(case):
    # every value below is read off the cover in sympy, through N-membership
    G, seeds = case
    N = normal_closure(G, seeds)
    Q = quotient(G, N)
    SG = _sympy_group(G.generators)
    SN = SG.normal_closure(_sympy_group(seeds))
    n = SN.order()
    elements = list(SG.generate())

    central = [x for x in elements
               if all(_commutes_mod(x, g, SN.contains) for g in SG.generators)]
    assert center(Q).order == len(central) // n

    def order_mod_N(x):
        k, y = 1, x
        while not SN.contains(y):
            y, k = y * x, k + 1
        return k

    assert Q.exponent() == math.lcm(*map(order_mod_N, elements))

    gammaN = []  # |γ_i(G)N| / |N| up to its first repeat
    for t in SG.lower_central_series():
        k = sympy_comb.PermutationGroup(t.generators + SN.generators).order() // n
        if gammaN and gammaN[-1] == k:
            break
        gammaN.append(k)
    assert lower_central_series(Q).orders()[:-1] == gammaN

    assert upper_central_series(G).orders() == _upper_central_orders(
        SG, [SG.identity])
    assert upper_central_series(Q).orders() == [
        k // n for k in _upper_central_orders(SG, SN.generate())]


@pytest.mark.parametrize("spec", SPECS)
def test_whole_group_agrees(spec):
    G = _group(spec)
    SG = _sympy_group(G.generators)
    assert G.order == SG.order()
    assert lower_central_series(G).orders()[:-1] == [
        t.order() for t in SG.lower_central_series()]
    assert center(G).order == SG.center().order()


AUT_SPECS = (
    "quaternion(8)",
    "dihedral(8)",
    "sym(3)",
    "cyclic(2,3)",
    "elementary_abelian(2,3)",
    "heisenberg(3)",
)


def _derived_orders(P):
    """Orders along the derived series of P, down to its stable term."""
    H = P
    orders = [H.order]
    while True:
        D = commutator_subgroup(P, H, H)
        if D.order == H.order:
            return orders
        H = D
        orders.append(H.order)


def _assert_agrees(P):
    """Order, Sylow orders and derived series of P against sympy."""
    SP = _sympy_group(P.generators)
    assert P.order == SP.order()
    for p in (q for q in (2, 3, 5, 7) if P.order % q == 0):
        assert sylow_p_subgroup(P, p).order == SP.sylow_subgroup(p).order()
    assert _derived_orders(P) == [t.order() for t in SP.derived_series()]


@pytest.mark.parametrize("spec", AUT_SPECS)
def test_aut_perm_group_agrees(spec):
    _assert_agrees(brute_force_aut(_group(spec)).perm_group)


ACTION_SPECS = (
    ("quaternion(8)", "inner"),
    ("heisenberg(3)", "inner"),
    ("ut(4,2)", "inner"),
    ("elementary_abelian(3,4)", "jordan"),
    ("elementary_abelian(2,4)", "jordan_power(2)"),
    ("elementary_abelian(3,2)", "full_aut"),
)


@functools.lru_cache(maxsize=None)
def _acting_group(gspec, aspec):
    return aut_as_perm_group(build_action(_group(gspec), aspec))


def _sympy_order(G, seeds):
    """sympy's |<seeds>|; matrices act on G's element indices by right
    multiplication, which is faithful."""
    if hasattr(seeds[0], "images"):
        return _sympy_group(seeds).order()
    return sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(list(G._right_column(G.index_of(x)))) for x in seeds]).order()


MATRIX_SPECS = ("heisenberg(3)", "ut(4,2)", "elementary_abelian(2,4)")


@settings(max_examples=60, deadline=None)
@given(st.one_of(seeded_subgroups(), seeded_subgroups(MATRIX_SPECS),
                 seeded_subgroups(ACTION_SPECS, lambda specs: _acting_group(*specs))),
       st.data())
def test_subgroup_grows_from_the_one_it_extends(case, data):
    G, first = case
    idx = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    more = [G.elements[i] for i in idx]
    H = subgroup_generated(G, first)
    grown = subgroup_generated(G, more, H)
    assert grown.keys == subgroup_generated(G, first + more).keys
    assert grown.order == _sympy_order(G, first + more)
    assert grown.generators[:len(H.generators)] == H.generators


@pytest.mark.parametrize("gspec,aspec", ACTION_SPECS)
def test_acting_group_agrees(gspec, aspec):
    _assert_agrees(_acting_group(gspec, aspec))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_acting_subgroup_orders(data):
    A = _acting_group(*data.draw(st.sampled_from(ACTION_SPECS)))
    idx = data.draw(st.lists(st.integers(0, A.order - 1), min_size=1, max_size=3))
    seeds = [A.elements[i] for i in idx]
    assert subgroup_generated(A, seeds).order == _sympy_group(seeds).order()
