"""Table kernels against the element-object path.

A group table's right-multiplication columns, its elements' orders and its
exponent must equal what multiplying element objects one at a time gives, on
catalog groups of both backends: as built, with matrix groups conjugated by a
random T in GL(n, p), and with permutation groups moved onto up to 700
points, where an image no longer fits one key byte; the columns also on
subgroup, quotient, inner-action and automorphism tables.  A table over a set
that is not closed under its products has no column for an element whose
product leaves it.  The pairwise kernel, its powers and inverses must match
element products on every kind of table, and the group core built on them
(cosets, centers, conjugation, normality, commutator subgroups, orders, omega
and agemo, p-central actions, the definitional series) must match oracles
that multiply element objects one pair at a time.  Every kind of table
finds the orders and inverses that new objects, holding no cache the table
may have filled, find for themselves.  Every subgroup the core
cuts from a table holds the table's own element objects in key order, knows
its root table's indices of them, and has the generators its constructor
documents.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import _relabeled, relabelings

from pcentral.actions import inner_action, is_p_central_action, mixed_series_definitional
from pcentral.autsearch import brute_force_aut, normalizer
from pcentral.catalog import build_group
from pcentral.elements import FpMatrix, Permutation, decode_element
from pcentral.errors import BudgetExceeded
from pcentral.groups import (
    Automorphism,
    Coset,
    GroupTable,
    center,
    centralizer,
    close,
    commutator_subgroup,
    conjugation_aut,
    is_normal,
    quotient,
    subgroup_generated,
)
from pcentral.series import agemo, central_order_bound, omega_set, omega_subgroup

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


# -- the group core against element-by-element oracles ----------------------
#
# Each oracle below multiplies element objects one pair at a time through
# T.mul, and follows the documented rule for every generator list.  They run
# on each catalog table, on one subgroup and one quotient of it, and on
# fresh (relabeled or decoded) tables.


def _closure_keys(T, gens):
    """The keys of <gens> in T, by breadth-first products with the generators."""
    found = {T.identity.key}
    frontier = [T.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = T.mul(x, g)
                if y.key not in found:
                    found.add(y.key)
                    new.append(y)
        frontier = new
    return found


def _generated(T, seeds, held=None):
    """subgroup_generated's rule: held's generators, then each seed, in key
    order, that lies outside the group grown so far; (generators, keys)."""
    gens, keys = held if held is not None else ([], {T.identity.key})
    gens = list(gens)
    for s in sorted({T.canon(s) for s in seeds}, key=lambda x: x.key):
        if s.key not in keys:
            gens.append(s)
            keys = _closure_keys(T, gens)
    return gens, keys


def _normal_closure(T, seeds, maps=()):
    """normal_closure's rule: add the conjugates of the generators by T's
    generators and their images under the maps until none is new."""
    gens, keys = _generated(T, seeds)
    while True:
        grown = [c for h in gens for g in T.generators
                 if (c := T.conj(h, g)).key not in keys]
        grown += [c for h in gens for a in maps if (c := a(h)).key not in keys]
        if not grown:
            return gens, keys
        gens, keys = _generated(T, grown, (gens, keys))


def _order(T, x):
    k, y = 1, x
    while y.key != T.identity.key:
        y, k = T.mul(y, x), k + 1
    return k


def _keys(xs):
    return [x.key for x in xs]


def _proper_normal(T):
    """Z(T) when T is not abelian; else <x^p>, or <x> when x^p = 1, for the
    last generator x."""
    Z = center(T)
    if Z.order < T.order:
        return Z
    x = T.generators[-1]
    y = x ** (T.p or 2)
    return subgroup_generated(T, [T.canon(y) if not y.is_identity() else x])


def _subgroup(T):
    """T's first generator together with [T, T]."""
    return subgroup_generated(T, [T.generators[0], *commutator_subgroup(T, T, T).generators])


def _tables(G):
    return {"table": G, "subgroup": _subgroup(G), "quotient": quotient(G, _proper_normal(G))}


KINDS = ("table", "subgroup", "quotient")


@functools.lru_cache(maxsize=None)
def _core_table(spec, kind):
    return _tables(_group(spec))[kind]


@st.composite
def fresh_core_tables(draw):
    """A fresh table, or a subgroup or quotient of one."""
    return _tables(draw(fresh_tables()))[draw(st.sampled_from(KINDS))]


def _assert_quotients_match(T):
    for N in (center(T), commutator_subgroup(T, T, T)):
        Q = quotient(T, N)
        least = [min(T.mul(x, n).key for n in N) for x in T]
        firsts = sorted(set(least))
        assert [int(i) for i in Q.coset_id] == [firsts.index(k) for k in least]
        assert [c.rep.key for c in Q] == firsts


def _assert_center_and_conjugation_match(T):
    Z = center(T)
    assert Z.keys == {x.key for x in T
                      if all(T.mul(x, g) == T.mul(g, x) for g in T.generators)}
    assert _keys(Z.generators) == [x.key for x in T if x.key in Z.keys and not x.is_identity()]
    for g in (*T.generators, T.elements[-1]):
        assert list(conjugation_aut(T, g).images) == [T.index_of(T.conj(x, g)) for x in T]
    for S in (Z, _subgroup(T), *(subgroup_generated(T, [g]) for g in T.generators)):
        assert is_normal(T, S) == all(T.conj(h, g).key in S.keys for h in S for g in T)


def _assert_commutators_match(T):
    S = _subgroup(T)
    for X, Y in ((T, T), (S, T), (T, S)):
        H = commutator_subgroup(T, X, Y)
        gens, keys = _normal_closure(T, [T.comm(x, y) for x in X.generators for y in Y.generators])
        assert H.keys == keys
        assert _keys(H.generators) == _keys(gens)


def _assert_orders_match(T):
    orders = [_order(T, x) for x in T]
    assert T.exponent() == math.lcm(*orders)
    if not T.is_p_group:
        return
    p = T.p
    for i in (1, 2):
        assert _keys(omega_set(T, i)) == [x.key for x, k in zip(T, orders) if p ** i % k == 0]
    for n in (1, 2):
        gens, keys = _generated(T, [x ** p ** n for x in T])
        A = agemo(T, n)
        assert A.keys == keys and _keys(A.generators) == _keys(gens)
    pair, bound = inner_action(T), central_order_bound(p)
    for X in (None, center(T), _subgroup(T)):
        small = [x for x in (X or T) if bound % _order(T, x) == 0]
        assert is_p_central_action(pair, X) == all(
            a(x) == x for x in small for a in pair.A_generators)


def _definitional_keys(pair, k_max):
    """The term keys of the left-normed commutator sweep over the generator
    alphabet, one state (value, A-entries so far, capped) at a time."""
    G, cap = pair.G, k_max - 1
    g_letters = {y.key: y for g in G.generators for y in (g, G.canon(g.inverse()))}
    a_letters = {b.key: b for a in pair.A_generators for b in (a, a.inverse())}
    letters = [(g, 0) for g in g_letters.values() if not g.is_identity()]
    letters += [(a, 1) for a in a_letters.values() if not a.is_identity()]
    seen = {(x.key, 0) for x in G}
    frontier = [(x, 0) for x in G]
    while frontier:
        new = []
        for v, c in frontier:
            for y, step in letters:
                w = G.comm(v, y) if not step else G.mul(G.canon(v.inverse()), y(v))
                state = (w, min(c + step, cap))
                if (w.key, state[1]) not in seen:
                    seen.add((w.key, state[1]))
                    new.append(state)
        frontier = new
    by_key = {x.key: x for x in G}
    terms = [G.keys]
    for k in range(2, k_max + 1):
        terms.append(_closure_keys(G, [by_key[key] for key, c in seen if c >= k - 1]))
    return terms, len(seen) * len(letters)


def _assert_definitional_terms_match(T):
    pair = inner_action(T)
    keys, _ = _definitional_keys(pair, 3)
    assert [t.keys for t in mixed_series_definitional(pair, 3)] == keys


CORE_ORACLES = (_assert_quotients_match, _assert_center_and_conjugation_match,
                _assert_commutators_match, _assert_orders_match,
                _assert_definitional_terms_match)


@pytest.mark.parametrize("oracle", CORE_ORACLES, ids=lambda f: f.__name__[8:])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", SPECS)
def test_group_core_matches_object_oracles(spec, kind, oracle):
    oracle(_core_table(spec, kind))


@pytest.mark.parametrize("oracle", CORE_ORACLES, ids=lambda f: f.__name__[8:])
@settings(max_examples=8, deadline=None)
@given(fresh_core_tables())
def test_group_core_on_fresh_tables(oracle, T):
    oracle(T)


def test_definitional_budget_boundary():
    # every state of the sweep costs one step per letter, and the sweep
    # raises once the steps pass the budget
    pair = inner_action(_group("heisenberg(3)"))
    _, steps = _definitional_keys(pair, 3)
    assert steps == 248
    mixed_series_definitional(pair, 3, budget=steps)
    with pytest.raises(BudgetExceeded, match=f"exceeded {steps - 1} commutator steps"):
        mixed_series_definitional(pair, 3, budget=steps - 1)


# -- the pairwise kernel on every kind of table -----------------------------

AUT_SPECS = ("quaternion(8)", "elementary_abelian(2,3)", "heisenberg(3)")


@functools.lru_cache(maxsize=None)
def _aut_table(spec):
    return brute_force_aut(_group(spec)).perm_group


@st.composite
def kernel_tables(draw):
    """A fresh matrix or permutation table, a subgroup or quotient of one,
    or an automorphism table: inner automorphisms closed by element
    products, or the Aut(G) table the search builds."""
    kind = draw(st.sampled_from(KINDS + ("inner", "aut")))
    if kind == "aut":
        return _aut_table(draw(st.sampled_from(AUT_SPECS)))
    T = _tables(draw(fresh_tables()))["table" if kind == "inner" else kind]
    return inner_action(T).A if kind == "inner" else T


@settings(max_examples=60, deadline=None)
@given(st.one_of(fresh_tables(), kernel_tables()), st.data())
def test_right_columns_match_object_products(G, data):
    for j in data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4)):
        g = G.elements[j]
        assert list(G._right_column(j)) == [G.index_of(x * g) for x in G]


@settings(max_examples=60, deadline=None)
@given(kernel_tables(), st.data())
def test_products_and_powers_match_object_products(T, data):
    index = st.integers(0, T.order - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=24))
    xs, ys = map(np.array, zip(*pairs))
    els = T.elements
    assert T._products(xs, ys).tolist() == [T.index_of(els[x] * els[y])
                                            for x, y in zip(xs.tolist(), ys.tolist())]
    k = data.draw(st.integers(0, 40))
    assert T._powers(xs, k).tolist() == [T.index_of(els[x] ** k) for x in xs.tolist()]
    assert T._inverses(xs).tolist() == [T.index_of(els[x].inverse()) for x in xs.tolist()]


def _fresh_order_and_inverse(x):
    """x's order and its inverse's key, from a new object that holds no cache
    a table may have filled: an automorphism rebuilt from its images, a
    coset's representative and a matrix or permutation decoded from their
    keys."""
    if isinstance(x, Automorphism):
        y = Automorphism(x.domain, x.images)
        return y.order(), y.inverse().key
    if isinstance(x, Coset):
        Q, rep = x.quotient, decode_element(x.rep.key)
        y, k = rep, 1
        while Q.project(y) is not Q.identity:
            y, k = y * rep, k + 1
        return k, Q.project(rep.inverse()).key
    y = decode_element(x.key)
    return y.order(), y.inverse().key


def _general_linear_2_3():
    """GL(2, 3) by close: a matrix root that is not a p-group."""
    return close([FpMatrix(3, m) for m in ([[2, 0], [0, 1]], [[1, 1], [0, 1]],
                                           [[0, 1], [1, 0]])])


ORDER_TABLES = [(spec, kind) for spec in SPECS for kind in KINDS + ("inner",)] + [
    (spec, "aut") for spec in AUT_SPECS] + [("GL(2,3)", "table")]


def _order_table(spec, kind):
    if kind == "aut":
        return _aut_table(spec)
    if spec == "GL(2,3)":
        return _general_linear_2_3()
    return inner_action(_group(spec)).A if kind == "inner" else _core_table(spec, kind)


def _assert_orders_and_inverses_match_fresh_objects(T):
    expected = [_fresh_order_and_inverse(x) for x in T]
    assert T._orders().tolist() == [k for k, _ in expected]
    assert T.exponent() == math.lcm(*(k for k, _ in expected))
    inverses = T._inverses(np.arange(T.order)).tolist()
    assert [T.elements[i].key for i in inverses] == [key for _, key in expected]


@pytest.mark.parametrize("spec,kind", ORDER_TABLES)
def test_table_orders_and_inverses_match_fresh_objects(spec, kind):
    # every kind of table: matrix and permutation roots, a subgroup, a
    # quotient, an action's A closed by close and a searched Aut(G) table
    _assert_orders_and_inverses_match_fresh_objects(_order_table(spec, kind))


@settings(max_examples=40, deadline=None)
@given(st.one_of(fresh_tables(), kernel_tables()))
def test_fresh_table_orders_and_inverses_match_fresh_objects(T):
    # relabeled and decoded roots, and the tables cut from or acting on them
    _assert_orders_and_inverses_match_fresh_objects(T)


# -- subgroups cut from their parent -----------------------------------------


def _non_identity_keys(T):
    """The documented generators of a subgroup given none: its non-identity
    elements in key order."""
    return [x.key for x in T if not x.is_identity()]


def _subgroups(T):
    """(name, subgroup of T, its expected generator keys, or None for the
    rule of a subgroup given none) for every way the group core cuts a
    subgroup from T."""
    Q = quotient(T, _proper_normal(T))
    x = T.generators[-1]
    cyclic = subgroup_generated(T, [x])
    seeds = [T.generators[0], T.elements[-1]]
    grown = subgroup_generated(T, seeds, cyclic)
    cases = [
        ("center", center(T), None),
        ("centralizer", centralizer(T, [x]), None),
        ("preimage", Q.preimage(center(Q)), None),
        ("trivial_subgroup", T.trivial_subgroup, None),
        ("normalizer", normalizer(T, cyclic), None),
        ("subgroup_generated", grown,
         _keys(_generated(T, seeds, _generated(T, [x]))[0])),
    ]
    if T.is_p_group:
        cases.append(("omega_subgroup", omega_subgroup(T, 1),
                      _keys(_generated(T, omega_set(T, 1))[0])))
    return cases


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", SPECS)
def test_subgroups_are_cut_from_their_parent(spec, kind):
    T = _core_table(spec, kind)
    for name, H, gen_keys in _subgroups(T):
        assert H.parent is T and H.lies_in(T), name
        assert all(x is T.canon(x) for x in H), name
        assert _keys(H) == sorted(_keys(H)), name
        root = H.root
        assert T.lies_in(root) and root.parent is None, name
        assert list(H.root_rows) == [root.index_of(x) for x in H], name
        assert _keys(H.generators) == (_non_identity_keys(H) if gen_keys is None else gen_keys), name
