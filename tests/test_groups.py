"""Group tables: closure, subgroups, quotients, automorphisms."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcentral.actions import (
    commutator_group_of_pair,
    inner_action,
    mixed_commutator_subgroup,
    restrict_action,
)
from pcentral.autsearch import brute_force_aut
from pcentral.catalog import build_action, build_group
from pcentral.elements import Element, FpMatrix, Permutation
from pcentral.errors import (
    BackendMismatch,
    CapExceeded,
    NotAHomomorphism,
    NotBijective,
    NotNormal,
)
from pcentral.groups import (
    Automorphism,
    GroupTable,
    _schreier_levels,
    automorphism_from_images,
    center,
    centralizer,
    close,
    commutator_subgroup,
    conjugation_aut,
    minimal_generating_sequence,
    normal_closure,
    quotient,
    subgroup_generated,
)
from pcentral.series import lower_central_series, omega_subgroup


@pytest.fixture(scope="module")
def q8():
    return build_group("quaternion(8)")


@pytest.fixture(scope="module")
def d4():
    return build_group("dihedral(8)")


def test_closure_of_unitriangular_2(d4):
    G = build_group("ut(3,2)")
    assert G.order == 8
    assert G.order_stats() == {1: 1, 2: 5, 4: 2}
    # same order profile as the dihedral group of order 8
    assert G.order_stats() == d4.order_stats()


def test_closure_cap_enforced():
    with pytest.raises(CapExceeded):
        build_group("ut(4,3)", cap=100)


@pytest.mark.parametrize("spec,order", [("ut(4,3)", 729), ("dihedral(32)", 32),
                                        ("sym(4)", 24)])
def test_closure_cap_boundary(spec, order):
    # the cap counts elements: a group of exactly `cap` elements closes
    with pytest.raises(CapExceeded, match=f"closure exceeded cap of {order - 1} "):
        build_group(spec, cap=order - 1)
    assert build_group(spec, cap=order).order == order


def test_action_cap_boundary():
    G = build_group("ut(4,3)")
    with pytest.raises(CapExceeded, match="action closure exceeded cap of 242$"):
        inner_action(G, cap=242)
    assert inner_action(G, cap=243).A_order == 243


@pytest.mark.parametrize("spec,action,order", [("elementary_abelian(3,4)", "jordan", 9),
                                               ("elementary_abelian(2,4)", "jordan", 4),
                                               ("elementary_abelian(2,4)", "jordan_power(2)", 2)])
def test_one_generator_action_cap_boundary(spec, action, order):
    # one generator: |A| is its order, so the cap is met at build, with the
    # closure's message, and A is closed with exactly that many elements
    G = build_group(spec)
    with pytest.raises(CapExceeded, match=f"action closure exceeded cap of {order - 1}$"):
        build_action(G, action, action_cap=order - 1)
    pair = build_action(G, action, action_cap=order)
    assert pair.A_order == pair.A.order == order


def test_closure_product_counts(arithmetic):
    # close: no product of element objects and no kernel row; it multiplies
    # key bodies by _pair_products (before, Dimino's closure over objects
    # took one product per element that is not a coset representative, and
    # one per representative and generator: ut(4,3), 692 + 96 = 788)
    E, H = build_group("elementary_abelian(3,6)"), build_group("heisenberg(3)")

    def count(build):
        arithmetic.update(products=0, rows=0)
        build()
        return arithmetic["products"], arithmetic["rows"]

    assert count(lambda: build_group("ut(4,3)")) == (0, 0)
    # no products: A = <sigma> is sized by sigma's order and never closed.
    # The Jordan map's generator images take 6 + 5 kernel rows (e_i * e_{i-d}
    # for d = 0, 1; the powers e^1 take none); its extension reads the right
    # columns of G's 6 generators, which the catalog made by digit
    # arithmetic, and gathers every other column through them.  The mixed
    # series is closed in the table: each term's seeds are one kernel call
    # (6 + 5 + ... + 1 rows), its conjugates two rows per pair of its
    # generators and G's (2 * 6 * 15), and the inverses of G's 6 generators
    # two rows each for their orders (x^3) and one for x^2.  Before: (0,
    # 4604), the generators' columns through the kernel (6 * 729 rows), and
    # before that (8, 8249), with sigma^2..sigma^9 of A's closure and five
    # right columns through the kernel.
    assert count(lambda: mixed_commutator_subgroup(build_action(E, "jordan"))) == (
        0, 11 + 21 + 180 + 18)
    # the search takes the right columns of G's 2 generators (2 * 27 rows)
    # and gathers the others through them, finds G's orders through the
    # kernel (two rows per non-identity element, 52), and the Aut table
    # picks its generators through its own right columns (3 * 432 rows),
    # and is the acting group as it is.  Before: (452, ...), the 452
    # products closing the table again from its generators, and before
    # that (452, 2050), with 24 more columns of G through the kernel.
    assert count(lambda: build_action(H, "full_aut")) == (0, 2 * 27 + 52 + 3 * 432)


@pytest.mark.parametrize("x", [Permutation([]), FpMatrix(3, np.zeros((0, 0), dtype=np.int64))],
                         ids=["permutation", "matrix"])
def test_a_trivial_group_of_empty_elements_multiplies_its_objects(x, arithmetic):
    # a 0-point permutation or a 0x0 matrix has an empty key body, so its
    # table has no body array and the kernel multiplies element objects a
    # pair at a time (a replayed group.bin can hold such a generator)
    T = close([x], p=3)
    assert T.order == 1 and T._key_bodies() is None
    arithmetic.update(products=0, rows=0)
    assert T._products(np.array([0, 0]), np.array([0, 0])).tolist() == [0, 0]
    assert arithmetic == {"products": 2, "rows": 2}
    assert T._right_column(0).tolist() == [0]
    assert T.exponent() == 1
    assert center(T).keys == T.keys
    assert lower_central_series(T).orders() == [1, 1]


def test_a_long_cycle_grows_through_its_one_right_column(monkeypatch):
    # breadth-first layers walk C_729 in 728 steps, each a gather from the
    # generator's cached right column, so the kernel is called once
    G = build_group("cyclic(3,6)")
    calls = []
    real = GroupTable._products

    def counting(self, xs, ys):
        calls.append(len(xs))
        return real(self, xs, ys)

    monkeypatch.setattr(GroupTable, "_products", counting)
    assert subgroup_generated(G, [G.generators[0]]).order == 729
    # the generator's right column is one call of a row per element
    assert calls == [729]


def _closed_under_products(H):
    return all(x * y in H for x in H.elements for y in H.elements)


def test_a_subgroup_grows_from_the_group_it_extends():
    # a closure that multiplied new elements by the seed alone would stop at
    # the 6-element set H·<(1 2 3)>, which is not a group
    G = build_group("sym(4)")
    t = G.canon(Permutation.from_cycles(4, [(0, 1)]))
    c = G.canon(Permutation.from_cycles(4, [(1, 2, 3)]))
    H = subgroup_generated(G, [t])
    K = subgroup_generated(G, [c], H)
    assert K.order == 24 and K.generators == (t, c)
    assert _closed_under_products(K)


def test_closure_levels_come_as_each_step_ends():
    # a caller that drops the levels frees each before the next step
    G = build_group("sym(4)")
    t, c = G._rows([Permutation.from_cycles(4, [(0, 1)]),
                    Permutation.from_cycles(4, [(1, 2, 3)])]).tolist()
    inside = np.arange(G.order) == G.index_of(G.identity)
    gens = []
    levels = _schreier_levels(G._right_column, inside, ([j] for j in (t, c)), gens)
    assert gens == [] and inside.sum() == 1  # nothing runs before a level is asked for
    assert next(levels)[-1] == inside.sum() == 2 and gens == [t]
    assert next(levels)[-1] == inside.sum() == 24 and gens == [t, c]
    assert next(levels, None) is None


def test_a_normal_closure_grows_from_a_non_normal_seed():
    # <(1 3 2)> is not normal in S_4; its normal closure is A_4, where a
    # closure that forgets the generators held stops at a 9-element set
    G = build_group("sym(4)")
    c = G.canon(Permutation.from_cycles(4, [(1, 3, 2)]))
    N = normal_closure(G, [c])
    assert N.order == 12 and N.generators[0] == c
    assert _closed_under_products(N)
    assert all(G.conj(x, g) in N for x in N.elements for g in G.generators)


@pytest.mark.parametrize("spec", ["dihedral(8)", "quaternion(8)", "sym(4)",
                                  "heisenberg(3)", "dic3()"])
def test_commutator_subgroup_matches_all_pairs_oracle(spec):
    G = build_group(spec)
    brute = subgroup_generated(
        G, (G.comm(x, y) for x in G.elements for y in G.elements))
    fast = commutator_subgroup(G, G, G)
    assert fast.keys == brute.keys


def test_commutator_subgroup_commutes_only_generators(monkeypatch, arithmetic):
    G = build_group("ut(4,3)")
    pairs = []
    real = GroupTable._commutators

    def counting(self, xs, ys):
        pairs.append(len(xs) * len(ys))
        return real(self, xs, ys)

    monkeypatch.setattr(GroupTable, "_commutators", counting)
    arithmetic.update(products=0, rows=0)
    assert commutator_subgroup(G, G, G).order == 27
    assert pairs == [len(G.generators) ** 2]  # 9, not |G| * 3 = 2187
    # three kernel rows per pair, three per inverse of G's 3 generators
    # (two for the order, x^3, and one for x^2 by squaring), a right column
    # of 729 rows for each of the 3 generators [G, G] keeps, and two per
    # conjugate of one of them by one of G's in the two closure steps
    # (2 * 3, then 3 * 3)
    assert arithmetic == {"products": 0, "rows": 27 + 3 * 3 + 3 * 729 + 2 * (6 + 9)}


@pytest.mark.parametrize("spec", ["dihedral(16)", "sym(3)", "heisenberg(3)",
                                  "direct_product(quaternion(8), cyclic(3,1))"])
def test_center_matches_commuting_oracle(spec):
    G = build_group(spec)
    brute = {x.key for x in G.elements
             if all(G.mul(x, y) == G.mul(y, x) for y in G.elements)}
    assert center(G).keys == brute


def test_subgroup_generated_thins_redundant_seeds(d4):
    # seeding with every element must still reproduce the group, with a
    # generator list far smaller than the seed list
    sub = subgroup_generated(d4, d4.elements)
    assert sub.order == 8
    assert len(sub.generators) <= 3


def test_lagrange_on_standard_subgroups():
    for spec in ("dihedral(16)", "sym(4)", "wreath_cp_cp(3)"):
        G = build_group(spec)
        for sub in (center(G), commutator_subgroup(G, G, G)):
            assert G.order % sub.order == 0


def test_quotient_is_a_homomorphic_image(q8):
    Z = center(q8)
    Q = quotient(q8, Z)
    assert Q.order == 4
    assert Q.exponent() == 2  # Q8 over its center is elementary abelian
    for x in q8.elements:
        for y in q8.elements:
            assert Q.project(q8.mul(x, y)) == Q.canon(
                Q.mul(Q.project(x), Q.project(y)))


def test_quotient_preimage_roundtrip(q8):
    Z = center(q8)
    Q = quotient(q8, Z)
    full = Q.preimage(Q)
    assert full.keys == {x.key for x in q8.elements}
    back = Q.preimage(subgroup_generated(Q, [Q.identity]))
    assert back.keys == Z.keys


def test_quotient_requires_normal_subgroup():
    S4 = build_group("sym(4)")
    # a point stabilizer is not normal in sym(4)
    H = subgroup_generated(
        S4, [x for x in S4.elements if x(3) == 3])
    with pytest.raises(NotNormal):
        quotient(S4, H)


@pytest.mark.parametrize("spec,kernel", [
    ("dihedral(16)", center),
    ("ut(4,2)", lambda G: lower_central_series(G).term(3)),
], ids=["dihedral16-center", "ut42-gamma3"])
def test_quotient_numbers_cosets_over_the_cover(spec, kernel):
    G = build_group(spec)
    N = kernel(G)
    Q = quotient(G, N)
    assert 1 < N.order < G.order
    assert len(Q.coset_id) == G.order
    for x in G.elements:
        assert Q.project(x) is Q.elements[Q.coset_id[G.index_of(x)]]
    for c in Q.elements:
        members = sorted(G.mul(c.rep, n) for n in N.elements)
        assert c.rep is members[0]
        assert all(Q.project(m) is c for m in members)
    assert Q.project(G.identity) is Q.identity
    assert Q.identity.is_identity()
    other = quotient(G, N)
    with pytest.raises(BackendMismatch):
        Q.elements[0] * other.elements[0]


def test_subgroups_are_tables_sharing_their_parents_elements():
    G = build_group("dihedral(16)")
    pair = inner_action(G)
    H = commutator_group_of_pair(pair)
    assert H is mixed_commutator_subgroup(pair)
    om = omega_subgroup(H, 1)  # a subgroup of a subgroup of G
    assert (H.order, om.order) == (4, 2)
    for sub in (H, om, center(G), lower_central_series(G).term(2)):
        assert sub.p == G.p
        assert all(x is G.canon(x) for x in sub.elements)
    assert om.parent is H and H.parent is G and om.lies_in(G)
    assert lower_central_series(G).terms[0] is G
    assert restrict_action(pair, H).G is H
    assert quotient(G, om).order == 8
    with pytest.raises(ValueError):
        quotient(G, center(build_group("dihedral(16)")))


def test_automorphism_validation_rejects_non_homomorphism(q8):
    i, j = q8.generators[0], q8.generators[1]
    # i^2 = j^2 in Q8, but the images square to -1 and 1
    with pytest.raises(NotAHomomorphism, match="inconsistent on the Cayley graph"):
        automorphism_from_images(q8, (i, j), (i, q8.identity))


def _basis(spec):
    G = build_group(spec)
    return G, minimal_generating_sequence(G)


def test_automorphism_validation_rejects_non_generating_elements():
    G, (a, b) = _basis("elementary_abelian(2,2)")
    with pytest.raises(ValueError, match="do not generate the group"):
        automorphism_from_images(G, [a], [b])


def test_automorphism_validation_rejects_non_bijective_endomorphism():
    G, (a, b) = _basis("elementary_abelian(2,2)")
    with pytest.raises(NotBijective, match="non-bijective endomorphism"):
        automorphism_from_images(G, [a, b], [a, a])


def test_automorphism_validation_error_precedence(q8):
    G, (a, b, c) = _basis("elementary_abelian(2,3)")
    # not generating and not injective: the generation error comes first
    with pytest.raises(ValueError, match="do not generate the group") as exc:
        automorphism_from_images(G, [a, b], [a, a])
    assert not isinstance(exc.value, NotBijective)
    # not generating and not a homomorphism: the homomorphism error comes first
    i = q8.generators[0]
    with pytest.raises(NotAHomomorphism):
        automorphism_from_images(q8, [i, i], [i, q8.identity])


def test_automorphism_from_images_accepts_redundant_generators():
    G, (a, b) = _basis("elementary_abelian(3,2)")
    ab = G.mul(a, b)
    swap = automorphism_from_images(G, [a, b, ab], [b, a, ab])
    assert (swap(a), swap(b), swap(ab)) == (b, a, ab)
    assert swap * swap == swap.identity_like()


def test_conjugation_is_an_automorphism(d4):
    for g in d4.elements:
        a = conjugation_aut(d4, g)
        for x in d4.elements:
            assert a(x) == d4.conj(x, g)


def test_minimal_generating_sequence_regenerates():
    for spec in ("dihedral(16)", "heisenberg(3)", "sym(4)"):
        G = build_group(spec)
        gens = minimal_generating_sequence(G)
        assert subgroup_generated(G, gens).order == G.order
        assert len(gens) <= len(G.generators) + 2


def test_normal_closure_is_normal():
    S4 = build_group("sym(4)")
    double = next(x for x in S4.elements if x.order() == 2
                  and all(x(i) != i for i in range(4)))
    N = normal_closure(S4, [double])
    assert N.order == 4  # the Klein four-group of double transpositions
    for g in S4.generators:
        assert all(S4.conj(h, g).key in N.keys for h in N.elements)


@pytest.mark.parametrize("build", [
    lambda G, x: subgroup_generated(G, [x]),
    lambda G, x: normal_closure(G, [x]),
    lambda G, x: centralizer(G, [x]),
], ids=["subgroup_generated", "normal_closure", "centralizer"])
def test_an_element_outside_the_group_is_a_value_error(q8, build):
    outside = Permutation.from_cycles(8, [(0, 1, 2)])
    with pytest.raises(ValueError, match="^element does not belong to this group$"):
        build(q8, outside)


def test_close_rejects_empty_generators():
    with pytest.raises(ValueError):
        close([])


@functools.lru_cache(maxsize=None)
def _automorphisms(spec):
    return brute_force_aut(build_group(spec)).perm_group.elements


@st.composite
def index_array_elements(draw):
    """A random permutation, or a random automorphism of a small group."""
    if draw(st.booleans()):
        return Permutation(draw(st.permutations(range(draw(st.integers(1, 12))))))
    auts = _automorphisms(draw(st.sampled_from(
        ("quaternion(8)", "elementary_abelian(2,3)", "heisenberg(3)"))))
    return auts[draw(st.integers(0, len(auts) - 1))]


def _fresh(x):
    """An uncached copy, so Element.order does not read a stored order."""
    if isinstance(x, Automorphism):
        return Automorphism(x.domain, x.images)
    return Permutation(x.images)


@settings(max_examples=80, deadline=None)
@given(index_array_elements())
def test_cycle_order_matches_repeated_products(x):
    # Element.order, by repeated products, is the reference
    assert _fresh(x).order() == Element.order(_fresh(x))


def test_a_cycle_walk_through_images_that_are_not_a_permutation_raises():
    # a wrapped narrow index array is not a permutation; here the generator
    # goes to the identity, which stays put, so its walk never comes back
    G = build_group("cyclic(3,2)")
    g = G.generators[0]
    A = close([automorphism_from_images(G, [g], [G.mul(g, g)])], p=3)
    row = next(r for r in range(A.order) if r != A._identity_row)
    A._images[row, G._gens[0]] = G._identity_row
    with pytest.raises(NotBijective):
        A._orders()
    with pytest.raises(NotBijective):
        Automorphism(G, A._images[row]).order()


def test_a_closure_through_a_wrong_column_raises():
    # right columns that send every row to the identity, as wrapped index
    # arrays might: the first generator the greedy step source of the Aut
    # search picks never enters the mask, and it would be picked forever
    G = build_group("cyclic(2,2)")
    for j in range(G.order):
        G._right_column(j)[:] = G._identity_row
    with pytest.raises(AssertionError):
        brute_force_aut(G)


def test_orders_stop_once_every_power_is_the_identity(monkeypatch):
    # every non-identity element of E(3,6) has order 3: its 3-part is found
    # by x^1 and one cube, not by six rounds of cubes
    G = build_group("elementary_abelian(3,6)")
    sizes = []
    real = GroupTable._powers

    def recording(self, xs, k):
        sizes.append(len(xs))
        return real(self, xs, k)
    monkeypatch.setattr(GroupTable, "_powers", recording)
    assert G.exponent() == 3
    assert sizes == [728, 728]


def test_automorphism_rejects_foreign_operands(q8, d4):
    a = conjugation_aut(q8, q8.generators[0])
    with pytest.raises(BackendMismatch):
        a * conjugation_aut(d4, d4.generators[0])
    with pytest.raises(ValueError):
        a(d4.generators[0])


def test_automorphism_is_never_equal_to_an_element():
    # Z9 has one generator, so the key body is the image of that generator
    G = build_group("cyclic(3,2)")
    g = G.generators[0]
    a = automorphism_from_images(G, [g], [G.mul(g, g)])
    assert a != G.mul(g, g)
    assert a not in G
