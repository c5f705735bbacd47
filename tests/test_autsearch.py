"""Automorphism group search and Sylow subgroup extraction."""

import functools

import numpy as np
import pytest

from pcentral.autsearch import _greedy_levels, brute_force_aut, normalizer, sylow_p_subgroup
from pcentral.catalog import build_group
from pcentral.elements import FpMatrix, Permutation, _cycle_order
from pcentral.errors import BudgetExceeded
from pcentral.groups import (
    Automorphism,
    GroupTable,
    close,
    minimal_generating_sequence,
    subgroup_generated,
)

# Classical automorphism group orders, used as enumeration oracles.
AUT_ORDERS = {
    "elementary_abelian(2,2)": 6,     # GL(2,2)
    "elementary_abelian(3,2)": 48,    # GL(2,3)
    "elementary_abelian(3,3)": 11232,  # GL(3,3)
    "cyclic(2,3)": 4,                 # (Z/8)*
    "cyclic(3,2)": 6,                 # (Z/9)*
    "quaternion(8)": 24,
    "dihedral(8)": 8,
    "heisenberg(3)": 432,
    "sym(3)": 6,
}


@pytest.mark.parametrize("spec,order", sorted(AUT_ORDERS.items()))
def test_aut_group_orders(spec, order):
    result = brute_force_aut(build_group(spec))
    assert result.order == order
    assert result.perm_group.order == order
    # full_aut acts through these generators
    assert close(result.perm_group.generators).keys == result.perm_group.keys


def test_aut_of_the_trivial_group_is_trivial():
    e = Permutation.identity(3)
    result = brute_force_aut(GroupTable([e], [e], p=2))
    assert (result.order, result.tuples_tried) == (1, 0)
    assert result.perm_group.generators[0].is_identity()


def test_aut_search_respects_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_aut(build_group("elementary_abelian(3,3)"), budget=50)


def test_budget_stops_a_large_search_early():
    # |GL(4,5)| is about 1.2e11: the search stops after its first blocks
    with pytest.raises(BudgetExceeded) as exc:
        brute_force_aut(build_group("elementary_abelian(5,4)"), budget=1000)
    assert str(exc.value) == "automorphism search exceeded 1000 candidate tuples"


@pytest.mark.parametrize("spec", sorted(AUT_ORDERS))
def test_automorphism_order_matches_all_cycle_lengths(spec):
    # fresh copies: both orders are cached on the element
    for a in _aut(spec).perm_group.elements:
        assert (Automorphism(a.domain, a.images).order()
                == _cycle_order(Automorphism(a.domain, a.images)))


# candidate image tuples the search extends: the quantity aut_budget bounds
TUPLES_TRIED = {
    "heisenberg(3)": 5694,
    "elementary_abelian(2,3)": 350,
    "elementary_abelian(3,3)": 16926,
}


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


@functools.lru_cache(maxsize=None)
def _aut(spec):
    return brute_force_aut(_group(spec))


@pytest.mark.parametrize("spec,tried", sorted(TUPLES_TRIED.items()))
def test_tuples_tried_counts(spec, tried):
    assert _aut(spec).tuples_tried == tried


@pytest.mark.parametrize("spec", ["heisenberg(3)", "elementary_abelian(2,3)"])
def test_budget_boundary_is_tuples_tried(spec):
    G = build_group(spec)
    n = TUPLES_TRIED[spec]
    assert brute_force_aut(G, budget=n).tuples_tried == n
    with pytest.raises(BudgetExceeded, match=f"exceeded {n - 1} candidate tuples"):
        brute_force_aut(G, budget=n - 1)


def test_aut_permutations_compose_like_automorphisms():
    result = brute_force_aut(build_group("quaternion(8)"))
    P = result.perm_group
    # closure: product of any two realized permutations is again realized
    for a in P.elements[:6]:
        for b in P.elements[:6]:
            assert P.canon(a * b).key in P.keys


def test_sylow_subgroup_of_sym4():
    S4 = build_group("sym(4)")
    P2 = sylow_p_subgroup(S4, 2)
    assert P2.order == 8
    assert P2.order_stats() == {1: 1, 2: 5, 4: 2}  # dihedral shape
    P3 = sylow_p_subgroup(S4, 3)
    assert P3.order == 3


def test_sylow_of_p_group_is_whole_group():
    G = build_group("heisenberg(3)")
    assert sylow_p_subgroup(G, 3).order == 27
    assert sylow_p_subgroup(G, 2).order == 1


def test_sylow_order_is_full_p_part():
    G = build_group("direct_product(quaternion(8), cyclic(3,1))")
    assert sylow_p_subgroup(G, 2).order == 8
    assert sylow_p_subgroup(G, 3).order == 3


def test_normalizer_contains_subgroup_and_is_closed():
    S4 = build_group("sym(4)")
    P = sylow_p_subgroup(S4, 3)
    N = normalizer(S4, P)
    assert P.keys <= N.keys
    assert N.order == 6  # N_{S4}(C3) is the symmetric group on the 3-cycle
    closed = subgroup_generated(S4, N.elements)
    assert closed.keys == N.keys


def test_aut_of_heisenberg_sylow_exponent():
    result = brute_force_aut(build_group("heisenberg(3)"))
    S = sylow_p_subgroup(result.perm_group, 3)
    assert S.order == 27
    assert max(x.order() for x in S.elements) == 3


def test_gl33_sylow_3_subgroup():
    # a Sylow 3-subgroup of GL(3,3) is the unitriangular group: order 27, exponent 3
    S = sylow_p_subgroup(_aut("elementary_abelian(3,3)").perm_group, 3)
    assert S.order == 27
    assert S.exponent() == 3


def _p_part(n, p):
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def _sylow_in_normalizers(G, p):
    """The reference growth: extend P inside N_G(P), taking the first
    p-element of N_G(P) outside P, in key order, whose <P, y> is a p-group."""
    target = _p_part(G.order, p)
    P = subgroup_generated(G, ())
    while P.order < target:
        N = normalizer(G, P)
        for y in N.elements:
            if y.key in P.keys or _p_part(y.order(), p) != y.order():
                continue
            cand = subgroup_generated(G, [y], P)
            if _p_part(cand.order, p) == cand.order:
                P = cand
                break
        else:
            raise AssertionError("reference growth stalled")
    return P


# (spec, take Aut(spec) instead of the group itself)
SYLOW_TABLES = [(spec, False) for spec in (
    "sym(4)", "alt(4)", "sl2_3()", "dic3()",
    "direct_product(quaternion(8), cyclic(3,1))")] + [(spec, True) for spec in (
    "heisenberg(3)", "elementary_abelian(2,3)", "elementary_abelian(3,2)")]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("spec,aut", SYLOW_TABLES)
def test_sylow_matches_growth_inside_normalizers(spec, aut, p):
    G = _aut(spec).perm_group if aut else build_group(spec)
    P, ref = sylow_p_subgroup(G, p), _sylow_in_normalizers(G, p)
    assert P.keys == ref.keys
    assert [g.key for g in P.generators] == [g.key for g in ref.generators]


def test_sylow_product_counts(arithmetic):
    # no element products: each step conjugates P's generators by the
    # 3-elements y outside P in key-order blocks of 256, two kernel rows per
    # pair, after one row for each y's inverse y^2 not yet kept, and stops at
    # the first block that holds a normalizer (here always the first); for
    # each y that P gains, one row for y^2 (y^0 and y^1 take none) and one per
    # element of P y^i (P of order 1, 3, then 9), not a column of the whole
    # Aut table.  Both tables have exponent 3, with n3 elements of order 3.
    # The Aut tables are built outside the count, and their kept inverses
    # dropped.  Before the blocks, every y was tested: 5100 rows on
    # Aut(E(3,3)), and the same 564 on Aut(heisenberg(3)), whose n3 - 2 = 78
    # fit one block.
    tables = {spec: _aut(spec).perm_group
              for spec in ("heisenberg(3)", "elementary_abelian(3,3)")}

    def count(A):
        A._cache.pop("inverses", None)
        arithmetic.update(products=0, rows=0)
        sylow_p_subgroup(A, 3)
        return arithmetic["products"], arithmetic["rows"]

    def rows(n3, fresh):
        # the blocks of the second and third steps, and the inverses first
        # needed at the third (its block reaches `fresh` past the second's)
        second, third = min(256, n3 - 2), min(256, n3 - 3 * 3 + 1)
        gains = 3 * 1 + 3 * (1 + 3 + 9)
        return gains + second + 2 * 1 * second + fresh + 2 * 2 * third

    assert count(tables["heisenberg(3)"]) == (0, rows(80, 0)) == (0, 564)
    assert count(tables["elementary_abelian(3,3)"]) == (0, rows(728, 2)) == (0, 1836)


def _reference_extend(G, gens, images):
    """gens -> images extended over <gens> by breadth-first search of the
    Cayley graph, one dict entry per element; None at the first edge whose
    two readings disagree."""
    edges = [(G._right_column(g), G._right_column(m)) for g, m in zip(gens, images)]
    e = G.index_of(G.identity)
    full = {e: e}
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            fx = full[x]
            for col_g, col_m in edges:
                y, fy = col_g[x], col_m[fx]
                known = full.get(y)
                if known is None:
                    full[y] = fy
                    new.append(y)
                elif known != fy:
                    return None
        frontier = new
    return full


def _reference_aut(G):
    """The automorphisms of G and the candidate tuples tried, by a recursive
    search that extends one image tuple at a time with _reference_extend."""
    gens = minimal_generating_sequence(G)
    gen_idx = [G.index_of(g) for g in gens]
    by_order = {}
    for i, x in enumerate(G.elements):
        by_order.setdefault(x.order(), []).append(i)
    found, tried = [], 0

    def descend(depth, images):
        nonlocal tried
        for cand in by_order.get(gens[depth].order(), ()):
            tried += 1
            full = _reference_extend(G, gen_idx[:depth + 1], images + [cand])
            if full is None or len(set(full.values())) != len(full):
                continue
            if depth + 1 == len(gens):
                found.append(Automorphism(G, [full[i] for i in range(G.order)]))
            else:
                descend(depth + 1, images + [cand])

    descend(0, [])
    return found, tried


DIFFERENTIAL_SPECS = [
    "elementary_abelian(2,2)", "elementary_abelian(3,2)", "elementary_abelian(3,3)",
    "elementary_abelian(2,3)", "cyclic(2,1)", "cyclic(2,3)", "cyclic(3,2)",
    "quaternion(8)", "dihedral(8)", "heisenberg(3)", "ut(3,3)", "sym(3)", "sym(4)",
    "alt(4)", "sl2_3()", "dic3()", "wreath_cp_cp(2)",
    "direct_product(quaternion(8), cyclic(2,1))",
    # 486 candidates of order 729 for its one generator: more than one block
    "cyclic(3,6)",
]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_aut_search_matches_reference_search(spec):
    found, tried = _reference_aut(_group(spec))
    ref = GroupTable(found, found)
    result = _aut(spec)
    assert result.perm_group.keys == ref.keys
    assert ([a.key for a in result.perm_group.generators]
            == [a.key for a in minimal_generating_sequence(ref)])
    assert result.tuples_tried == tried


def test_budget_boundary_across_blocks():
    # |Aut(C_729)| = phi(729) = 486, and every candidate tuple is one automorphism
    G = _group("cyclic(3,6)")
    assert brute_force_aut(G, budget=486).tuples_tried == 486 == _aut("cyclic(3,6)").order
    with pytest.raises(BudgetExceeded, match="exceeded 485 candidate tuples"):
        brute_force_aut(G, budget=485)


# candidate tuples tried on the groups whose Aut tables are checked against a
# regrown generating sequence
REGROW_TUPLES_TRIED = {
    "elementary_abelian(3,3)": 16926, "heisenberg(3)": 5694,
    "elementary_abelian(2,3)": 350, "quaternion(8)": 42,
    "elementary_abelian(3,2)": 72, "elementary_abelian(2,2)": 12,
    "cyclic(3,2)": 6, "ut(4,2)": 57492, "dihedral(8)": 12, "sym(4)": 42,
    "cyclic(3,6)": 486, "elementary_abelian(2,4)": 41190,
}


@pytest.mark.parametrize("spec,tried", sorted(REGROW_TUPLES_TRIED.items()))
def test_aut_generators_match_regrown_sequence(spec, tried):
    # fresh copies, so that no order cached by the search is reused
    result = _aut(spec)
    A = result.perm_group
    fresh = [Automorphism(a.domain, a.images) for a in A.elements]
    regrown = GroupTable(fresh, fresh)
    assert A.keys == regrown.keys
    assert ([a.key for a in A.generators]
            == [a.key for a in minimal_generating_sequence(regrown)])
    assert result.tuples_tried == tried


@pytest.mark.parametrize("spec", sorted(set(DIFFERENTIAL_SPECS) | set(REGROW_TUPLES_TRIED)))
def test_generator_levels_match_the_subgroup_chain(spec):
    # the search's one closure picks the object path's greedy sequence, and
    # each level closes the subgroup that Dimino's chain grows
    G = _group(spec)
    inside = np.zeros(G.order, dtype=bool)
    inside[G.index_of(G.identity)] = True
    gens, levels = _greedy_levels(G._right_column, inside, [x.order() for x in G.elements])
    seq = minimal_generating_sequence(G)
    assert [G.elements[g].key for g in gens] == [g.key for g in seq]
    H, chain = None, []
    for g in seq:
        H = subgroup_generated(G, [g], H)
        chain.append(H.order)
    assert [level[-1] for level in levels] == chain
    assert chain[-1] == G.order
    # each level adds exactly the elements it counts
    assert sorted(np.concatenate([level[2] for level in levels]).tolist()) == sorted(
        set(range(G.order)) - {G.index_of(G.identity)})
