"""Automorphism actions: mixed commutators, the descending series and its
independent enumeration oracle, induced and restricted actions."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from pcentral import actions
from pcentral.actions import (
    ActionPair,
    aut_as_perm_group,
    aut_perm_realization,
    commutator_group_of_pair,
    gamma_term,
    induced_quotient_action,
    inner_action,
    is_p_central_action,
    mixed_commutator,
    mixed_commutator_subgroup,
    mixed_lower_central_series,
    mixed_series_definitional,
    order_matches_quotient_triviality,
    restrict_action,
    trivial_action,
)
from pcentral.catalog import build_action, build_group, paper_sigma_pair
from pcentral.checks import check_power_order_criterion
from pcentral.corpus import _DEFAULT_PAIRS
from pcentral.errors import BudgetExceeded, NotInvariant
from pcentral.groups import (
    automorphism_from_images,
    conjugation_aut,
    is_normal,
    normal_closure,
    subgroup_generated,
)
from pcentral.series import lower_central_series, omega_series, omega_subgroup


@pytest.fixture(scope="module")
def sigma3():
    return paper_sigma_pair(3)


def test_sigma_moves_second_basis_vector_to_first(sigma3):
    E = sigma3.G
    sigma = sigma3.A_generators[0]
    e1, e2 = E.generators[0], E.generators[1]
    assert mixed_commutator(e2, sigma) == e1
    assert mixed_commutator(e1, sigma) == E.identity
    # the commutator is literally x^{-1} sigma(x)
    for x in list(E.elements)[:20]:
        assert mixed_commutator(x, sigma) == E.mul(x.inverse(), sigma(x))


def test_sigma_series_orders(sigma3):
    assert mixed_lower_central_series(sigma3).orders()[:5] == [81, 27, 9, 3, 1]


def test_sigma_p_centrality_on_both_readings(sigma3):
    term_def = gamma_term(sigma3, 3)
    term_deep = gamma_term(sigma3, 4)
    assert term_def.order == 9 and not is_p_central_action(sigma3, term_def)
    assert term_deep.order == 3 and is_p_central_action(sigma3, term_deep)
    assert sigma3.A_generators[0].order() == 9
    assert commutator_group_of_pair(sigma3).exponent() == 3


def test_inner_mixed_series_equals_lower_central_series():
    for spec in ("dihedral(16)", "heisenberg(3)", "ut(4,2)"):
        G = build_group(spec)
        pair = inner_action(G)
        got = mixed_lower_central_series(pair).orders()
        want = lower_central_series(G).orders()
        assert got[:len(want)] == want


def test_trivial_action_series_collapses_immediately():
    G = build_group("heisenberg(3)")
    pair = trivial_action(G)
    assert gamma_term(pair, 2).order == 1
    assert is_p_central_action(pair)


def test_actions_without_generators_have_trivial_commutators():
    # Aut(C_2) is trivial, so the search keeps no generator; a trivial group
    # has no generator to conjugate by
    for pair in (build_action(build_group("cyclic(2,1)"), "full_aut"),
                 inner_action(build_group("cyclic(2,1)").trivial_subgroup)):
        assert pair.A_generators == ()
        assert mixed_lower_central_series(pair).orders()[:2] == [pair.G.order, 1]
        assert [T.order for T in mixed_series_definitional(pair, 3)] == [pair.G.order, 1, 1]


def test_power_order_criterion_on_a_group_without_generators():
    pair = inner_action(build_group("cyclic(2,1)").trivial_subgroup)
    assert pair.G.generators == ()
    v = order_matches_quotient_triviality(pair, pair.A.elements[0], 1)
    assert (v.conclusion, v.witnesses["trivial_mod_omega"]) == ("pass", True)
    v = check_power_order_criterion(pair)
    assert (v.conclusion, v.witnesses["pairs_checked"], v.witnesses["failures"]) == ("pass", 1, [])


def test_quotient_triviality_takes_an_automorphism_outside_the_action():
    G = build_group("dihedral(8)")
    pair, full = inner_action(G), build_action(G, "full_aut")
    om = omega_subgroup(commutator_group_of_pair(pair), 1).keys
    outside = [s for s in full.A.elements if s not in pair.A]
    assert outside
    for sigma in outside:
        want = all(mixed_commutator(g, sigma).key in om for g in G.generators)
        v = order_matches_quotient_triviality(pair, sigma, 1)
        assert v.witnesses["trivial_mod_omega"] is want


@pytest.mark.parametrize("gspec,aspec", [
    ("heisenberg(3)", "inner"),
    ("dihedral(8)", "inner"),
    ("elementary_abelian(2,3)", "jordan"),
    ("wreath_cp_cp(2)", "inner"),
])
def test_definitional_enumeration_agrees_with_recursion(gspec, aspec):
    pair = build_action(build_group(gspec), aspec)
    for entries in ("generators", "all"):
        terms = mixed_series_definitional(pair, 5, entries=entries)
        for k in range(1, 6):
            assert terms[k - 1].keys == gamma_term(pair, k).keys, (entries, k)


def test_definitional_budget_exhausts():
    pair = build_action(build_group("ut(4,2)"), "inner")
    with pytest.raises(BudgetExceeded):
        mixed_series_definitional(pair, 5, budget=50)


def test_semidirect_consistency_of_conjugation():
    G = build_group("sym(4)")
    for g in G.generators:
        a = conjugation_aut(G, g)
        for x in G.elements:
            assert mixed_commutator(x, a) == G.comm(x, g)


def test_induced_quotient_action_on_central_quotient():
    G = build_group("heisenberg(3)")
    pair = inner_action(G)
    Z = gamma_term(pair, 2)  # the center, here also [G, Inn G]
    qpair = induced_quotient_action(pair, Z)
    assert qpair.G.order == 9
    assert gamma_term(qpair, 2).order == 1  # quotient is abelian


def test_induced_quotient_requires_invariant_subgroup():
    pair = build_action(build_group("elementary_abelian(2,3)"), "jordan")
    E = pair.G
    e3 = E.generators[2]  # sigma sends e3 to e2 + e3: not invariant
    N = subgroup_generated(E, [e3])
    with pytest.raises(NotInvariant):
        induced_quotient_action(pair, N)


def _omega_quotients(pair):
    """(pair, N) for N = each Omega_i([G,A]) of the pair, and each Omega_i of
    each distinct mixed term gamma_k with the action restricted to it."""
    yield from ((pair, om) for om in omega_series(commutator_group_of_pair(pair)))
    series = mixed_lower_central_series(pair)
    for term in series.terms[:series.stabilized_at + 1]:
        rpair = restrict_action(pair, term)
        yield from ((rpair, om) for om in omega_series(rpair.G))


@pytest.mark.parametrize("gspec,aspec", _DEFAULT_PAIRS)
def test_induced_quotient_maps_match_generator_images(gspec, aspec):
    for pair, N in _omega_quotients(build_action(build_group(gspec), aspec)):
        qpair = induced_quotient_action(pair, N)
        Q = qpair.G
        for a, induced in zip(pair.A_generators, qpair.A_generators):
            ref = automorphism_from_images(
                Q, Q.generators, [Q.project(a(g)) for g in pair.G.generators])
            assert induced.domain is Q
            assert (induced.images == ref.images).all()


SIGMA_PAIRS = tuple((f"elementary_abelian({p},{p + 1})", "jordan") for p in (2, 3, 5))


@pytest.mark.parametrize("gspec,aspec", _DEFAULT_PAIRS + SIGMA_PAIRS)
def test_action_order_is_the_closed_order(gspec, aspec):
    # A_order is known at build (for one generator, its order) and is the
    # order of A closed afterwards, on the pair and on its restriction to
    # and its quotient by H = [G, A]
    pair = build_action(build_group(gspec), aspec)
    H = commutator_group_of_pair(pair)
    for q in (pair, restrict_action(pair, H), induced_quotient_action(pair, H)):
        order = q.A_order
        assert q.A.order == order


def test_restrict_action_to_commutator_subgroup(sigma3):
    H = gamma_term(sigma3, 2)
    rpair = restrict_action(sigma3, H)
    assert rpair.G.order == H.order
    assert mixed_lower_central_series(rpair).orders()[:4] == [27, 9, 3, 1]


def test_restrict_action_requires_invariance():
    pair = build_action(build_group("elementary_abelian(2,3)"), "jordan")
    E = pair.G
    N = subgroup_generated(E, [E.generators[2]])
    with pytest.raises(NotInvariant):
        restrict_action(pair, N)


def test_perm_realization_is_faithful_and_isomorphic():
    G = build_group("quaternion(8)")
    pair = inner_action(G)
    P = aut_as_perm_group(pair)
    assert P.order == 4  # inner automorphisms of the quaternion group
    assert P.exponent() == 2
    assert aut_perm_realization(pair) is P is pair.A
    # faithful: distinct elements of A move G's elements differently
    assert len({tuple(a(x).key for x in G.elements) for a in P.elements}) == 4


def test_action_pair_closes_generators():
    G = build_group("elementary_abelian(3,2)")
    pair = build_action(G, "full_aut")
    assert pair.A_order == 48
    assert aut_as_perm_group(pair).order == 48


def test_order_matches_quotient_triviality_consistency(sigma3):
    sigma = sigma3.A_generators[0]
    v2 = order_matches_quotient_triviality(sigma3, sigma, 2)
    v1 = order_matches_quotient_triviality(sigma3, sigma, 1)
    # order 9 divides 3^2 and sigma acts trivially mod Omega_2(H) = H
    assert v2.conclusion == "pass"
    assert v2.witnesses["power_is_trivial"] is True
    # at n = 1 the equivalence genuinely breaks on this pair: sigma^3 != 1
    # yet sigma is trivial mod Omega_1(H) = H.  This pair does not satisfy
    # the small-element-triviality hypothesis on its third term, so the
    # gated checker records it as skipped rather than failed.
    assert v1.conclusion == "fail"
    assert v1.witnesses["power_is_trivial"] is False
    assert v1.witnesses["trivial_mod_omega"] is True
    assert not is_p_central_action(sigma3, gamma_term(sigma3, 3))


MODEL_SPECS = (
    ("quaternion(8)", "inner"),
    ("heisenberg(3)", "inner"),
    ("dihedral(8)", "inner"),
    ("elementary_abelian(2,3)", "jordan"),
    ("elementary_abelian(3,2)", "full_aut"),
)


@functools.lru_cache(maxsize=None)
def _pair_with_model(gspec, aspec):
    """A catalog pair and its acting group as dicts: element key -> image key."""
    pair = build_action(build_group(gspec), aspec)
    model = [{x.key: a(x).key for x in pair.G.elements} for a in pair.A.elements]
    return pair, model


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_automorphisms_agree_with_dict_model(data):
    pair, model = _pair_with_model(*data.draw(st.sampled_from(MODEL_SPECS)))
    G, A = pair.G, pair.A.elements
    i = data.draw(st.integers(0, len(A) - 1))
    j = data.draw(st.integers(0, len(A) - 1))
    x = G.elements[data.draw(st.integers(0, G.order - 1))]
    a, b, ma, mb = A[i], A[j], model[i], model[j]
    assert (a * b)(x).key == ma[mb[x.key]]
    assert a.inverse()(a(x)) == x
    assert a.inverse()(x).key == {v: k for k, v in ma.items()}[x.key]
    # the order is the least k for which a^k fixes every generator
    k, power = 1, ma
    while any(power[g.key] != g.key for g in G.generators):
        power = {key: ma[v] for key, v in power.items()}
        k += 1
    assert a.order() == k
    # A is listed in the order of its generator-image key tuples
    images = [tuple(m[g.key] for g in G.generators) for m in model]
    assert images == sorted(images)


# -- generator sweeps against all-elements sweeps -------------------------

GUARD_SPECS = (
    ("heisenberg(3)", "inner"),
    ("ut(4,2)", "inner"),
    ("quaternion(8)", "inner"),
    ("elementary_abelian(3,4)", "jordan"),
    ("elementary_abelian(2,4)", "jordan_power(2)"),
    ("sigma(3)", None),
)


@functools.lru_cache(maxsize=None)
def _guard_pair(gspec, aspec):
    if aspec is None:
        return paper_sigma_pair(3)
    return build_action(build_group(gspec), aspec)


def _all_elements_fixpoint(G, seeds, maps):
    """Keys of the smallest subset of G holding the seeds and closed under
    products, conjugation by every element of G and every map."""
    found = {}
    todo = [G.identity, *seeds]
    while todo:
        x = todo.pop()
        if x.key in found:
            continue
        found[x.key] = x
        members = list(found.values())
        todo += [G.mul(x, y) for y in members] + [G.mul(y, x) for y in members]
        todo += [G.conj(x, g) for g in G.elements] + [a(x) for a in maps]
    return frozenset(found)


def _normal_by_all_elements(G, H):
    return all(G.conj(h, g).key in H.keys for g in G.elements for h in H.elements)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_normal_closure_matches_all_elements_fixpoint(data):
    pair = _guard_pair(*data.draw(st.sampled_from(GUARD_SPECS)))
    G = pair.G
    idx = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    seeds = [G.elements[i] for i in idx]
    N = normal_closure(G, seeds, pair.A_generators)
    assert N.keys == _all_elements_fixpoint(G, seeds, pair.A.elements)
    assert is_normal(G, N)
    H = subgroup_generated(G, seeds)
    assert is_normal(G, H) == _normal_by_all_elements(G, H)


@pytest.mark.parametrize("gspec,aspec", GUARD_SPECS)
def test_mixed_series_matches_definitional_on_guard_pairs(gspec, aspec):
    pair = _guard_pair(gspec, aspec)
    k_max = mixed_lower_central_series(pair).stabilized_at + 2
    terms = mixed_series_definitional(pair, k_max)
    for k in range(1, k_max + 1):
        assert gamma_term(pair, k).keys == terms[k - 1].keys, k


# [G,A] has exponent p on the first two pairs, so there omega_n([G,A]) is all
# of [G,A] and the witness is always true; the last two make it false as well
@pytest.mark.parametrize("gspec,aspec", [
    ("ut(4,2)", "inner"),
    ("sigma(3)", None),
    ("dihedral(16)", "inner"),
    ("cyclic(3,3)", "full_aut"),
])
def test_quotient_triviality_matches_all_elements_image(gspec, aspec):
    pair = _guard_pair(gspec, aspec)
    G, p = pair.G, pair.G.p
    H = _all_elements_fixpoint(
        G, [mixed_commutator(g, a) for g in G.elements for a in pair.A.elements],
        pair.A.elements)
    m = 0
    while any(a.order() % p ** (m + 1) == 0 for a in pair.A.elements):
        m += 1
    for n in range(1, m + 2):
        small = [x for x in G.elements if x.key in H and p ** n % x.order() == 0]
        omega = subgroup_generated(G, small).keys
        for sigma in pair.A.elements:
            want = {mixed_commutator(g, sigma).key for g in G.elements} <= omega
            v = order_matches_quotient_triviality(pair, sigma, n)
            assert v.witnesses["trivial_mod_omega"] is want, (n, sigma.order())


def test_quotient_triviality_commutes_only_generators(monkeypatch):
    pair = inner_action(build_group("ut(4,3)"))
    Hgrp = commutator_group_of_pair(pair)
    omega_subgroup(Hgrp, 1)
    calls = []
    real = actions._mixed_commutators

    def counting(G, cs, maps):
        calls.append(len(cs))
        return real(G, cs, maps)

    monkeypatch.setattr(actions, "_mixed_commutators", counting)
    order_matches_quotient_triviality(pair, pair.A.elements[-1], 1)
    assert calls == [len(pair.G.generators)]  # one per generator, not |G| = 729


@pytest.mark.parametrize("gspec,aspec", [
    ("dihedral(16)", "inner"), ("elementary_abelian(2,2)", "full_aut")])
def test_mixed_commutator_subgroup_is_the_second_mixed_term(gspec, aspec):
    pair = build_action(build_group(gspec), aspec)
    H = mixed_commutator_subgroup(pair)
    assert H is gamma_term(pair, 2)
    # under its full automorphism group E(2,2) has [G, A] = G
    assert (H is pair.G) == (aspec == "full_aut")
