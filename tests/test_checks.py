"""Checker verdicts on hand-verified rows: hypothesis/conclusion pairs and witnesses."""

import inspect
from functools import lru_cache

import pytest

from pcentral import checks as C
from pcentral.actions import mixed_commutator
from pcentral.autsearch import brute_force_aut
from pcentral.catalog import build_action, build_group
from pcentral.checks import ALL_CHECK_NAMES, PAIR_CHECKS
from pcentral.elements import _p_split
from pcentral.series import SeriesRecord, is_omega_regular, lower_central_series


@lru_cache(maxsize=None)
def group(spec):
    return build_group(spec)


@lru_cache(maxsize=None)
def pair(gspec, aspec):
    return build_action(group(gspec), aspec)


def assert_verdict(v, expected):
    """Check the (hypothesis, conclusion) row plus the schema invariants."""
    assert v.check in ALL_CHECK_NAMES
    assert v.millis >= 0
    assert (v.conclusion == "skipped") == (v.hypothesis == "fail")
    assert (v.hypothesis, v.conclusion) == expected, v.witnesses


# -- pair checks ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PAIR_CHECKS))
def test_heisenberg_inner_battery(name):
    v = PAIR_CHECKS[name](pair("heisenberg(3)", "inner"))
    # the inner action has order 9, so the prime-order hypothesis fails
    expected = ("fail", "skipped") if name == "prime_order_action" else ("pass", "pass")
    assert_verdict(v, expected)


@pytest.mark.parametrize("name", sorted(PAIR_CHECKS))
def test_quaternion_inner_battery(name):
    v = PAIR_CHECKS[name](pair("quaternion(8)", "inner"))
    expected = ("fail", "skipped") if name == "prime_order_action" else ("pass", "pass")
    assert_verdict(v, expected)


@pytest.mark.parametrize("name", sorted(PAIR_CHECKS))
def test_battery_on_an_action_without_generators(name):
    # Aut(C_2) is trivial: A = 1 has prime order for no prime, and every
    # statement about [G, A] = 1 holds
    v = PAIR_CHECKS[name](pair("cyclic(2,1)", "full_aut"))
    expected = ("fail", "skipped") if name == "prime_order_action" else ("pass", "pass")
    assert_verdict(v, expected)


def test_checks_make_no_element_products(arithmetic):
    # the checks take mixed commutators from one kernel call and orders from
    # the table's kept orders, so they multiply no element objects
    G = build_group("heisenberg(3)")
    built = build_action(G, "inner")
    products = {}
    for name, run in [
            ("mixed_series_ladder", lambda: C.check_mixed_series_ladder(built)),
            ("omega_ladder", lambda: C.check_omega_ladder(built)),
            ("power_order_criterion", lambda: C.check_power_order_criterion(built)),
            ("omega_exponent_bound", lambda: C.check_omega_exponent_bound(built)),
            ("normal_p_complement", lambda: C.check_normal_p_complement(G, 3)),
            ("brute_force_aut", lambda: brute_force_aut(G))]:
        arithmetic.update(products=0)
        run()
        products[name] = arithmetic["products"]
    assert products == dict.fromkeys(products, 0)


def test_graded_violations_list_each_commutator_a_major(monkeypatch):
    # against a series that drops to 1 at once, every nontrivial [c, a] is
    # a violation, listed by i, j, then a, then c, as the nested loops over
    # element objects list them
    pr = pair("heisenberg(3)", "inner")
    G = pr.G
    s = SeriesRecord((G, G.trivial_subgroup, G.trivial_subgroup), 1)
    monkeypatch.setattr(C, "mixed_lower_central_series", lambda _: s)
    alcs = lower_central_series(pr.A)

    def violations(a_major):
        rows = []
        for i in (1, 2):
            for j in range(1, alcs.stabilized_at + 2):
                cs, maps = s.term(i).generators, alcs.term(j).generators
                pairs = ([(c, a) for a in maps for c in cs] if a_major
                         else [(c, a) for c in cs for a in maps])
                rows += [{"i": i, "j": j, "witness": w.key.hex()} for c, a in pairs
                         if not (w := mixed_commutator(c, a)).is_identity()]
        return rows

    assert violations(True) != violations(False)
    assert C.check_mixed_series_ladder(pr).witnesses["graded_violations"] == violations(True)


@pytest.mark.parametrize("name,expected", [
    ("main_regularity", ("fail", "skipped")),
    ("omega_exponent_bound", ("fail", "skipped")),
    ("power_order_criterion", ("fail", "skipped")),
    ("mixed_series_ladder", ("pass", "pass")),
    ("mixed_series_oracle", ("pass", "pass")),
])
def test_dihedral_16_inner(name, expected):
    # dihedral groups of order >= 16 are not p-centrally acted on by inner
    assert_verdict(PAIR_CHECKS[name](pair("dihedral(16)", "inner")), expected)


@pytest.mark.parametrize("name,expected", [
    ("main_regularity", ("fail", "skipped")),
    ("mixed_series_ladder", ("pass", "pass")),
    ("mixed_series_oracle", ("pass", "pass")),
    ("faithful_p_group", ("pass", "pass")),
    ("omega_center_sandwich", ("pass", "pass")),
])
def test_jordan_pair_surface_reading(name, expected):
    # the single-jordan-block action fixes Omega_1 pointwise only after
    # passing to the commutator subgroup, so the direct hypothesis fails
    assert_verdict(PAIR_CHECKS[name](pair("elementary_abelian(3,4)", "jordan")), expected)


@pytest.mark.parametrize("name", [
    "main_regularity", "prime_order_action", "power_order_criterion",
    "quotient_inheritance", "omega_ladder",
])
def test_jordan_power_pair_passes(name):
    v = PAIR_CHECKS[name](pair("elementary_abelian(3,4)", "jordan_power(3)"))
    assert_verdict(v, ("pass", "pass"))


def test_ut_4_2_inner_main_hypothesis_fails():
    # gamma_2 contains a non-central involution, so the action is not
    # 4-central on the second term and main_regularity must be skipped
    v = C.check_main_regularity(pair("ut(4,2)", "inner"))
    assert_verdict(v, ("fail", "skipped"))


def test_faithful_negative_control_records_every_index():
    v = C.check_faithful_p_group(pair("elementary_abelian(3,2)", "full_aut"))
    assert_verdict(v, ("fail", "skipped"))
    per_i = v.witnesses["per_i"]
    assert per_i and all(row["hypothesis"] is False for row in per_i)


def test_main_regularity_witness_parts():
    v = C.check_main_regularity(pair("heisenberg(3)", "inner"))
    w = v.witnesses
    for part in ("omega_sets_subgroups_in_H", "omega_sets_subgroups_in_A",
                 "equal_exponents", "class_bound"):
        assert w[part] is True
    assert w["H_exponent"] == w["A_exponent"] == 3


# -- normal-complement checks --------------------------------------------


@pytest.mark.parametrize("spec,p,expected", [
    ("sym(3)", 2, ("pass", "pass")),
    ("sym(3)", 3, ("fail", "skipped")),
    ("dic3()", 2, ("pass", "pass")),
    ("dic3()", 3, ("fail", "skipped")),
    ("direct_product(quaternion(8),cyclic(3,1))", 2, ("pass", "pass")),
    ("alt(4)", 3, ("pass", "pass")),
    ("alt(4)", 2, ("fail", "skipped")),
    ("sym(4)", 2, ("fail", "skipped")),
    ("sl2_3()", 2, ("fail", "skipped")),
])
def test_normal_p_complement(spec, p, expected):
    assert_verdict(C.check_normal_p_complement(group(spec), p), expected)


@pytest.mark.parametrize("spec,p,expected", [
    ("sym(3)", 2, ("fail", "skipped")),
    ("direct_product(quaternion(8),cyclic(3,1))", 2, ("pass", "pass")),
    ("direct_product(quaternion(8),cyclic(3,1))", 3, ("pass", "pass")),
    ("sl2_3()", 2, ("fail", "skipped")),
])
def test_height_p_complement(spec, p, expected):
    assert_verdict(C.check_height_p_complement(group(spec), p), expected)


# -- per-group checks ----------------------------------------------------


@pytest.mark.parametrize("spec,expected", [
    ("heisenberg(3)", ("pass", "pass")),
    ("ut(4,3)", ("pass", "pass")),
    ("wreath_cp_cp(3)", ("pass", "pass")),
    ("dihedral(8)", ("pass", "pass")),
    ("quaternion(8)", ("pass", "pass")),
    ("dihedral(16)", ("fail", "skipped")),
    ("elementary_abelian(3,3)", ("pass", "pass")),
])
def test_derived_subgroup_checks(spec, expected):
    assert_verdict(C.check_derived_exponent(group(spec)), expected)
    assert_verdict(C.check_derived_omega_identity(group(spec)), expected)


def test_derived_exponent_witness_values():
    v = C.check_derived_exponent(group("heisenberg(3)"))
    assert v.witnesses["derived_exponent"] == 3
    assert v.witnesses["central_quotient_exponent"] == 3
    v = C.check_derived_exponent(group("quaternion(8)"))
    assert v.witnesses["derived_exponent"] == 2
    assert v.witnesses["central_quotient_exponent"] == 2


@pytest.mark.parametrize("spec,expected", [
    ("heisenberg(3)", ("pass", "pass")),
    ("dihedral(8)", ("fail", "skipped")),
    ("quaternion(8)", ("fail", "skipped")),
    ("ut(4,3)", ("fail", "skipped")),
    ("elementary_abelian(3,4)", ("pass", "pass")),
    ("cyclic(2,3)", ("pass", "pass")),
])
def test_xu_regularity(spec, expected):
    assert_verdict(C.check_xu_regularity(group(spec)), expected)


@pytest.mark.parametrize("spec,expected", [
    ("elementary_abelian(2,2)", ("pass", "pass")),
    ("elementary_abelian(3,2)", ("pass", "pass")),
    ("cyclic(3,2)", ("fail", "skipped")),      # cyclic, so no exponent-p generation
    ("elementary_abelian(2,3)", ("fail", "skipped")),  # |G| = 8 > 2^2
    ("quaternion(8)", ("fail", "skipped")),
])
def test_sylow_aut_exponent(spec, expected):
    assert_verdict(C.check_sylow_aut_exponent(group(spec)), expected)


def test_sylow_aut_exponent_witnesses():
    v = C.check_sylow_aut_exponent(group("elementary_abelian(3,2)"))
    assert v.witnesses["aut_order"] == 48
    assert v.witnesses["sylow_order"] == 3
    assert v.witnesses["sylow_exponent"] == 3


# -- expectation and report checks ---------------------------------------


def test_catalog_facts_pass_and_fail():
    G = group("quaternion(8)")
    good = {"order": 8, "exponent": 4, "nilpotency_class": 2,
            "order_stats": {"1": 1, "2": 1, "4": 6}}
    assert_verdict(C.check_catalog_facts(G, good), ("pass", "pass"))

    v = C.check_catalog_facts(G, {"order": 8, "exponent": 2})
    assert_verdict(v, ("pass", "fail"))
    assert v.witnesses["mismatches"] == {"exponent": {"expected": 2, "actual": 4}}


@pytest.mark.parametrize("p", [2, 3])
def test_sigma_example_tightness(p):
    v = C.check_sigma_example_tightness(p)
    assert_verdict(v, ("pass", "pass"))
    w = v.witnesses
    assert w["sigma_order"] == p * p
    assert w["H_exponent"] == p
    assert w["definition_reading_order"] == p * p
    assert w["definition_reading_small_trivial"] is False
    assert w["deep_reading_order"] == p
    assert w["deep_reading_small_trivial"] is True
    assert w["closed_form_matches_powers"] is True


# -- the check table -----------------------------------------------------


def test_every_check_is_in_exactly_one_registry():
    for name in ALL_CHECK_NAMES:
        assert sum(name in kind.registry for kind in C.CHECK_KINDS) == 1, name


def test_check_caps_are_configured_keyword_parameters():
    from pcentral.corpus import DEFAULT_CAPS

    for name, caps in C.CHECK_CAPS.items():
        params = inspect.signature(C.CHECK_KIND[name].registry[name]).parameters
        for keyword, cap in caps.items():
            assert cap in DEFAULT_CAPS, (name, cap)
            assert params[keyword].kind is inspect.Parameter.KEYWORD_ONLY, (name, keyword)


# -- closure predicates against a product sweep ---------------------------


def _closed_under_products(G, members):
    """Is `members` closed under G's product (all of G always is)?"""
    keys = {x.key for x in members}
    return len(keys) == G.order or all(
        G.mul(x, y).key in keys for x in members for y in members)


@pytest.mark.parametrize("gspec,aspec", [
    ("ut(4,3)", None), ("wreath_cp_cp(3)", None), ("dihedral(32)", None),
    ("sym(4)", None), ("sl2_3()", None), ("dic3()", None),
    ("ut(4,2)", "inner"), ("elementary_abelian(3,2)", "full_aut"),
])
def test_closure_predicates_match_product_sweep(gspec, aspec):
    # with an action, the table under test is the acting group A
    G = pair(gspec, aspec).A if aspec else group(gspec)
    if G.is_p_group:
        m = _p_split(G.exponent(), G.p)[0]
        for i in range(1, m + 1):
            small = [x for x in G.elements if G.p ** i % x.order() == 0]
            assert is_omega_regular(G, i) == _closed_under_products(G, small), i
    for p in (q for q in (2, 3) if G.order % q == 0):
        p_prime = [x for x in G.elements if x.order() % p != 0]
        facts = C._has_normal_p_complement(G, p)
        assert facts["set_is_closed"] == _closed_under_products(G, p_prime), p
