"""Statement checkers: each evaluates a hypothesis and a conclusion separately.

Every checker returns a Verdict.  Hypotheses are computed, never assumed, so a
corpus row that fails a hypothesis is recorded as skipped rather than silently
passing, and the suite doubles as a counterexample hunter.  Sweep-style
checkers (those quantified over an index k, i or n) treat the hypothesis as
"some index qualifies" and the conclusion as "every qualifying index checks
out", recording the per-index detail in the witnesses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .actions import (
    DEFAULT_ACTION_CAP,
    ActionPair,
    _mixed_commutators,
    aut_as_perm_group,
    commutator_group_of_pair,
    gamma_term,
    induced_quotient_action,
    is_p_central_action,
    mixed_lower_central_series,
    mixed_series_definitional,
    restrict_action,
)
from .autsearch import DEFAULT_AUT_BUDGET, brute_force_aut, sylow_p_subgroup
from .catalog import paper_sigma_pair, sigma_matrix, sigma_power_closed_form
from .elements import _p_split
from .groups import (
    DEFAULT_CLOSURE_CAP,
    GroupTable,
    _inside,
    _kept,
    _rows_in,
    center,
    commutator_subgroup,
    quotient,
    subgroup_generated,
)
from .series import (
    is_omega_regular,
    is_p_central_of_height,
    lower_central_series,
    nilpotency_class,
    omega_conv,
    omega_series,
    omega_subgroup,
    small_elements_lie_in,
    upper_central_series,
    xu_inequality,
)
from .verdict import PASS, Verdict, conclude

__all__ = [
    "PAIR_CHECKS",
    "GROUP_CHECKS",
    "GROUP_PRIME_CHECKS",
    "SIGMA_CHECKS",
    "FACT_CHECKS",
    "CHECK_KINDS",
    "CHECK_KIND",
    "CHECK_CAPS",
    "ALL_CHECK_NAMES",
    "check_catalog_facts",
    "check_mixed_series_ladder",
    "check_mixed_series_oracle",
    "check_omega_center_sandwich",
    "check_xu_regularity",
    "check_omega_exponent_bound",
    "check_prime_order_action",
    "check_quotient_inheritance",
    "check_omega_ladder",
    "check_faithful_p_group",
    "check_power_order_criterion",
    "check_main_regularity",
    "check_derived_exponent",
    "check_derived_omega_identity",
    "check_sylow_aut_exponent",
    "check_normal_p_complement",
    "check_height_p_complement",
    "check_sigma_example_tightness",
]


def _p_central_on_term(pair: ActionPair, k: int) -> bool:
    return is_p_central_action(pair, gamma_term(pair, k))


def _gate(check: str, G: GroupTable,
          hypothesis: Callable[[], bool]) -> Optional[Verdict]:
    """None when G is a p-group and ``hypothesis()`` (asked only then)
    holds, else the skipped verdict."""
    if G.is_p_group and hypothesis():
        return None
    return conclude(check, False, None, {"group_is_p_group": G.is_p_group})


def _p_central_gate(check: str, pair: ActionPair) -> Optional[Verdict]:
    """_gate on A being small-element-trivial on the p-th mixed term."""
    return _gate(check, pair.G, lambda: _p_central_on_term(pair, pair.G.p))


def _inner_gate(check: str, G: GroupTable) -> Optional[Verdict]:
    """_gate on conjugation fixing every small element of the p-th lower
    central term."""
    return _gate(check, G, lambda: small_elements_lie_in(
        lower_central_series(G).term(G.p), center(G), G.p))


def _has_normal_p_complement(G: GroupTable, p: int) -> Dict[str, object]:
    """Do the p'-elements form a subgroup of full p'-order?"""
    members = (np.gcd(G._orders(), p) == 1).nonzero()[0]
    target = _p_split(G.order, p)[1]
    closed = subgroup_generated(G, members).order == len(members)
    return {
        "p_prime_element_count": len(members),
        "p_prime_part": target,
        "set_is_closed": closed,
        "complement_exists": closed and len(members) == target,
    }


def _complement_verdict(check: str, G: GroupTable, p: int, per: str,
                        rows: List[Dict[str, object]]) -> Verdict:
    """Skipped unless some row's hypothesis holds, else whether G has a
    normal p-complement."""
    witnesses = {"p": p, per: rows}
    if not any(row["hypothesis"] for row in rows):
        return conclude(check, False, None, witnesses)
    facts = _has_normal_p_complement(G, p)
    return conclude(check, True, bool(facts["complement_exists"]),
                    {**witnesses, **facts})


# -- catalog self-description --------------------------------------------


def check_catalog_facts(G: GroupTable, expected: Dict[str, object]) -> Verdict:
    """Structural facts (order, exponent, class, order histogram) against the
    values frozen from an enumeration run."""
    actual: Dict[str, object] = {
        "order": G.order,
        "exponent": G.exponent(),
        "nilpotency_class": nilpotency_class(G),
        "order_stats": {str(k): v for k, v in sorted(G.order_stats().items())},
    }
    mismatches = {k: {"expected": v, "actual": actual.get(k)}
                  for k, v in expected.items() if actual.get(k) != v}
    unknown = [k for k in expected if k not in actual]
    return conclude("catalog_facts", True, not mismatches and not unknown,
                    {"expected": expected, "actual": actual,
                     "mismatches": mismatches, "unknown_fields": unknown})


# -- mixed series structure ----------------------------------------------


def check_mixed_series_ladder(pair: ActionPair) -> Verdict:
    """Graded containment of mixed terms against the acting group's own lower
    central series, plus strict descent down to 1 for p-group pairs."""
    G = pair.G
    P = aut_as_perm_group(pair)
    hyp = G.is_p_group and P.is_p_group
    if not hyp:
        return conclude("mixed_series_ladder", False, None,
                        {"group_is_p_group": G.is_p_group,
                         "acting_group_is_p_group": P.is_p_group})
    s = mixed_lower_central_series(pair)
    alcs = lower_central_series(P)
    graded_bad: List[Dict[str, object]] = []
    for i in range(1, s.stabilized_at + 2):
        cs = _rows_in(G, s.term(i), s.term(i)._gens)
        for j in range(1, alcs.stabilized_at + 2):
            target, maps = s.term(i + j), P._images[_rows_in(P, alcs.term(j), alcs.term(j)._gens)]
            # witnesses a-major, c within a
            ws = _mixed_commutators(G, cs, maps).reshape(len(cs), len(maps)).T.ravel()
            graded_bad += [{"i": i, "j": j, "witness": G._row_key(w).hex()}
                           for w in ws[~_inside(target, G)[ws]].tolist()]
    orders = s.orders()
    descending = all(orders[i + 1] < orders[i] for i in range(s.stabilized_at))
    reaches_one = s.terms[s.stabilized_at].order == 1
    ok = not graded_bad and descending and reaches_one
    return conclude("mixed_series_ladder", True, ok,
                    {"series_orders": orders, "graded_violations": graded_bad,
                     "strictly_descending": descending, "reaches_one": reaches_one})


def check_mixed_series_oracle(pair: ActionPair, *, k_max: int = 5,
                              size_limit: int = 256) -> Verdict:
    """Recursive mixed series vs the raw left-normed-commutator enumeration.

    The size limit is the budget gate and plays the hypothesis role.
    """
    G = pair.G
    if G.order > size_limit:
        return conclude("mixed_series_oracle", False, None,
                        {"order": G.order, "size_limit": size_limit})
    defs = mixed_series_definitional(pair, k_max)
    diffs = [{"k": k, "definitional_order": defs[k - 1].order,
              "recursive_order": gamma_term(pair, k).order}
             for k in range(1, k_max + 1)
             if not np.array_equal(defs[k - 1].root_rows, gamma_term(pair, k).root_rows)]
    return conclude("mixed_series_oracle", True, not diffs,
                    {"k_max": k_max,
                     "orders": [t.order for t in defs],
                     "mismatches": diffs})


def check_omega_center_sandwich(pair: ActionPair) -> Verdict:
    """For k >= 2 with the action small-element-trivial on the k-th mixed term:
    omega of the (k-1)-th lower central term of H sits inside omega of the k-th
    mixed term, which sits inside the center of H."""
    G = pair.G
    base = G.is_p_group
    results: List[Dict[str, object]] = []
    if base:
        Hgrp = commutator_group_of_pair(pair)
        lcsH = lower_central_series(Hgrp)
        Z = center(Hgrp)
        s = mixed_lower_central_series(pair)
        k_hi = max(s.stabilized_at + 1, lcsH.stabilized_at + 2, G.p, 2)
        for k in range(2, k_hi + 1):
            hyp_k = _p_central_on_term(pair, k)
            row: Dict[str, object] = {"k": k, "hypothesis": hyp_k}
            if hyp_k:
                left = omega_conv(lcsH.term(k - 1))
                mid = omega_conv(gamma_term(pair, k))
                ok = bool(_inside(mid, left).all() and _inside(Z, mid).all())
                row.update(lower_omega=left.order, mid_omega=mid.order, ok=ok)
            results.append(row)
    return conclude("omega_center_sandwich", any(r["hypothesis"] for r in results),
                    all(r.get("ok", True) for r in results),
                    {"group_is_p_group": base, "per_k": results})


# -- regularity ----------------------------------------------------------


def check_xu_regularity(G: GroupTable) -> Verdict:
    """If small elements of the (p-1)-th lower central term are central, the
    order-p^n element sets are subgroups, and (p odd) the agemo index is
    bounded by the omega order."""
    base = G.is_p_group
    hyp = False
    witnesses: Dict[str, object] = {"group_is_p_group": base}
    if base:
        p = G.p
        term = lower_central_series(G).term(max(p - 1, 1))
        om = omega_conv(term)
        hyp = bool(_inside(center(G), om).all())
        witnesses["omega_of_term_order"] = om.order
        witnesses["central"] = hyp
    if not hyp:
        return conclude("xu_regularity", False, None, witnesses)
    m = _p_split(G.exponent(), p)[0] or 1
    per_n = []
    ok = True
    for n in range(1, m + 1):
        reg = is_omega_regular(G, n)
        row = {"n": n, "omega_set_is_subgroup": reg}
        if p != 2:
            v = xu_inequality(G, n)
            row["index_bounded"] = v.conclusion == PASS
            row.update({k: v.witnesses[k] for k in ("index", "omega_order")})
            ok &= row["index_bounded"]
        ok &= reg
        per_n.append(row)
    witnesses["per_n"] = per_n
    return conclude("xu_regularity", True, ok, witnesses)


def check_omega_exponent_bound(pair: ActionPair) -> Verdict:
    """Under the p-central hypothesis on the p-th mixed term, omega_n of
    H = [G,A] has exponent at most p^n, and for odd p the agemo index of H is
    bounded by the omega order."""
    if skipped := _p_central_gate("omega_exponent_bound", pair):
        return skipped
    p = pair.G.p
    H = commutator_group_of_pair(pair)
    m, r = _p_split(H.exponent(), p)
    per_n = []
    ok = r == 1
    for n in range(1, (m if ok else 0) + 1):
        om = omega_subgroup(H, n)
        worst = int(om._orders().max())
        row: Dict[str, object] = {"n": n, "omega_order": om.order,
                                  "max_element_order": worst,
                                  "exponent_bounded": worst <= p ** n}
        ok &= row["exponent_bounded"]
        if p != 2:
            v = xu_inequality(H, n)
            row["index_bounded"] = v.conclusion == PASS
            ok &= row["index_bounded"]
        per_n.append(row)
    return conclude("omega_exponent_bound", True, ok,
                    {"H_order": H.order, "H_exponent": H.exponent(),
                     "per_n": per_n})


def check_prime_order_action(pair: ActionPair) -> Verdict:
    """An acting group of order exactly p, small-element-trivial on the p-th
    mixed term, forces exponent at most p on [G,A]."""
    G = pair.G
    base = G.is_p_group
    hyp = base and pair.A_order == G.p and _p_central_on_term(pair, G.p)
    if not hyp:
        return conclude("prime_order_action", False, None,
                        {"group_is_p_group": base, "A_order": pair.A_order})
    H = commutator_group_of_pair(pair)
    return conclude("prime_order_action", True, H.exponent() <= G.p,
                    {"H_order": H.order, "H_exponent": H.exponent()})


# -- inheritance under quotients -----------------------------------------


def _qualifying_ks(pair: ActionPair) -> List[int]:
    """k in [1, p] with the action small-element-trivial on the k-th term;
    none unless G and A are p-groups."""
    if not (pair.G.is_p_group and aut_as_perm_group(pair).is_p_group):
        return []
    p = pair.G.p
    s = mixed_lower_central_series(pair)
    # terms past stabilization repeat, so k beyond stabilized_at + 1 names
    # a term already tested
    hi = min(p, s.stabilized_at + 1)
    return [k for k in range(1, hi + 1) if _p_central_on_term(pair, k)]


def _no_qualifying_k(check: str, pair: ActionPair) -> Verdict:
    """The skipped verdict of a check quantified over qualifying k."""
    return conclude(check, False, None,
                    {"group_is_p_group": pair.G.is_p_group,
                     "acting_group_is_p_group": aut_as_perm_group(pair).is_p_group,
                     "qualifying_ks": []})


def check_quotient_inheritance(pair: ActionPair) -> Verdict:
    """A p-group action small-element-trivial on the k-th mixed term (k <= p)
    stays so after factoring out each omega term of H = [G,A]."""
    ks = _qualifying_ks(pair)
    if not ks:
        return _no_qualifying_k("quotient_inheritance", pair)
    omegas = omega_series(commutator_group_of_pair(pair))
    detail = []
    ok = True
    for k in ks:
        for i, om in enumerate(omegas, 1):
            qpair = induced_quotient_action(pair, om)
            good = _p_central_on_term(qpair, k)
            detail.append({"k": k, "i": i, "omega_order": om.order,
                           "quotient_order": qpair.G.order, "ok": good})
            ok &= good
    return conclude("quotient_inheritance", True, ok,
                    {"qualifying_ks": ks, "per_quotient": detail})


def check_omega_ladder(pair: ActionPair) -> Verdict:
    """With L the k-th mixed term (k <= p qualifying): the action is
    small-element-trivial on L mod each omega term of L, and commutators of
    omega_i(L) with the action land in omega_{i-1}(L)."""
    ks = _qualifying_ks(pair)
    if not ks:
        return _no_qualifying_k("omega_ladder", pair)
    detail = []
    ok = True
    for k in ks:
        rpair = restrict_action(pair, gamma_term(pair, k))
        L = rpair.G
        prev = L.trivial_subgroup
        for i, omL in enumerate(omega_series(L), 1):
            qpair = induced_quotient_action(rpair, omL)
            central_above = is_p_central_action(qpair)
            steps_down = bool(_inside(prev, L)[_mixed_commutators(
                L, _rows_in(L, omL, omL._gens), [a.images for a in rpair.A_generators])].all())
            detail.append({"k": k, "i": i, "omega_order": omL.order,
                           "quotient_action_small_trivial": central_above,
                           "commutators_drop_a_level": steps_down})
            ok &= central_above and steps_down
            prev = omL
    return conclude("omega_ladder", True, ok,
                    {"qualifying_ks": ks, "per_level": detail})


# -- the acting group itself ---------------------------------------------


def check_faithful_p_group(pair: ActionPair) -> Verdict:
    """If the action is small-element-trivial on some mixed term, the (always
    faithful, automorphism-realized) acting group must be a p-group."""
    G = pair.G
    base = G.is_p_group
    per_i = [{"i": i, "hypothesis": _p_central_on_term(pair, i)}
             for i in range(1, mixed_lower_central_series(pair).stabilized_at + 3)] if base else []
    if not any(row["hypothesis"] for row in per_i):
        return conclude("faithful_p_group", False, None,
                        {"group_is_p_group": base, "per_i": per_i})
    is_pg = _p_split(pair.A_order, G.p)[1] == 1
    return conclude("faithful_p_group", True, is_pg,
                    {"per_i": per_i, "A_order": pair.A_order})


def check_power_order_criterion(pair: ActionPair) -> Verdict:
    """Under the p-central hypothesis on the p-th mixed term: each acting
    element has order dividing p^n exactly when its mixed commutators with G's
    generators (which suffice) land in omega_n of H = [G,A], for every n: one
    pass over A's orders and stacked rows, with one kernel call for all the
    commutators, failures as order_matches_quotient_triviality reports them."""
    if skipped := _p_central_gate("power_order_criterion", pair):
        return skipped
    G, A = pair.G, aut_as_perm_group(pair)
    p, exp_a = G.p, A.exponent()
    m, r = _p_split(exp_a, p)
    if r != 1:
        return conclude("power_order_criterion", True, False,
                        {"acting_exponent": exp_a,
                         "reason": "acting exponent is not a p-power"})
    H, ns, orders = commutator_group_of_pair(pair), range(1, m + 2), A._orders()
    ws = _mixed_commutators(G, G._gens, A._images).reshape(len(G._gens), A.order)
    # [row of sigma, n - 1]: sigma^(p^n) = 1, and sigma trivial mod omega_n(H)
    power = np.array([p ** n % orders == 0 for n in ns]).T
    inside = np.array([_inside(omega_subgroup(H, n), G)[ws].all(axis=0) for n in ns]).T
    failures = []
    for row, i in np.argwhere(power != inside).tolist():  # sigma-major
        k, left = int(orders[row]), bool(power[row, i])
        failures.append({"n": i + 1, "sigma_order": k, "detail": {
            "n": i + 1, "sigma_order": k, "power_is_trivial": left, "trivial_mod_omega": not left}})
    return conclude("power_order_criterion", True, not failures,
                    {"pairs_checked": A.order * len(ns), "n_max": m + 1,
                     "failures": failures})


def check_main_regularity(pair: ActionPair) -> Verdict:
    """The main regularity bundle, under small-element-triviality on the p-th
    mixed term: omega sets of H = [G,A] and of the acting group are subgroups,
    the two exponents agree, and both nilpotency classes obey n + p - 2."""
    if skipped := _p_central_gate("main_regularity", pair):
        return skipped
    p = pair.G.p
    H = commutator_group_of_pair(pair)
    P = aut_as_perm_group(pair)
    parts: Dict[str, object] = {}

    mH, rH = _p_split(H.exponent(), p)
    parts["omega_sets_subgroups_in_H"] = rH == 1 and all(
        is_omega_regular(H, i) for i in range(1, mH + 1))

    mA, rA = _p_split(P.exponent(), p)
    parts["omega_sets_subgroups_in_A"] = P.is_p_group and rA == 1 and all(
        is_omega_regular(P, i) for i in range(1, mA + 1))

    parts["equal_exponents"] = H.exponent() == P.exponent()

    cH = nilpotency_class(H)
    cA = nilpotency_class(P)
    bound = mA + p - 2 if rA == 1 else None
    parts["class_bound"] = (bound is not None and cH is not None
                            and cA is not None and cH <= bound and cA <= bound)
    ok = all(bool(v) for v in parts.values())
    return conclude("main_regularity", True, ok,
                    {**parts, "H_exponent": H.exponent(),
                     "A_exponent": P.exponent(), "H_class": cH,
                     "A_class": cA, "class_limit": bound})


# -- conjugation corollaries ---------------------------------------------


def check_derived_exponent(G: GroupTable) -> Verdict:
    """Conjugation small-element-trivial on the p-th lower central term forces
    equal exponents for the derived subgroup and the central quotient."""
    if skipped := _inner_gate("derived_exponent", G):
        return skipped
    derived = lower_central_series(G).term(2)
    Q = _kept(G, "central_quotient", lambda: quotient(G, center(G)))
    return conclude("derived_exponent", True,
                    derived.exponent() == Q.exponent(),
                    {"derived_exponent": derived.exponent(),
                     "central_quotient_exponent": Q.exponent()})


def check_derived_omega_identity(G: GroupTable) -> Verdict:
    """Sharper form: commutating the preimage of omega_k(G/Z) with G yields
    exactly omega_k of the derived subgroup, for every k."""
    if skipped := _inner_gate("derived_omega_identity", G):
        return skipped
    p = G.p
    Q = _kept(G, "central_quotient", lambda: quotient(G, center(G)))
    derived = lower_central_series(G).term(2)
    m = _p_split(Q.exponent(), p)[0]
    per_k = []
    ok = True
    for k in range(1, max(m, 1) + 1):
        X = Q.preimage(omega_subgroup(Q, k))
        left = commutator_subgroup(G, X, G)
        right = omega_subgroup(derived, k)
        same = np.array_equal(left.root_rows, right.root_rows)
        per_k.append({"k": k, "commutator_order": left.order,
                      "omega_order": right.order, "equal": same})
        ok &= same
    return conclude("derived_omega_identity", True, ok, {"per_k": per_k})


# -- full automorphism group rows ----------------------------------------


def check_sylow_aut_exponent(G: GroupTable, *,
                             budget: int = DEFAULT_AUT_BUDGET) -> Verdict:
    """Non-cyclic exponent-p groups of order at most p^p have Sylow p-subgroups
    of the automorphism group of exponent (dividing) p."""
    base = G.is_p_group
    p = G.p or 0
    hyp = (base and G.exponent() == p and G.order >= p * p
           and G.order <= p ** p)
    if not hyp:
        return conclude("sylow_aut_exponent", False, None,
                        {"group_is_p_group": base,
                         "order": G.order,
                         "exponent": G.exponent() if base else None})
    result = brute_force_aut(G, budget=budget)
    S = sylow_p_subgroup(result.perm_group, p)
    return conclude("sylow_aut_exponent", True, S.exponent() <= p,
                    {"aut_order": result.order, "sylow_order": S.order,
                     "sylow_exponent": S.exponent()})


# -- general finite groups: complements ----------------------------------


def check_normal_p_complement(G: GroupTable, p: int) -> Verdict:
    """Conjugation small-element-trivial on some lower central term forces a
    normal p-complement (the p'-elements form a full-order subgroup)."""
    Z = center(G)
    s = lower_central_series(G)
    per_i = [{"i": i, "term_order": s.term(i).order,
              "hypothesis": small_elements_lie_in(s.term(i), Z, p)}
             for i in range(1, s.stabilized_at + 2)]
    return _complement_verdict("normal_p_complement", G, p, "per_i", per_i)


def check_height_p_complement(G: GroupTable, p: int) -> Verdict:
    """Small elements inside the k-th upper central term (some k) force a
    normal p-complement."""
    per_k = [{"k": k, "hypothesis": is_p_central_of_height(G, k, p)}
             for k in range(1, upper_central_series(G).stabilized_at + 2)]
    return _complement_verdict("height_p_complement", G, p, "per_k", per_k)


# -- the explicit example ------------------------------------------------


def check_sigma_example_tightness(p: int, *, cap: int = DEFAULT_CLOSURE_CAP,
                                  action_cap: int = DEFAULT_ACTION_CAP) -> Verdict:
    """Report on the explicit rank-(p+1) example, built under the closure and
    action caps: both readings of its p-th mixed term, the p-squared acting
    order against the exponent-p commutator subgroup, and the binomial
    closed form for the acting matrix's powers."""
    pair = paper_sigma_pair(p, cap=cap, action_cap=action_cap)
    sig = pair.A_generators[0]
    H = commutator_group_of_pair(pair)
    term_def = gamma_term(pair, p)        # reading: >= p-1 acting entries
    term_deep = gamma_term(pair, p + 1)   # reading: >= p acting entries
    sig_mat = sigma_matrix(p)
    closed_form_ok = all(sigma_power_closed_form(p, n) == sig_mat ** n
                         for n in range(0, p * p + 1))
    facts = {
        "sigma_order": sig.order(),
        "H_order": H.order,
        "H_exponent": H.exponent(),
        "term_orders": mixed_lower_central_series(pair).orders(),
        "definition_reading_order": term_def.order,
        "definition_reading_small_trivial": is_p_central_action(pair, term_def),
        "deep_reading_order": term_deep.order,
        "deep_reading_small_trivial": is_p_central_action(pair, term_deep),
        "closed_form_matches_powers": closed_form_ok,
    }
    consistent = (
        facts["sigma_order"] == p * p
        and facts["H_exponent"] == p
        and facts["definition_reading_order"] == p * p
        and facts["definition_reading_small_trivial"] is False
        and facts["deep_reading_order"] == p
        and facts["deep_reading_small_trivial"] is True
        and closed_form_ok
    )
    return conclude("sigma_example_tightness", True, consistent, facts)


# -- registry ------------------------------------------------------------


PAIR_CHECKS: Dict[str, Callable[[ActionPair], Verdict]] = {
    "mixed_series_ladder": check_mixed_series_ladder,
    "mixed_series_oracle": check_mixed_series_oracle,
    "omega_center_sandwich": check_omega_center_sandwich,
    "omega_exponent_bound": check_omega_exponent_bound,
    "prime_order_action": check_prime_order_action,
    "quotient_inheritance": check_quotient_inheritance,
    "omega_ladder": check_omega_ladder,
    "faithful_p_group": check_faithful_p_group,
    "power_order_criterion": check_power_order_criterion,
    "main_regularity": check_main_regularity,
}

GROUP_CHECKS: Dict[str, Callable[[GroupTable], Verdict]] = {
    "xu_regularity": check_xu_regularity,
    "derived_exponent": check_derived_exponent,
    "derived_omega_identity": check_derived_omega_identity,
    "sylow_aut_exponent": check_sylow_aut_exponent,
}

GROUP_PRIME_CHECKS: Dict[str, Callable[[GroupTable, int], Verdict]] = {
    "normal_p_complement": check_normal_p_complement,
    "height_p_complement": check_height_p_complement,
}

SIGMA_CHECKS: Dict[str, Callable[[int], Verdict]] = {
    "sigma_example_tightness": check_sigma_example_tightness,
}

FACT_CHECKS: Dict[str, Callable[[GroupTable, Dict[str, object]], Verdict]] = {
    "catalog_facts": check_catalog_facts,
}


class CheckKind(NamedTuple):
    """A registry of checks that take the same inputs, which are called
    through the registry dict.  An input is "group" (the built group), "pair"
    (the group with the entry's action), or the entry field of that name."""
    registry: Dict[str, Callable[..., Verdict]]
    takes: Tuple[str, ...]  # the checks' positional inputs, in order
    needs: Optional[str]    # the entry field those inputs need


CHECK_KINDS = (
    CheckKind(PAIR_CHECKS, ("pair",), "action"),
    CheckKind(GROUP_CHECKS, ("group",), None),
    CheckKind(GROUP_PRIME_CHECKS, ("group", "p"), "p"),
    CheckKind(SIGMA_CHECKS, ("sigma",), "sigma"),
    CheckKind(FACT_CHECKS, ("group", "expect"), "expect"),
)

CHECK_KIND = {name: kind for kind in CHECK_KINDS for name in kind.registry}

ALL_CHECK_NAMES = set(CHECK_KIND)

# check name -> {keyword-only parameter: the configuration cap passed to it}
CHECK_CAPS: Dict[str, Dict[str, str]] = {
    "mixed_series_oracle": {"k_max": "oracle_k_max",
                            "size_limit": "oracle_size_limit"},
    "sylow_aut_exponent": {"budget": "aut_budget"},
    "sigma_example_tightness": {"cap": "closure_cap", "action_cap": "action_cap"},
}
