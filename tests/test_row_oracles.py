"""Guards for the batched, row-reading paths of two checks, each against an
element-at-a-time oracle kept here.

- The power-order criterion (`check_power_order_criterion`) against a loop
  over every sigma in A and every n of `order_matches_quotient_triviality`,
  both with the check's gate and with it lifted, so that failing rows are
  compared too.
- `mixed_series_definitional`, in both entry modes, against a breadth-first
  search whose alphabets are element objects deduplicated by key: G's
  generators and their inverses (or every element), and A's generators and
  their inverses (or every automorphism), the identity left out.  The terms
  must be the same subgroups, and the sweep must run out of budget at the
  same step count.

Both run over every built-in pair spec, the sigma pairs at p = 2 and 3, a
trivial group, and relabeled tables (`tests/test_relabeling.py`).

A serial built-in run, counted, looks up no element outside a table's
construction, multiplies element objects only where the statement checked
is about them (never in `close`), and makes a handful of element objects.
"""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import relabelings

from pcentral import checks
from pcentral.actions import (
    inner_action,
    mixed_series_definitional,
    order_matches_quotient_triviality,
    trivial_action,
)
from pcentral.catalog import build_action, build_group, paper_sigma_pair
from pcentral.checks import check_power_order_criterion
from pcentral.corpus import _DEFAULT_PAIRS, default_config, run_corpus
from pcentral.elements import FpMatrix, Permutation, _p_split
from pcentral.errors import BudgetExceeded
from pcentral.groups import Automorphism, GroupTable, QuotientGroup, subgroup_generated
from pcentral.verdict import PASS

SPECS = sorted(set(_DEFAULT_PAIRS)) + [("sigma(2)", None), ("sigma(3)", None)]
# the definitional sweep runs on the pairs the oracle check takes, |G| <= 256
SMALL = [s for s in SPECS
         if s[0] not in ("elementary_abelian(3,6)", "elementary_abelian(5,4)", "ut(4,3)")]


@functools.lru_cache(maxsize=None)
def _pair(gspec, aspec):
    if aspec is None:
        return paper_sigma_pair(int(gspec[6:-1]))
    return build_action(build_group(gspec), aspec)


def _trivial_pairs():
    G = build_group("cyclic(2,1)").trivial_subgroup
    return [inner_action(G), trivial_action(G)]


# -- the power-order criterion -----------------------------------------------


def _per_sigma_witnesses(pair):
    """The criterion's witnesses, one sigma of A and one n at a time; None
    when A's exponent is not a power of p."""
    p = pair.G.p
    m, r = _p_split(pair.A.exponent(), p)
    if r != 1:
        return None
    failures, count = [], 0
    for sigma in pair.A.elements:
        for n in range(1, m + 2):
            count += 1
            v = order_matches_quotient_triviality(pair, sigma, n)
            if v.conclusion != PASS:
                failures.append({"n": n, "sigma_order": sigma.order(),
                                 "detail": v.witnesses})
    return {"pairs_checked": count, "n_max": m + 1, "failures": failures}


def _assert_criterion_matches(pair, monkeypatch):
    want = _per_sigma_witnesses(pair)
    gated = check_power_order_criterion(pair)
    with monkeypatch.context() as m:
        m.setattr(checks, "_p_central_gate", lambda check, pair: None)
        lifted = check_power_order_criterion(pair)
    for v in (gated, lifted) if gated.hypothesis == PASS else (lifted,):
        if want is None:
            assert v.witnesses["reason"] == "acting exponent is not a p-power"
        else:
            assert v.witnesses == want
            assert v.conclusion == ("pass" if not want["failures"] else "fail")


@pytest.mark.parametrize("gspec,aspec", SPECS)
def test_power_order_criterion_matches_per_sigma_loop(gspec, aspec, monkeypatch):
    _assert_criterion_matches(_pair(gspec, aspec), monkeypatch)


def test_power_order_criterion_matches_on_a_trivial_group(monkeypatch):
    for pair in _trivial_pairs():
        _assert_criterion_matches(pair, monkeypatch)


def test_the_lifted_gate_shows_failing_rows(monkeypatch):
    # on the p = 3 example Omega_1([G, A]) = [G, A], so every sigma is
    # trivial modulo it, and the rows n = 1 of the elements of order 9 fail
    with monkeypatch.context() as m:
        m.setattr(checks, "_p_central_gate", lambda check, pair: None)
        v = check_power_order_criterion(_pair("sigma(3)", None))
    assert v.conclusion == "fail"
    assert {(f["n"], f["sigma_order"]) for f in v.witnesses["failures"]} == {(1, 9)}


# -- the definitional mixed series -------------------------------------------


def _object_alphabets(pair, entries):
    """The letters as element objects, deduplicated by key, the identity
    left out."""
    G = pair.G
    if entries == "all":
        gs = [g for g in G.elements if not g.is_identity()]
        return gs, [a for a in pair.A.elements if not a.is_identity()]
    g_letters, a_letters = {}, {}
    for g in G.generators:
        g_letters[g.key] = g
        g_letters[g.inverse().key] = g.inverse()
    for a in pair.A_generators:
        a_letters[a.key] = a
        a_letters[a.inverse().key] = a.inverse()
    return ([g for g in g_letters.values() if not g.is_identity()],
            [a for a in a_letters.values() if not a.is_identity()])


def _reference_sweep(pair, k_max, entries):
    """The terms and total step count of a breadth-first search over the
    states (value, A-entries capped at k_max - 1), a set of tuples, by the
    object alphabets: [v, g] = v^-1 g^-1 v g and [v, a] = v^-1 a(v), read
    off G's multiplication table."""
    G = pair.G
    N, cap = G.order, k_max - 1
    every = np.arange(N)
    table = G._products(np.repeat(every, N), np.tile(every, N)).reshape(N, N)
    inv = (table == G._identity_row).nonzero()[1]
    g_letters, a_letters = _object_alphabets(pair, entries)
    rights = [table[inv[G.index_of(g)]][table[:, G.index_of(g)]] for g in g_letters]
    rights += [np.asarray(a.images) for a in a_letters]
    shifts = [0] * len(g_letters) + [1] * len(a_letters)
    seen = {(0, v) for v in range(N)}
    level, steps = sorted(seen), 0
    while level:
        steps += len(level) * len(rights)
        new = set()
        for c, v in level:
            for right, shift in zip(rights, shifts):
                state = (min(c + shift, cap), int(table[inv[v], right[v]]))
                if state not in seen:
                    seen.add(state)
                    new.add(state)
        level = sorted(new)
    terms = [G] + [subgroup_generated(G, np.array(sorted({v for c, v in seen if c >= k - 1}),
                                                  dtype=np.intp))
                   for k in range(2, k_max + 1)]
    return terms, steps


def _assert_definitional_matches(pair, k_max=5):
    for entries in ("generators", "all"):
        terms, steps = _reference_sweep(pair, k_max, entries)
        got = mixed_series_definitional(pair, k_max, entries=entries, budget=steps)
        assert [t.root_rows.tolist() for t in got] == [t.root_rows.tolist() for t in terms]
        with pytest.raises(BudgetExceeded):
            mixed_series_definitional(pair, k_max, entries=entries, budget=steps - 1)


@pytest.mark.parametrize("gspec,aspec", SMALL)
def test_definitional_matches_object_alphabets(gspec, aspec):
    _assert_definitional_matches(_pair(gspec, aspec))


def test_definitional_matches_on_a_trivial_group():
    for pair in _trivial_pairs():
        _assert_definitional_matches(pair)


# -- both, on relabeled tables -------------------------------------------------

RELABELED = [s for s in SMALL if s[1] is not None]


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_row_paths_match_their_oracles_on_relabeled_tables(data):
    gspec, aspec = data.draw(st.sampled_from(RELABELED), label="pair")
    H = data.draw(relabelings(build_group(gspec)), label="relabeling")
    pair = build_action(H, aspec)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_criterion_matches(pair, monkeypatch)
    _assert_definitional_matches(pair, k_max=4)


# -- what a built-in run looks up, multiplies and makes ------------------------


def _called_inside(name):
    """Is a function of this name on the stack above the caller's caller?"""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != name:
        frame = frame.f_back
    return frame is not None


def test_a_builtin_run_reads_rows(monkeypatch, tmp_path):
    counts = {"lookups": 0, "products": 0, "products in close": 0, "made": 0}
    lookup = GroupTable._lookup

    def counted_lookup(table, xs):
        # a subgroup's lookup reaches its root's, counted once
        if len(xs) and sys._getframe(1).f_code.co_name not in ("_root", "_lookup"):
            counts["lookups"] += 1
        return lookup(table, xs)
    monkeypatch.setattr(GroupTable, "_lookup", counted_lookup)
    for cls in (FpMatrix, Permutation, Automorphism):
        def product(x, y, real=cls.__mul__):
            counts["products"] += 1
            counts["products in close"] += _called_inside("close")
            return real(x, y)
        monkeypatch.setattr(cls, "__mul__", product)
    for cls in (GroupTable, QuotientGroup):
        def make(table, row, real=cls._make):
            counts["made"] += 1
            return real(table, row)
        monkeypatch.setattr(cls, "_make", make)
    assert run_corpus(default_config(), tmp_path).exit_code == 0
    assert counts == {
        # every table built is found by its rows: no lookup outside _root
        # (before, 103: 28 conjugation maps of inner actions, 27 conjugates
        # in the Sylow search, 24 definitional alphabets and 24 Jordan maps
        # of automorphism_from_images)
        "lookups": 0,
        # only sigma_example_tightness's comparison of sig ** n with its
        # closed form, n = 0..p^2 for p = 2, 3, 5; sig ** n takes a product
        # per bit and per set bit of n: 13 + 40 + 156 (before, 512: also
        # 249 for the Jordan images and 54 for the Sylow search)
        "products": sum(bin(n).count("1") + n.bit_length()
                        for p in (2, 3, 5) for n in range(p * p + 1)),
        # close grows every group over key bodies or image rows (before,
        # its products of element objects were not counted above)
        "products in close": 0,
        # the generators of the two Aut tables that act (Aut(E(2,2)) and
        # Aut(E(3,2)), two each), and the identities of the factors of the
        # three direct products (2 * 3; before, 1 + 2 + 1, as a closed
        # quaternion(8) kept the objects it was given) (before that, 300
        # tables' objects: 205 of them omega sets, and 72 quotient keys as
        # cosets)
        "made": 2 * 2 + 2 * 3,
    }
