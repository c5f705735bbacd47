"""`close` against Dimino's algorithm over element objects, kept here as the
reference.

The reference grows the group from the identity by products of element
objects (G. Butler, *Fundamental Algorithms for Permutation Groups*, 1991): a
generator g missing when reached adds the right coset Hg of the group H held
so far, then Hrs for each coset representative r and generator s with rs
new, and the table is built from the objects found.  `close` must give the
same table: the same keys in the same order, the same generator rows (the
given generators in the given order, duplicates kept), the same identity
row and prime and, for automorphisms, the same stacked images.  Both must
raise the same CapExceeded at cap n - 1 and close at cap n.

The inputs are the generators of every group spec of the built-in corpus
(with a duplicate and the identity appended), relabeled tables
(tests/test_relabeling.py), the trivial groups of empty elements, and the
acting group of every built-in action spec, plus a restricted and an
induced action.
"""

import functools
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import relabelings

from pcentral.actions import (
    ActionPair,
    induced_quotient_action,
    inner_action,
    restrict_action,
)
from pcentral.catalog import build_action, build_group
from pcentral.corpus import _DEFAULT_PAIRS, default_config
from pcentral.elements import FpMatrix, Permutation
from pcentral.errors import CapExceeded
from pcentral.groups import (
    DEFAULT_CLOSURE_CAP,
    GroupTable,
    center,
    close,
    commutator_subgroup,
    identity_automorphism,
)

GROUP_SPECS = sorted({e.group_spec for e in default_config().entries if e.group_spec})


def _dimino(generators, *, cap=DEFAULT_CLOSURE_CAP, p=None):
    """The reference closure, over element objects."""
    if not generators:
        raise ValueError("need at least one generator")
    identity = generators[0].identity_like()
    found = {identity.key: identity}
    held = [g for g in generators if g.key in found]
    for g in generators:
        if g.key in found:
            continue
        base = [h for h in found.values() if h.key != identity.key]
        held.append(g)
        reps = []
        # reps grows while the products rs are walked
        for r in chain((g,), (r * s for r in reps for s in held)):
            if r.key in found:
                continue
            reps.append(r)
            for y in chain((r,), (h * r for h in base)):
                found[y.key] = y
                if len(found) > cap:
                    raise CapExceeded(f"closure exceeded cap of {cap} elements")
    return GroupTable(found.values(), generators, p=p)


def _assert_same_table(got, want):
    assert got.order == want.order
    assert [got._row_key(i) for i in range(got.order)] == [
        want._row_key(i) for i in range(want.order)]
    assert got._gens.tolist() == want._gens.tolist()
    assert got._identity_row == want._identity_row
    assert got.p == want.p
    if want._domain is not None:
        assert got._domain is want._domain
        assert np.array_equal(got._images, want._images)


def _assert_closes_like_the_reference(generators, p):
    _assert_same_table(close(generators, p=p), _dimino(generators, p=p))


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_close_matches_the_reference_on_catalog_generators(spec):
    G = _group(spec)
    gens = list(G.generators)
    _assert_closes_like_the_reference(gens, G.p)
    _assert_closes_like_the_reference([*gens, gens[0], G.identity], G.p)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_close_matches_the_reference_on_relabeled_generators(data):
    spec = data.draw(st.sampled_from(GROUP_SPECS), label="spec")
    H = data.draw(relabelings(_group(spec)), label="relabeling")
    _assert_closes_like_the_reference(list(H.generators), H.p)


@pytest.mark.parametrize("x", [Permutation([]), FpMatrix(3, np.zeros((0, 0), dtype=np.int64))],
                         ids=["0-point", "0x0"])
def test_close_matches_the_reference_on_empty_elements(x):
    _assert_closes_like_the_reference([x, x], 3)


def _reference_A(pair):
    gens = list(pair.A_generators) or [identity_automorphism(pair.G)]
    return _dimino(gens, cap=pair.A_order, p=pair.G.p)


@pytest.mark.parametrize("gspec,aspec", sorted(set(_DEFAULT_PAIRS)) + [
    ("heisenberg(3)", "full_aut"), ("dihedral(16)", "full_aut")])
def test_acting_groups_match_the_reference(gspec, aspec):
    pair = build_action(_group(gspec), aspec)
    _assert_same_table(pair.A, _reference_A(pair))
    assert pair.A_order == pair.A.order


def test_restricted_induced_and_trivial_acting_groups_match_the_reference():
    G = _group("dihedral(16)")
    pair = inner_action(G)
    D = commutator_subgroup(G, G, G)
    pairs = [restrict_action(pair, D), induced_quotient_action(pair, center(G)),
             inner_action(G.trivial_subgroup)]
    for other in pairs:
        _assert_same_table(other.A, _reference_A(other))
    assert len(pairs[0].A_generators) > 1 and len(pairs[1].A_generators) > 1


def _one_of_each_backend():
    """(generators, p) of a matrix, a permutation and an automorphism group."""
    H, D = _group("heisenberg(3)"), _group("dihedral(16)")
    yield list(H.generators), H.p
    yield list(D.generators), D.p
    yield list(inner_action(D).A_generators), D.p


@pytest.mark.parametrize("case", range(3), ids=["matrix", "permutation", "automorphism"])
def test_close_meets_its_cap_like_the_reference(case):
    gens, p = list(_one_of_each_backend())[case]
    n = _dimino(gens, p=p).order
    for closure in (close, _dimino):
        with pytest.raises(CapExceeded, match=f"^closure exceeded cap of {n - 1} elements$"):
            closure(gens, cap=n - 1, p=p)
    _assert_same_table(close(gens, cap=n, p=p), _dimino(gens, cap=n, p=p))


def test_an_action_meets_its_cap_like_the_reference():
    G = _group("dihedral(16)")
    gens = list(inner_action(G).A_generators)
    n = _dimino(gens, p=G.p).order
    with pytest.raises(CapExceeded, match=f"^action closure exceeded cap of {n - 1}$"):
        ActionPair.build(G, gens, cap=n - 1)
    _assert_same_table(ActionPair.build(G, gens, cap=n).A, _dimino(gens, p=G.p))
