"""Relabeling invariance: a metamorphic oracle for the whole runner.

Every verdict concerns an isomorphism invariant, so a group rebuilt from
relabeled elements must get the same report.  Matrix groups are relabeled by
g -> T^-1 g T with a random T in GL(n, p); permutation groups by a random
injection of their points into a domain of 257 to 700 points, so that every
image fills both of its key bytes.  A small matrix group may also be carried
onto permutations, through its action on column vectors, since no built-in
permutation entry builds an automorphism from the table's columns.  Every
element key changes, and with it every canonical order, so code that silently
depends on sort order (first-found witnesses, generating sequences, coset
representatives, the Aut search order, table lookups) shows up as a changed
report.  Every entry that searches Aut(G), which walks the table's Cayley
graph, is relabeled on each run; the others are drawn.  Isomorphic catalog
specs must likewise agree on every pair check.
See T. Y. Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcentral.catalog import build_group
from pcentral.checks import PAIR_CHECKS
from pcentral.corpus import DEFAULT_CAPS, Entry, default_config, run_entry
from pcentral.elements import FpMatrix, Permutation
from pcentral.groups import GroupTable

# Aut(E(3,3)) = GL(3,3): its search alone takes over a second a run
_SLOW = {"aut--elementary-abelian-3-3"}
ENTRIES = [e for e in default_config().entries
           if e.group_spec is not None and e.entry_id not in _SLOW]
AUT_ENTRIES = [e for e in ENTRIES
               if e.action_spec == "full_aut" or "sylow_aut_exponent" in e.checks]
_BY_ID = {e.entry_id: e for e in ENTRIES}


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


def _report(entry, G=None):
    rows = [v.to_dict() for v in run_entry(entry, dict(DEFAULT_CAPS), G=G)]
    for row in rows:
        del row["millis"]
    return rows


@functools.lru_cache(maxsize=None)
def _built_report(entry_id):
    return _report(_BY_ID[entry_id])


def _relabeled(G, relabel):
    return GroupTable(map(relabel, G.elements), list(map(relabel, G.generators)),
                      p=G.p)


@st.composite
def general_linear(draw, p, n):
    """T = P L U: a permutation matrix, a unit lower and an invertible upper
    triangular matrix, which together reach every element of GL(n, p)."""
    perm = draw(st.permutations(range(n)))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    L = np.tril(np.reshape(draw(entries), (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(np.reshape(draw(entries), (n, n)), 1)
    U += np.diag(draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n)))
    return FpMatrix(p, np.eye(n, dtype=np.int64)[list(perm)] @ L @ U)


@st.composite
def point_injections(draw, degree):
    """Images of 0..degree-1 under an injection into a domain of size D."""
    size = draw(st.integers(max(degree, 257), 700))
    return np.array(draw(st.permutations(range(size)))[:degree]), size


@st.composite
def relabelings(draw, G):
    """G rebuilt from relabeled elements, its generators kept in order.  A
    matrix group is conjugated by T and, when F_p^n has at most 700 vectors,
    drawn to be carried on as the permutations its conjugate makes of the
    column vectors, which then have their points injected like a
    permutation group's."""
    x = G.elements[0]
    if isinstance(x, FpMatrix):
        T = draw(general_linear(x.p, x.n))
        T_inv = T.inverse()

        def conjugate(g: FpMatrix) -> FpMatrix:
            return T_inv * g * T
        degree = x.p ** x.n
        if degree > 700 or not draw(st.booleans()):
            return _relabeled(G, conjugate)
        vectors = np.indices((x.p,) * x.n).reshape(x.n, -1)  # column i is vector i
        place = x.p ** np.arange(x.n - 1, -1, -1)

        def points(g: FpMatrix) -> np.ndarray:
            return place @ ((conjugate(g).arr @ vectors) % x.p)
    else:
        degree = x.degree

        def points(g: Permutation) -> np.ndarray:
            return g.images
    f, size = draw(point_injections(degree))

    def move(g):
        images = np.arange(size)
        images[f] = f[points(g)]
        return Permutation(images)
    return _relabeled(G, move)


def _assert_relabeled_report_agrees(entry, data):
    G = _group(entry.group_spec)
    H = data.draw(relabelings(G), label="relabeling")
    assert H.order == G.order
    assert _report(entry, G=H) == _built_report(entry.entry_id)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_relabeled_entry_reports_the_same(data):
    _assert_relabeled_report_agrees(data.draw(st.sampled_from(ENTRIES), label="entry"), data)


@pytest.mark.parametrize("entry", AUT_ENTRIES, ids=lambda e: e.entry_id)
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_relabeled_aut_search_reports_the_same(entry, data):
    _assert_relabeled_report_agrees(entry, data)


ISOMORPHIC_PAIRS = [
    ("heisenberg(3)", "ut(3,3)", "inner"),
    ("heisenberg(3)", "ut(3,3)", "full_aut"),
    ("direct_product(quaternion(8),cyclic(2,1))",
     "direct_product(cyclic(2,1),quaternion(8))", "inner"),
    ("dihedral(8)", "wreath_cp_cp(2)", "inner"),
]


@pytest.mark.parametrize("left,right,action", ISOMORPHIC_PAIRS)
def test_isomorphic_specs_agree_on_pair_checks(left, right, action):
    def report(spec):
        return _report(Entry(spec, tuple(PAIR_CHECKS), spec, action))

    assert report(left) == report(right)
