"""Element lookups against a key dict, on every kind of table.

`index_of`, `canon`, `_rows` and `in` must agree with a dict from each stored
element's key to its index, built here: on matrix and permutation roots
(closed from generators and built from stacked arrays), a subgroup of a
subgroup, a quotient, an action's A closed by `close`, a searched Aut table,
relabeled and decoded roots, and the trivial groups of a 0-point permutation
and a 0x0 matrix.  Equal-key copies find the stored object.  Elements outside
the table (of the same backend, of another prime, size or degree, or of
another backend) are not found: `index_of` raises KeyError, `canon` and
`_rows` raise ValueError, and `in` is False.  The functions that take a
subgroup give the same answer for a table closed from G's own elements as
for the subgroup cut from G.
"""

import functools

import numpy as np
import pytest

from test_relabeling import _relabeled

from pcentral.actions import inner_action, is_p_central_action, restrict_action
from pcentral.autsearch import brute_force_aut
from pcentral.catalog import build_group
from pcentral.elements import FpMatrix, Permutation, decode_element
from pcentral.groups import (
    Automorphism,
    Coset,
    center,
    close,
    commutator_subgroup,
    conjugation_aut,
    identity_automorphism,
    is_normal,
    quotient,
    restrict_automorphism,
    subgroup_generated,
)


def _conjugated(x):
    """x conjugated by a fixed element of GL(3, 3)."""
    T = FpMatrix(3, [[1, 1, 0], [0, 2, 0], [1, 0, 1]])
    return T.inverse() * x * T


def _subgroup_of_subgroup(G):
    H = subgroup_generated(G, [G.generators[0], *commutator_subgroup(G, G, G).generators])
    return subgroup_generated(H, [H.generators[-1]])


@functools.lru_cache(maxsize=None)
def _table(kind):
    if kind == "matrix root":
        return build_group("heisenberg(3)")
    if kind == "stacked matrix root":
        return build_group("elementary_abelian(3,3)")
    if kind == "permutation root":
        return build_group("dihedral(16)")
    if kind == "stacked permutation root":
        return build_group("cyclic(3,2)")
    if kind == "subgroup of a subgroup":
        return _subgroup_of_subgroup(build_group("dihedral(16)"))
    if kind == "quotient":
        G = build_group("heisenberg(3)")
        return quotient(G, center(G))
    if kind == "closed A":
        return inner_action(build_group("dihedral(8)")).A
    if kind == "searched Aut":
        return brute_force_aut(build_group("quaternion(8)")).perm_group
    if kind == "relabeled root":
        return _relabeled(build_group("heisenberg(3)"), _conjugated)
    if kind == "decoded root":
        return _relabeled(build_group("dihedral(16)"), lambda x: decode_element(x.key))
    if kind == "0-point trivial":
        return close([Permutation([])], p=3)
    if kind == "0x0 trivial":
        return close([FpMatrix(3, np.zeros((0, 0), dtype=np.int64))], p=3)
    raise AssertionError(kind)


KINDS = ("matrix root", "stacked matrix root", "permutation root",
         "stacked permutation root", "subgroup of a subgroup", "quotient", "closed A",
         "searched Aut", "relabeled root", "decoded root", "0-point trivial", "0x0 trivial")


def _copy(x):
    """A new object with x's key."""
    if isinstance(x, Automorphism):
        return Automorphism(x.domain, x.images)
    if isinstance(x, Coset):
        return Coset(x.rep, x.quotient)
    return decode_element(x.key)


def _others(T, kind):
    """Elements to look up that may lie outside T: of the same backend, of
    another prime, size or degree, and of another backend."""
    x = T.elements[-1]
    matrix, permutation = FpMatrix(2, [[1, 1], [0, 1]]), Permutation.from_cycles(3, [(0, 1)])
    if kind == "subgroup of a subgroup":
        return [*T.root.elements, Permutation.identity(9), matrix]
    if kind == "quotient":
        G = T.cover
        other = quotient(G, commutator_subgroup(G, G, G))
        return [*other.elements, *G.elements[:4], FpMatrix(5, np.eye(3, dtype=np.int64)),
                permutation]
    if isinstance(x, Automorphism):
        G = x.domain
        return [*brute_force_aut(G).perm_group.elements, identity_automorphism(G) * x,
                permutation, matrix]
    if isinstance(x, FpMatrix):
        outsider = FpMatrix(x.p, np.diag([2] + [1] * (x.n - 1)))
        return [outsider, FpMatrix(5, np.eye(x.n, dtype=np.int64)),
                FpMatrix.identity(x.p, x.n + 1), permutation]
    outsider = Permutation.from_cycles(x.degree, [(0, 1)]) if x.degree > 1 else matrix
    return [outsider, Permutation.identity(x.degree + 1), matrix]


def _assert_found(T, index, y):
    i = index[y.key]
    assert y in T
    assert T.index_of(y) == i
    assert T.canon(y) is T.elements[i]
    assert T._rows([y, T.identity, y]).tolist() == [i, index[T.identity.key], i]


def _assert_missing(T, y):
    assert y not in T
    with pytest.raises(KeyError):
        T.index_of(y)
    with pytest.raises(ValueError):
        T.canon(y)
    with pytest.raises(ValueError):
        T._rows([T.identity, y])


@pytest.mark.parametrize("kind", KINDS)
def test_lookups_match_a_key_dict(kind):
    T = _table(kind)
    index = {x.key: i for i, x in enumerate(T.elements)}
    assert len(index) == T.order
    assert T._rows(T.elements).tolist() == list(range(T.order))
    assert T._rows([]).tolist() == []
    for x in T.elements:
        assert T.canon(x) is x
        _assert_found(T, index, x)
        _assert_found(T, index, _copy(x))
    missing = 0
    for y in _others(T, kind):
        if y.key in index:
            _assert_found(T, index, y)
        else:
            _assert_missing(T, y)
            missing += 1
    assert missing >= 2
    assert 3 not in T and None not in T


@pytest.mark.parametrize("spec", ["heisenberg(3)", "dihedral(16)"])
def test_a_table_closed_from_elements_of_g_acts_as_its_subgroup(spec):
    G = build_group(spec)
    pair = inner_action(G)
    D = commutator_subgroup(G, G, G)
    X = subgroup_generated(G, [G.generators[0], *D.generators])
    seeds = [G.generators[-1]]
    for H in (D, X):
        other = close(H.generators, p=G.p)
        assert other.root is not G.root and other.keys == H.keys
        assert commutator_subgroup(G, other, G).keys == commutator_subgroup(G, H, G).keys
        assert commutator_subgroup(G, G, other).keys == commutator_subgroup(G, G, H).keys
        assert is_normal(G, other) == is_normal(G, H)
        assert subgroup_generated(G, seeds, other).keys == subgroup_generated(G, seeds, H).keys
        assert is_p_central_action(pair, other) == is_p_central_action(pair, H)
    other = close(D.generators, p=G.p)
    a = conjugation_aut(G, G.generators[-1])
    b = restrict_automorphism(a, other)
    assert all(b(x).key == a(x).key for x in other.elements)
    assert restrict_action(pair, other).A_order == restrict_action(pair, D).A_order
    with pytest.raises(ValueError, match="does not belong"):
        subgroup_generated(G, [], build_group("cyclic(3,2)"))
