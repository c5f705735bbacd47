"""Differential guards for how elements store their entries.

Every matrix and permutation is checked against an int64 reference computed
from its constructor input: its key, its entries or images, products,
inverses, orders and the identity test.  The catalog's tables are pinned by
a SHA-256 of their keys in order and of their generators' keys, so a change
of storage cannot move any table's elements, order or generators.  A table
holds each element's entries once, in its key, and the bytes it holds per
element are pinned under tracemalloc.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SymPermutation

from pcentral.catalog import build_group
from pcentral.elements import FpMatrix, Permutation, decode_element
from pcentral.errors import CapExceeded
from test_relabeling import general_linear, point_injections

# (p, n) with small enough GL(n, p) for orders by repeated products
_SMALL_GL = [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 1), (5, 3), (7, 2), (7, 3)]


def _matrix_key(p, ref):
    n = len(ref)
    return b"\x00" + p.to_bytes(2, "little") + bytes((n,)) + ref.astype(np.uint8).tobytes()


def _perm_key(ref):
    return b"\x01" + len(ref).to_bytes(2, "little") + ref.astype("<u2").tobytes()


def _assert_matrix_is(x, p, ref):
    """x holds the residues `ref` (int64) mod p, by every reading."""
    n = len(ref)
    assert (x.p, x.n) == (p, n)
    assert x.key == _matrix_key(p, ref)
    assert np.array_equal(x.arr, ref) and x.arr.shape == (n, n)
    assert not x.arr.flags.writeable
    assert x.rows() == tuple(tuple(int(v) for v in row) for row in ref)
    assert x.is_identity() == bool((ref == np.eye(n, dtype=np.int64)).all())
    assert decode_element(x.key) == x


def _assert_permutation_is(x, ref):
    assert x.degree == len(ref)
    assert x.key == _perm_key(ref)
    assert np.array_equal(x.images, ref)
    assert not x.images.flags.writeable
    assert [x(i) for i in range(len(ref))] == ref.tolist()
    assert x.is_identity() == bool((ref == np.arange(len(ref))).all())
    assert decode_element(x.key) == x


@st.composite
def matrix_pairs(draw):
    """Two arbitrary (possibly singular) n x n integer arrays, entries of
    either sign, and a prime to reduce them by."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-600, 600), min_size=n * n, max_size=n * n)
    return p, np.reshape(draw(entries), (n, n)), np.reshape(draw(entries), (n, n))


@settings(max_examples=60, deadline=None)
@given(matrix_pairs())
def test_matrices_match_their_int64_reference(drawn):
    p, a, b = drawn
    ref_a, ref_b = np.mod(a, p), np.mod(b, p)
    x, y = FpMatrix(p, a.tolist()), FpMatrix(p, b)
    _assert_matrix_is(x, p, ref_a)
    _assert_matrix_is(y, p, ref_b)
    _assert_matrix_is(x * y, p, (ref_a @ ref_b) % p)
    _assert_matrix_is(x.identity_like(), p, np.eye(len(a), dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invertible_matrices_match_their_int64_reference(data):
    p, n = data.draw(st.sampled_from(_SMALL_GL), label="(p, n)")
    x = data.draw(general_linear(p, n), label="x")
    ref = np.array(x.rows(), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    inv = np.array(x.inverse().rows(), dtype=np.int64)
    assert ((ref @ inv) % p == eye).all() and ((inv @ ref) % p == eye).all()
    _assert_matrix_is(x.inverse(), p, inv)
    _assert_matrix_is(x * x.inverse(), p, eye)
    k, power = 1, ref
    while not (power == eye).all():
        power, k = (power @ ref) % p, k + 1
    assert x.order() == k
    assert FpMatrix(p, ref).order() == k  # a fresh object, no cached order
    _assert_matrix_is(x ** (k + 1), p, ref)


@st.composite
def permutation_images(draw):
    """Images of a permutation, of small degree or, by a point injection
    into 257 to 700 points, one whose images fill both key bytes."""
    degree = draw(st.integers(1, 40))
    images = np.array(draw(st.permutations(range(degree))), dtype=np.int64)
    if not draw(st.booleans()):
        return images
    f, size = draw(point_injections(degree))
    moved = np.arange(size)
    moved[f] = f[images]
    return moved


@settings(max_examples=60, deadline=None)
@given(permutation_images(), st.randoms(use_true_random=False))
def test_permutations_match_their_int64_reference(ref, rng):
    other = np.array(rng.sample(range(len(ref)), len(ref)), dtype=np.int64)
    x, y = Permutation(ref.tolist()), Permutation(other)
    _assert_permutation_is(x, ref)
    _assert_permutation_is(y, other)
    _assert_permutation_is(x * y, ref[other])
    _assert_permutation_is(x.inverse(), np.argsort(ref))
    _assert_permutation_is(x * x.inverse(), np.arange(len(ref)))
    _assert_permutation_is(x.identity_like(), np.arange(len(ref)))
    assert x.order() == SymPermutation(ref.tolist()).order()
    assert (x * y).order() == SymPermutation(ref[other].tolist()).order()


def test_identities_are_identities():
    for p, n in _SMALL_GL:
        assert FpMatrix.identity(p, n).is_identity()
        assert not FpMatrix(p, 2 * np.eye(n, dtype=np.int64)).is_identity()
    assert Permutation.identity(300).is_identity()
    assert not Permutation.from_cycles(300, [(0, 299)]).is_identity()


def test_every_constructor_keeps_the_encoding_limits():
    FpMatrix(2, np.eye(255, dtype=np.int64))  # the largest size a key byte holds
    too_big = "matrix size 256 exceeds the 1-byte encoding limit"
    for build in (lambda: FpMatrix(2, np.eye(256, dtype=np.int64)),
                  lambda: FpMatrix.identity(2, 256),
                  lambda: FpMatrix._stack(2, np.zeros((1, 256, 256), dtype=np.uint8))):
        with pytest.raises(CapExceeded, match=too_big):
            build()
    with pytest.raises(CapExceeded, match="entries mod 257 do not fit the 1-byte encoding"):
        FpMatrix._stack(257, np.zeros((1, 2, 2), dtype=np.int64))
    too_many = "degree 65536 exceeds the 2-byte encoding limit"
    for build in (lambda: Permutation(range(1 << 16)),
                  lambda: Permutation.identity(1 << 16),
                  lambda: Permutation._stack(np.zeros((1, 1 << 16), dtype=np.int64))):
        with pytest.raises(CapExceeded, match=too_many):
            build()


# every group spec of the built-in corpus, the table of its sigma--5 entry,
# and a matrix direct product and C_729 for paths the corpus does not take:
# (order, SHA-256 of the keys in order, then of the generators' keys)
CATALOG_DIGESTS = {
    "cyclic(2,1)":
        (2, "3862ea47431a5da5ec20a1e249ea997ea01c8f183369423676579a83dc946584"),
    "cyclic(2,3)":
        (8, "9215aec69cc1a26f62fba71f1cb1f15fb50d464da55031c6d5bc24e806408c8a"),
    "elementary_abelian(2,2)":
        (4, "bd3abf8f8c2a4e15a3c0b3b052fbffbff2a61b03fa483f1f2d7be468756f9edd"),
    "elementary_abelian(2,3)":
        (8, "a27656d711d9d098cdc6d8a313d810ef7634e8e42f07801eba87e9f28cd3a50f"),
    "elementary_abelian(2,4)":
        (16, "3c8a93fa65fb762c73468a0ee7256c97e3c9ed18c71c60a176786a7126dcd1d9"),
    "ut(3,2)":
        (8, "02fdd29e509c416fab25b998251aa8626830c57c71f1468b94c789fed8628f3f"),
    "ut(4,2)":
        (64, "cc3d7546b0e3246732f8cf6ecf360e80a787152068026a834c620cac5c1f1964"),
    "dihedral(8)":
        (8, "67ea5974f0a38f0edd325150d799ffd292286b3aa9eec7fa5c16687aa469c180"),
    "dihedral(16)":
        (16, "b01b42572f9d56ee6a54dfd6e83a6c7f1260950def5c7c9291902713b4754254"),
    "dihedral(32)":
        (32, "4eaac6167be763c2df00e4796fb23d386bc76d855ba00b855cd6f9f984dc0825"),
    "quaternion(8)":
        (8, "f10672b47f55876272c363f0b21ef748b075ede9a11a13a568e3c60a32c9856b"),
    "wreath_cp_cp(2)":
        (8, "2bc1e05db0f52e185d57ee15ed449e01671e3529b55558cbbaebbf0e1c4033e7"),
    "direct_product(quaternion(8), cyclic(2,1))":
        (16, "a17d24d8f36a5ec458c460783c54d3bf1e9ea40dcf038430f886e1dccebfb582"),
    "direct_product(cyclic(2,2), cyclic(2,1))":
        (8, "d87a7d898f308db666136db09f3bf830f8a427d8afc6cc122f7ce2d5f5838e97"),
    "cyclic(3,2)":
        (9, "78bb599b1f84288162b77bf01a5b8175c4740eb1ed8d6d5c6c0d2b4ea996b60a"),
    "elementary_abelian(3,2)":
        (9, "341cc45f08ae3b4bc1d73c3b74db331ba3ba0d8cb1743ac5b18969f936eacb32"),
    "elementary_abelian(3,4)":
        (81, "9dbb4dfe15bf8a38726dad066263698ac2f0d229d55826d41e7bcc7f6fc4461b"),
    "elementary_abelian(3,6)":
        (729, "0c7d2b15441ecb721eb792806b803a0a64617f58510440539430c775e5b02641"),
    "heisenberg(3)":
        (27, "6dd696292a183e7b86319e947b3a2a1255c23871aa737d9c2b1c2cdf1203b4e5"),
    "ut(4,3)":
        (729, "dbfe4adfe4de37f923c57d21ea4cc48a1592c9cf8f3755d349fcd9b50a8f9699"),
    "wreath_cp_cp(3)":
        (81, "36b3a95707bfeaa788ca6fcbdcea472a79bcaa63fa11a4d6a2a0d40f63f1e8f1"),
    "elementary_abelian(5,2)":
        (25, "146fbbb3ff819419a0d8845f78bf1c9c6010a7ed8ad78da5f09ae005c80e3a4e"),
    "elementary_abelian(5,4)":
        (625, "050a1414bca869692972c4d51207691d5c2963847c97ffd219f096a54870b907"),
    "elementary_abelian(3,3)":
        (27, "aac5b8c19b21226fdb94ed16ebfd347d2a16de6aad9bcdbbf6c65609792544bc"),
    "sym(3)":
        (6, "59a3afc71e25ab441f6bc848a02f50b4a275caae125d251caafac266ec4d3767"),
    "sym(4)":
        (24, "cadb963e261043e9d5c11a18f7af8498d4681bc190b3bf3c8c242633cb4d7717"),
    "alt(4)":
        (12, "eab0301bebf5cecea6155d540669fda9df2f2f901b2f6ac8278ee2a0655c7f78"),
    "sl2_3()":
        (24, "64af7a6e086c070c3fdf618ffbc3e10caefe7c762203a94e51f2bbffd2a2b613"),
    "dic3()":
        (12, "4fe610af3b4000eb410ae7d76e6c3975883ccc16e8f5dddbbb7d06fd825faa31"),
    "direct_product(quaternion(8), cyclic(3,1))":
        (24, "db0b05f531f0d3e66a68e2bc45242b05b883ccd66acb740d21bcf354307584cb"),
    "elementary_abelian(5,6)":
        (15625, "673d0405a446e322dd85ba8ada0fcf69049aa9d8d1c5cc76f9aa0192faaf0ec4"),
    "direct_product(heisenberg(3), elementary_abelian(3,1))":
        (81, "3cee083e6f727b45589cd1d6094aec3640c168a6c8e1f688558fdce8bb22eb22"),
    "cyclic(3,6)":
        (729, "522910d85848b2f995c4cd579177d1279d422158cde005acc85a62d2179871d1"),
}


def _table_digest(G):
    h = hashlib.sha256(b"".join(x.key for x in G.elements))
    h.update(b"".join(g.key for g in G.generators))
    return G.order, h.hexdigest()


@pytest.mark.parametrize("spec", sorted(CATALOG_DIGESTS))
def test_catalog_tables_keep_their_keys(spec):
    assert _table_digest(build_group(spec)) == CATALOG_DIGESTS[spec]


def _held_bytes_per_element(spec):
    """The bytes a built table holds, per element, under tracemalloc."""
    build_group(spec)  # imports and every cache the build fills
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = build_group(spec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / G.order


# bytes held per element (Python 3.11, numpy 2.4) when each matrix also kept
# its int64 entries as a view into the built stack, and each permutation its
# int64 images: 533 for E(5,4) and 7588 for C_729 (5832 of them images);
# with the entries in the key only they read 197 and 1636
@pytest.mark.parametrize("spec, limit", [("elementary_abelian(5,4)", 300),
                                         ("cyclic(3,6)", 2000)])
def test_tables_hold_each_entry_once(spec, limit):
    assert _held_bytes_per_element(spec) < limit
