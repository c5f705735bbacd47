"""Element backends: exact matrix arithmetic and permutation composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcentral.elements import FpMatrix, Permutation, _is_prime, decode_element
from pcentral.errors import BackendMismatch, CapExceeded, ConfigError, SingularMatrix


def schoolbook(a, b, p):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)]


def unitriangular(p, above):
    """3x3 unitriangular matrix from the three above-diagonal entries."""
    x, y, z = above
    return FpMatrix(p, [[1, x, y], [0, 1, z], [0, 0, 1]])


@st.composite
def ut3(draw, p):
    return unitriangular(p, [draw(st.integers(0, p - 1)) for _ in range(3)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_multiplication_matches_schoolbook(p):
    rng = np.random.default_rng(20240800 + p)
    for _ in range(40):
        a = rng.integers(0, p, size=(3, 3))
        b = rng.integers(0, p, size=(3, 3))
        got = FpMatrix(p, a.tolist()) * FpMatrix(p, b.tolist())
        want = schoolbook(a.tolist(), b.tolist(), p)
        assert [list(row) for row in got.rows()] == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_by_elimination_matches_power(p):
    m = unitriangular(p, (1, 0, 1))
    assert (m * m.inverse()).is_identity()
    assert m.inverse() == m ** (m.order() - 1)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(SingularMatrix):
        FpMatrix(3, [[1, 1], [1, 1]]).inverse()


def test_mixed_backends_and_shapes_rejected():
    a = FpMatrix(3, [[1, 0], [0, 1]])
    with pytest.raises(BackendMismatch):
        a * FpMatrix(5, [[1, 0], [0, 1]])
    with pytest.raises(BackendMismatch):
        a * FpMatrix(3, [[1]])
    with pytest.raises(BackendMismatch):
        a * Permutation.identity(2)


def test_prime_above_the_key_encoding_rejected_at_construction():
    FpMatrix(251, [[1, 250], [0, 1]])  # the largest prime with 1-byte entries
    with pytest.raises(CapExceeded):
        FpMatrix(257, [[1, 0], [0, 1]])
    with pytest.raises(CapExceeded):
        FpMatrix.identity(257, 2)


def test_decode_rejects_a_matrix_key_beyond_the_encoding():
    # no matrix has such a key, so a stored one is malformed input, not a cap
    key = b"\x00" + (257).to_bytes(2, "little") + b"\x01\x01"
    with pytest.raises(ValueError, match="prime 257 does not fit the 1-byte encoding"):
        decode_element(key)
    assert decode_element(b"\x00" + (251).to_bytes(2, "little") + b"\x01\xfa") == FpMatrix(
        251, [[250]])


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [
        n for n in range(10 ** 5) if _trial_division(n)]
    # strong pseudoprimes to the bases 2 and 2, 3, 5, 7
    assert not _is_prime(2047) and not _is_prime(3215031751)


def test_is_prime_decides_large_values_and_names_its_bound():
    assert _is_prime(1000000000000000003) and _is_prime(2 ** 61 - 1)
    assert not _is_prime(1000000007 * 998244353)
    # the least strong pseudoprime to every base 2 ... 41
    with pytest.raises(ConfigError, match="3317044064679887385961981"):
        _is_prime(3317044064679887385961981)


def test_key_roundtrip():
    m = unitriangular(5, (2, 3, 4))
    assert decode_element(m.key) == m
    s = Permutation([2, 0, 1, 3])
    assert decode_element(s.key) == s


def test_permutation_composition_acts_left_of_right():
    a = Permutation([1, 0, 2])
    b = Permutation([0, 2, 1])
    comp = a * b
    for i in range(3):
        assert comp(i) == a(b(i))


def test_permutation_from_cycles():
    c = Permutation.from_cycles(4, [(0, 1, 2)])
    assert tuple(c.images) == (1, 2, 0, 3)
    assert c.order() == 3
    assert (c * c * c).is_identity()


def test_permutation_inverse_and_order():
    s = Permutation([1, 2, 3, 0])
    assert s.order() == 4
    assert (s * s.inverse()).is_identity()
    assert s ** 4 == Permutation.identity(4)
    assert s ** -1 == s.inverse()


def test_key_ordering_is_total_and_stable():
    els = [unitriangular(3, (a, b, c))
           for a in range(3) for b in range(3) for c in range(3)]
    keys = sorted(e.key for e in els)
    assert len(set(keys)) == 27
    assert keys == sorted(keys)


@settings(max_examples=30, deadline=None)
@given(a=ut3(3), b=ut3(3), c=ut3(3))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(a=ut3(5), m=st.integers(0, 6), n=st.integers(0, 6))
def test_power_additivity(a, m, n):
    assert a ** m * a ** n == a ** (m + n)


@settings(max_examples=30, deadline=None)
@given(a=ut3(3), b=ut3(3))
def test_product_inverse_reverses(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()
