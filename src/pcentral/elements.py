"""Exact group elements: square matrices over GF(p) and finite permutations.

Every element carries a canonical byte key.  Keys decide equality and hashing,
and their lexicographic order is the total order used to make every enumeration
in the package deterministic.  Key layout:

  matrix:       0x00 | p (2 bytes LE) | n (1 byte) | n*n entries, row-major, 1 byte each
  permutation:  0x01 | degree (2 bytes LE) | images, 2 bytes LE each
  automorphism: 0x02 | the domain generators' image keys (groups.Automorphism)

An element's key is the only place its entries are stored: a matrix holds
its residues mod p as the key body's bytes, and a permutation its images as
the body's 2-byte words, composed by (a*b)(i) = a(b(i)).  Products, inverses
and the identity test read the body in place; `FpMatrix.arr` decodes it on
demand, and `Permutation.images` is a read-only view of it.  Arithmetic is
exact.

Group tables hold key bodies, the bytes after the header, a row per element
(`_stack` and `_key_bodies`), make an element object from its row only when
it is read (`_like`), and multiply paired rows at once (`_pair_products`).
Keys that share a header sort like their bodies, so a table's rows are in
its order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import BackendMismatch, CapExceeded, ConfigError, SingularMatrix

__all__ = [
    "Element",
    "FpMatrix",
    "Permutation",
    "decode_element",
]

_TAG_MATRIX = 0
_TAG_PERM = 1
_TAG_AUT = 2

_IMAGE = np.dtype("<u2")  # a permutation image in its key


# deterministic Miller-Rabin: these bases decide every p below the least
# strong pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Exact for p below _MR_BOUND; a larger p raises ConfigError."""
    if p >= _MR_BOUND:
        raise ConfigError(f"primality is decided only below {_MR_BOUND}, got {p}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * d with d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        if pow(a, d, p) != 1 and all(pow(a, d << r, p) != p - 1 for r in range(s)):
            return False  # p is not a strong probable prime to base a
    return True


@lru_cache(maxsize=None)
def _header(tag: int, size: int, *rest: int) -> bytes:
    """A key's header: its tag byte, a 2-byte size and any further bytes."""
    return bytes((tag,)) + size.to_bytes(2, "little") + bytes(rest)


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p!r}")


def _require_encodable(p: int, n: int) -> None:
    """A matrix key holds n and each entry in one byte."""
    if n > 255:
        raise CapExceeded(f"matrix size {n} exceeds the 1-byte encoding limit")
    if p > 256:
        raise CapExceeded(f"entries mod {p} do not fit the 1-byte encoding")


def _require_degree(d: int) -> None:
    """A permutation key holds the degree and each image in two bytes."""
    if d >= 1 << 16:
        raise CapExceeded(f"degree {d} exceeds the 2-byte encoding limit")


@lru_cache(maxsize=None)
def _product_rule(p: int, n: int) -> Tuple[np.dtype, Optional[bytes]]:
    """How FpMatrix.__mul__ multiplies n-by-n matrices mod p: in the
    narrowest unsigned dtype that holds a sum of n products of residues, so
    that the product is exact, and, when that is uint8 (small p and n), with
    the bytes.translate table that reduces each byte mod p."""
    bound = n * (p - 1) ** 2
    if bound < 1 << 8:
        return np.dtype(np.uint8), bytes(i % p for i in range(256))
    return np.dtype(np.uint16 if bound < 1 << 16 else np.uint32), None


@lru_cache(maxsize=None)
def _eye_key(p: int, n: int) -> bytes:
    """The key of the n-by-n identity matrix over GF(p)."""
    return _header(_TAG_MATRIX, p, n) + np.eye(n, dtype=np.uint8).tobytes()


@lru_cache(maxsize=None)
def _arange_key(degree: int) -> bytes:
    """The key of the identity permutation of the given degree."""
    return _header(_TAG_PERM, degree) + np.arange(degree, dtype=_IMAGE).tobytes()


def _p_split(n: int, p: int) -> Tuple[int, int]:
    """(m, r) with n = p^m * r and r prime to p."""
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return m, n


class Element:
    """Shared behaviour: key-based identity and square-and-multiply powers."""

    __slots__ = ("key", "_inv", "_ord")

    # (key header length, body dtype) for the batched kernels; elements
    # without one take the per-element path
    _BODY: Optional[Tuple[int, np.dtype]] = None

    def __mul__(self, other: "Element") -> "Element":
        raise NotImplementedError

    def _compute_inverse(self) -> "Element":
        raise NotImplementedError

    def identity_like(self) -> "Element":
        raise NotImplementedError

    def is_identity(self) -> bool:
        raise NotImplementedError

    def inverse(self) -> "Element":
        inv = self._inv
        if inv is None:
            inv = self._compute_inverse()
            self._inv = inv
        return inv

    def order(self) -> int:
        """Multiplicative order, by repeated multiplication."""
        k = self._ord
        if k is None:
            k = 1
            y = self
            while not y.is_identity():
                y = y * self
                k += 1
            self._ord = k
        return k

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.identity_like()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self.key == other.key

    def __lt__(self, other: "Element") -> bool:
        return self.key < other.key

    def __le__(self, other: "Element") -> bool:
        return self.key <= other.key

    def __hash__(self) -> int:
        return hash(self.key)


def _key_bodies(elements: Sequence[Element]) -> Optional[np.ndarray]:
    """The key bodies of elements as one array, a row each, in their
    backend's body dtype, copied in from joins of at most 1024 keys.  None
    unless the backend has batched kernels and every key shares the first's
    header and length with a body that is not empty."""
    first = elements[0]
    if first._BODY is None:
        return None
    head, dtype = first._BODY
    size, header = len(first.key), first.key[:head]
    if size == head or set(map(type, elements)) != {type(first)}:
        return None
    bodies = np.empty((len(elements), size - head), dtype=np.uint8)
    for start in range(0, len(elements), 1024):
        keys = [x.key for x in elements[start:start + 1024]]
        if set(map(len, keys)) != {size} or not all(map(bytes.startswith, keys, repeat(header))):
            return None
        joined = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), size)
        bodies[start:start + len(keys)] = joined[:, head:]
    return bodies.view(dtype)


def _cycle_order(self) -> int:
    """Order of an element stored as an index permutation `images`: the lcm
    of its cycle lengths."""
    k = self._ord
    if k is None:
        images = self.images.tolist()
        seen = bytearray(len(images))
        k = 1
        for start in range(len(images)):
            length, i = 0, start
            while not seen[i]:
                seen[i] = 1
                i = images[i]
                length += 1
            if length > 1:
                k = math.lcm(k, length)
        self._ord = k
    return k


class FpMatrix(Element):
    """n-by-n matrix over GF(p), entries stored reduced mod p, one byte each,
    in the key body only; `arr` decodes them on demand."""

    __slots__ = ("p", "n")

    _BODY = (4, np.dtype(np.uint8))

    def __init__(self, p: int, rows: Sequence[Sequence[int]] | np.ndarray):
        _require_prime(p)
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        _require_encodable(p, arr.shape[0])
        self._init(p, arr.shape[0], _header(_TAG_MATRIX, p, arr.shape[0])
                   + np.mod(arr, p).astype(np.uint8).tobytes())

    def _init(self, p: int, n: int, key: bytes) -> None:
        self.p = p
        self.n = n
        self.key = key
        self._inv = None
        self._ord = None

    @classmethod
    def _wrap(cls, p: int, n: int, key: bytes) -> "FpMatrix":
        m = cls.__new__(cls)
        m._init(p, n, key)
        return m

    @classmethod
    def _stack(cls, p: int, arrays: np.ndarray) -> np.ndarray:
        """The key bodies of the matrices of an (N, n, n) integer array,
        reduced mod p, as one array, a row each."""
        _require_prime(p)
        count, n = len(arrays), arrays.shape[1]
        _require_encodable(p, n)
        return np.mod(arrays.reshape(count, n * n), p).astype(np.uint8, copy=False)

    def _like(self, key: bytes) -> "FpMatrix":
        return FpMatrix._wrap(self.p, self.n, key)

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _require_prime(p)
        _require_encodable(p, n)
        return cls._wrap(p, n, _eye_key(p, n))

    def _body(self) -> np.ndarray:
        """The entries as a read-only uint8 view of the key body."""
        return np.ndarray((self.n, self.n), np.uint8, self.key, 4)

    @property
    def arr(self) -> np.ndarray:
        """The entries, decoded from the key as a read-only int64 array."""
        arr = self._body().astype(np.int64)
        arr.setflags(write=False)
        return arr

    def rows(self) -> tuple:
        return tuple(map(tuple, self._body().tolist()))

    def __mul__(self, other: Element) -> "FpMatrix":
        if not isinstance(other, FpMatrix):
            raise BackendMismatch(f"cannot multiply FpMatrix by {type(other).__name__}")
        if other.p != self.p or other.n != self.n:
            raise BackendMismatch(
                f"matrix universes differ: GF({self.p})^{self.n} vs GF({other.p})^{other.n}"
            )
        p, n = self.p, self.n
        dtype, reduce = _product_rule(p, n)
        prod = np.matmul(np.ndarray((n, n), np.uint8, self.key, 4),
                         np.ndarray((n, n), np.uint8, other.key, 4), dtype=dtype)
        if reduce is None:
            prod %= p
            body = prod.astype(np.uint8).tobytes()
        else:
            body = prod.tobytes().translate(reduce)
        return FpMatrix._wrap(p, n, self.key[:4] + body)

    def _pair_products(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """The key bodies of x * y for paired rows of the bodies of matrices
        of this one's size and prime, in one batched product.  It runs in
        float32, which is exact here: entries are at most 250 and n at most
        255, so every partial sum is an integer below 2^24."""
        n = self.n
        prod = (lefts.reshape(-1, n, n).astype(np.float32)
                @ rights.reshape(-1, n, n).astype(np.float32)).astype(np.int32)
        prod %= self.p
        return prod.astype(np.uint8).reshape(len(lefts), n * n)

    def _compute_inverse(self) -> "FpMatrix":
        """Gauss-Jordan elimination mod p."""
        p, n = self.p, self.n
        aug = [row + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(self._body().tolist())]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
            if pivot is None:
                raise SingularMatrix(f"matrix is singular mod {p}")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = pow(aug[col][col], -1, p)
            aug[col] = [(v * inv) % p for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
        return FpMatrix._wrap(p, n, self.key[:4] + bytes(v for row in aug for v in row[n:]))

    def identity_like(self) -> "FpMatrix":
        return FpMatrix.identity(self.p, self.n)

    def is_identity(self) -> bool:
        return self.key == _eye_key(self.p, self.n)

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {[list(r) for r in self.rows()]})"


class Permutation(Element):
    """Permutation of {0, ..., degree-1}; (a*b)(i) = a(b(i)).  The images are
    stored in the key body only; `images` is a read-only view of it."""

    __slots__ = ()

    _BODY = (3, _IMAGE)

    def __init__(self, images: Iterable[int]):
        arr = np.asarray(list(images), dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        d = arr.shape[0]
        _require_degree(d)
        if not np.array_equal(np.sort(arr), np.arange(d)):
            raise ValueError(f"images are not a permutation of 0..{d - 1}")
        self._init(_header(_TAG_PERM, d) + arr.astype(_IMAGE).tobytes())

    def _init(self, key: bytes) -> None:
        self.key = key
        self._inv = None
        self._ord = None

    @classmethod
    def _wrap(cls, key: bytes) -> "Permutation":
        s = cls.__new__(cls)
        s._init(key)
        return s

    @classmethod
    def _stack(cls, images: np.ndarray) -> np.ndarray:
        """The key bodies of the permutations that are the rows of an
        (N, degree) integer array, as one array of images."""
        _require_degree(images.shape[1])
        return images.astype(_IMAGE)

    def _like(self, key: bytes) -> "Permutation":
        return Permutation._wrap(key)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        _require_degree(degree)
        return cls._wrap(_arange_key(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                images[a] = b
        return cls(images)

    @property
    def images(self) -> np.ndarray:
        """The images, a read-only <u2 view of the key body."""
        return np.frombuffer(self.key, _IMAGE, offset=3)

    @property
    def degree(self) -> int:
        return int.from_bytes(self.key[1:3], "little")

    def __call__(self, i: int) -> int:
        return int(self.images[i])

    def __mul__(self, other: Element) -> "Permutation":
        if not isinstance(other, Permutation):
            raise BackendMismatch(f"cannot multiply Permutation by {type(other).__name__}")
        if len(other.key) != len(self.key):
            raise BackendMismatch(f"degrees differ: {self.degree} vs {other.degree}")
        key = self.key
        if len(key) <= 3 + 2 * 256:
            # every image is its low byte (the high bytes are 0), so (x*y)(i)
            # = x(y(i)) is one translation of y's low bytes by x's
            body = bytearray(len(key) - 3)
            body[::2] = other.key[3::2].translate(key[3::2].ljust(256, b"\0"))
        else:
            body = self.images.take(other.images, mode="clip").tobytes()
        return Permutation._wrap(key[:3] + body)

    def _pair_products(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """The key bodies of x * y for paired image rows: (x * y)(i) =
        x(y(i)), one flat gather of each left row at its right row (two to
        three times as fast as np.take_along_axis)."""
        at = rights.astype(np.intp)
        at += np.arange(0, lefts.size, lefts.shape[1])[:, None]
        return np.ascontiguousarray(lefts).ravel().take(at)

    def _compute_inverse(self) -> "Permutation":
        inv = np.empty(self.degree, dtype=_IMAGE)
        inv[self.images] = np.arange(self.degree, dtype=_IMAGE)
        return Permutation._wrap(self.key[:3] + inv.tobytes())

    def identity_like(self) -> "Permutation":
        return Permutation.identity(self.degree)

    def is_identity(self) -> bool:
        return self.key == _arange_key(self.degree)

    order = _cycle_order

    def __repr__(self) -> str:
        return f"Permutation({self.images.tolist()})"


def decode_element(key: bytes) -> Element:
    """Rebuild an element from its canonical byte key, which is validated and
    then held as it is."""
    if not key:
        raise ValueError("empty element key")
    key, tag = bytes(key), key[0]
    if tag == _TAG_MATRIX:
        if len(key) < 4:
            raise ValueError("truncated matrix key")
        p = int.from_bytes(key[1:3], "little")
        if p > 256:  # no FpMatrix has one: its entries take one byte each
            raise ValueError(f"matrix key prime {p} does not fit the 1-byte encoding")
        n = key[3]
        body = key[4:]
        if len(body) != n * n:
            raise ValueError(f"matrix key body has {len(body)} bytes, expected {n * n}")
        if body and max(body) >= p:
            raise ValueError(f"matrix key entry out of range mod {p}")
        _require_prime(p)
        return FpMatrix._wrap(p, n, key)
    if tag == _TAG_PERM:
        if len(key) < 3:
            raise ValueError("truncated permutation key")
        d = int.from_bytes(key[1:3], "little")
        if len(key) != 3 + 2 * d:
            raise ValueError(f"permutation key body has {len(key) - 3} bytes, expected {2 * d}")
        if not np.array_equal(np.sort(np.frombuffer(key, _IMAGE, offset=3)), np.arange(d)):
            raise ValueError(f"images are not a permutation of 0..{d - 1}")
        return Permutation._wrap(key)
    raise ValueError(f"unknown element tag {tag}")
