"""Exact group elements: square matrices over GF(p) and finite permutations.

Every element carries a canonical byte key.  Keys decide equality and hashing,
and their lexicographic order is the total order used to make every enumeration
in the package deterministic.  Key layout:

  matrix:       0x00 | p (2 bytes LE) | n (1 byte) | n*n entries, row-major, 1 byte each
  permutation:  0x01 | degree (2 bytes LE) | images, 2 bytes LE each
  automorphism: 0x02 | the domain generators' image keys (groups.Automorphism)

Arithmetic is exact: matrix entries are residues mod p (numpy int64 under the
hood), permutations are image tuples with composition (a*b)(i) = a(b(i)).

Group tables also multiply in batches over key bodies, the bytes after the
header: `_key_bodies` stacks them one row per element, and each backend's
`_pair_products` multiplies paired rows at once.  Keys that share a header
sort like their bodies, so a table's rows are in its order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

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

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other: "Element") -> bool:
        return self.key < other.key

    def __le__(self, other: "Element") -> bool:
        return self.key <= other.key

    def __hash__(self) -> int:
        return hash(self.key)


def _key_bodies(elements: Sequence[Element]) -> Optional[np.ndarray]:
    """The key bodies of key-sorted elements as one read-only array, a row
    each, in their backend's body dtype.  None unless the backend has batched
    kernels and all the keys share a header (one matrix size and prime, or one
    degree), which for sorted keys the first and last decide."""
    first, last = elements[0], elements[-1]
    if first._BODY is None or type(last) is not type(first):
        return None
    head, dtype = first._BODY
    if first.key[:head] != last.key[:head] or len(first.key) == head:
        return None
    keys = np.frombuffer(b"".join([x.key for x in elements]), dtype=np.uint8)
    bodies = np.ascontiguousarray(keys.reshape(len(elements), -1)[:, head:]).view(dtype)
    bodies.setflags(write=False)
    return bodies


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
    """n-by-n matrix over GF(p), entries stored reduced mod p."""

    __slots__ = ("p", "n", "arr")

    _BODY = (4, np.dtype(np.uint8))

    def __init__(self, p: int, rows: Sequence[Sequence[int]] | np.ndarray):
        _require_prime(p)
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        arr = np.mod(arr, p)
        arr.setflags(write=False)
        self._init(p, arr, arr.astype(np.uint8).tobytes())

    def _init(self, p: int, arr: np.ndarray, body: bytes) -> None:
        self.p = p
        self.n = arr.shape[0]
        self.arr = arr
        if self.n > 255:
            raise CapExceeded(f"matrix size {self.n} exceeds the 1-byte encoding limit")
        if p > 256:
            raise CapExceeded(f"entries mod {p} do not fit the 1-byte encoding")
        self.key = _header(_TAG_MATRIX, p, self.n) + body
        self._inv = None
        self._ord = None

    @classmethod
    def _wrap(cls, p: int, arr: np.ndarray) -> "FpMatrix":
        m = cls.__new__(cls)
        arr.setflags(write=False)
        m._init(p, arr, arr.astype(np.uint8).tobytes())
        return m

    @classmethod
    def _stack(cls, p: int, arrays: np.ndarray) -> List["FpMatrix"]:
        """Matrices from an (N, n, n) int64 array, which this reduces mod p
        in place and makes read-only; each matrix holds a view of it."""
        _require_prime(p)
        np.mod(arrays, p, out=arrays)
        arrays.setflags(write=False)
        bodies = arrays.astype(np.uint8).reshape(len(arrays), -1)
        matrices = [cls.__new__(cls) for _ in range(len(arrays))]
        for m, arr, body in zip(matrices, arrays, bodies):
            m._init(p, arr, body.tobytes())
        return matrices

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _require_prime(p)
        return cls._wrap(p, np.eye(n, dtype=np.int64))

    def rows(self) -> tuple:
        return tuple(tuple(int(v) for v in row) for row in self.arr)

    def __mul__(self, other: Element) -> "FpMatrix":
        if not isinstance(other, FpMatrix):
            raise BackendMismatch(f"cannot multiply FpMatrix by {type(other).__name__}")
        if other.p != self.p or other.n != self.n:
            raise BackendMismatch(
                f"matrix universes differ: GF({self.p})^{self.n} vs GF({other.p})^{other.n}"
            )
        return FpMatrix._wrap(self.p, (self.arr @ other.arr) % self.p)

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

    def _body_orders(self, bodies: np.ndarray) -> np.ndarray:
        """Orders of the matrices of this one's size and prime whose bodies
        are the rows, by batched powers: each row leaves the batch when its
        power reaches the identity."""
        n, p = self.n, self.p
        x = bodies.reshape(-1, n, n).astype(np.int64)
        orders = np.zeros(len(x), dtype=np.int64)
        live, power, k = np.arange(len(x)), x, 1
        eye = np.eye(n, dtype=np.int64)
        while len(live):
            done = (power == eye).all(axis=(1, 2))
            orders[live[done]] = k
            live, power = live[~done], power[~done]
            power = (power @ x[live]) % p
            k += 1
        return orders

    def _compute_inverse(self) -> "FpMatrix":
        """Gauss-Jordan elimination mod p."""
        p, n = self.p, self.n
        aug = [list(map(int, row)) + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(self.arr)]
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
        return FpMatrix._wrap(p, np.array([row[n:] for row in aug], dtype=np.int64))

    def identity_like(self) -> "FpMatrix":
        return FpMatrix.identity(self.p, self.n)

    def is_identity(self) -> bool:
        return bool((self.arr == np.eye(self.n, dtype=np.int64)).all())

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {[list(r) for r in self.rows()]})"


class Permutation(Element):
    """Permutation of {0, ..., degree-1}; (a*b)(i) = a(b(i))."""

    __slots__ = ("images",)

    _BODY = (3, np.dtype("<u2"))

    def __init__(self, images: Iterable[int]):
        arr = np.asarray(list(images), dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        d = arr.shape[0]
        if d >= 1 << 16:
            raise CapExceeded(f"degree {d} exceeds the 2-byte encoding limit")
        if not np.array_equal(np.sort(arr), np.arange(d)):
            raise ValueError(f"images are not a permutation of 0..{d - 1}")
        arr.setflags(write=False)
        self._init(arr)

    def _init(self, arr: np.ndarray) -> None:
        self.images = arr
        d = arr.shape[0]
        self.key = _header(_TAG_PERM, d) + arr.astype("<u2").tobytes()
        self._inv = None
        self._ord = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Permutation":
        s = cls.__new__(cls)
        arr.setflags(write=False)
        s._init(arr)
        return s

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._wrap(np.arange(degree, dtype=np.int64))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return self.images.shape[0]

    def __call__(self, i: int) -> int:
        return int(self.images[i])

    def __mul__(self, other: Element) -> "Permutation":
        if not isinstance(other, Permutation):
            raise BackendMismatch(f"cannot multiply Permutation by {type(other).__name__}")
        if len(other.images) != len(self.images):
            raise BackendMismatch(f"degrees differ: {self.degree} vs {other.degree}")
        return Permutation._wrap(self.images[other.images])

    def _pair_products(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """The key bodies of x * y for paired image rows: (x * y)(i) =
        x(y(i)), one flat gather of each left row at its right row (two to
        three times as fast as np.take_along_axis)."""
        at = rights.astype(np.intp)
        at += np.arange(0, lefts.size, lefts.shape[1])[:, None]
        return np.ascontiguousarray(lefts).ravel().take(at)

    def _compute_inverse(self) -> "Permutation":
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self.images] = np.arange(self.degree, dtype=np.int64)
        return Permutation._wrap(inv)

    def identity_like(self) -> "Permutation":
        return Permutation.identity(self.degree)

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree, dtype=np.int64)).all())

    order = _cycle_order

    def __repr__(self) -> str:
        return f"Permutation({list(map(int, self.images))})"


def decode_element(key: bytes) -> Element:
    """Rebuild an element from its canonical byte key."""
    if not key:
        raise ValueError("empty element key")
    tag = key[0]
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
        entries = np.frombuffer(body, dtype=np.uint8).astype(np.int64).reshape(n, n)
        if entries.size and int(entries.max()) >= p:
            raise ValueError(f"matrix key entry out of range mod {p}")
        return FpMatrix(p, entries)
    if tag == _TAG_PERM:
        if len(key) < 3:
            raise ValueError("truncated permutation key")
        d = int.from_bytes(key[1:3], "little")
        body = key[3:]
        if len(body) != 2 * d:
            raise ValueError(f"permutation key body has {len(body)} bytes, expected {2 * d}")
        images = np.frombuffer(body, dtype="<u2").astype(np.int64)
        return Permutation(images)
    raise ValueError(f"unknown element tag {tag}")
