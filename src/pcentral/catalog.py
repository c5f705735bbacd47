"""Deterministic constructors for the group and action corpus.

Family specs are little expressions like ``heisenberg(3)`` or
``direct_product(quaternion(8), cyclic(3,1))``; the same grammar also names
actions (``inner``, ``jordan_power(3)``).  Building the same spec twice yields
byte-identical element key sets, so specs can serve as cache keys and as the
reproducer-bundle vocabulary.

Matrix-backed families: elementary abelian groups (as affine row matrices),
unitriangular groups and the Heisenberg group.  Everything else rides the
permutation backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from .actions import DEFAULT_ACTION_CAP, ActionPair, inner_action, trivial_action
from .autsearch import DEFAULT_AUT_BUDGET, brute_force_aut
from .elements import FpMatrix, Permutation, _is_prime, _p_split, _require_degree
from .errors import CapExceeded, ConfigError, UnknownFamily
from .groups import DEFAULT_CLOSURE_CAP, GroupTable, automorphism_from_images, close

__all__ = [
    "FamilySpec",
    "parse_family",
    "build_group",
    "build_action",
    "paper_sigma_pair",
    "sigma_matrix",
    "sigma_power_closed_form",
    "FAMILY_NAMES",
    "ACTION_NAMES",
]


# -- spec grammar --------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Parsed spec: a name plus integer or nested-spec arguments."""

    name: str
    args: Tuple[Union[int, "FamilySpec"], ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ConfigError:
        return ConfigError(f"spec {self.text!r}: {message} at position {self.pos}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_spec(self) -> FamilySpec:
        self.skip_ws()
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.text[start:self.pos].lower()
        if not name or name[0].isdigit():
            raise self.error("expected a family name")
        args: List[Union[int, FamilySpec]] = []
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            self.skip_ws()
            if self.peek() == ")":
                self.pos += 1
            else:
                while True:
                    args.append(self.parse_arg())
                    self.skip_ws()
                    if self.peek() == ",":
                        self.pos += 1
                        continue
                    if self.peek() == ")":
                        self.pos += 1
                        break
                    raise self.error("expected ',' or ')'")
        return FamilySpec(name, tuple(args))

    def parse_arg(self) -> Union[int, FamilySpec]:
        self.skip_ws()
        if self.peek().isdigit():
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            return int(self.text[start:self.pos])
        return self.parse_spec()


def parse_family(text: str) -> FamilySpec:
    parser = _Parser(text)
    spec = parser.parse_spec()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return spec


def _int_args(spec: FamilySpec, count: int) -> List[int]:
    if len(spec.args) != count or not all(isinstance(a, int) for a in spec.args):
        raise ConfigError(
            f"{spec.name} takes {count} integer argument(s), got {spec}")
    return list(spec.args)  # type: ignore[arg-type]


def _prime_power_base(n: int):
    """The prime p with n = p^k (k >= 1), or None."""
    if n < 2:
        return None
    p = next(d for d in range(2, n + 1) if n % d == 0)  # the least divisor is prime
    return p if _p_split(n, p)[1] == 1 else None


# -- matrix-backed families ----------------------------------------------


def _elementary_abelian(p: int, n: int, cap: int) -> GroupTable:
    """The affine row matrices [[1, v], [0, I]], which multiply by adding
    their rows v, built as a table of the key bodies of one stacked array,
    with v in key order."""
    if not _is_prime(p) or n < 1:
        raise ConfigError(f"elementary_abelian needs a prime and a rank >= 1, got ({p},{n})")
    if p ** n > cap:
        raise CapExceeded(f"|G| = {p}^{n} exceeds cap {cap}")
    stack = np.tile(np.eye(n + 1, dtype=np.uint8), (p ** n, 1, 1))
    stack[:, 0, 1:] = np.indices((p,) * n).reshape(n, -1).T
    # generated by the unit vectors e_1, ..., e_n
    return GroupTable._of_bodies(FpMatrix._stack(p, stack), FpMatrix.identity(p, n + 1),
                                 [p ** (n - 1 - i) for i in range(n)], p)


def _unitriangular(n: int, p: int, cap: int) -> GroupTable:
    if n < 2 or not _is_prime(p):
        raise ConfigError(f"ut needs a size >= 2 and a prime, got ({n},{p})")
    gens = []
    for i in range(n - 1):
        arr = np.eye(n, dtype=np.int64)
        arr[i, i + 1] = 1
        gens.append(FpMatrix(p, arr))
    return close(gens, cap=cap, p=p)


def _heisenberg(p: int, cap: int) -> GroupTable:
    if not _is_prime(p):
        raise ConfigError(f"heisenberg needs a prime, got {p}")
    return _unitriangular(3, p, cap)


# -- permutation-backed families -----------------------------------------


def _cyclic(p: int, n: int, cap: int) -> GroupTable:
    if not _is_prime(p) or n < 1:
        raise ConfigError(f"cyclic needs a prime and an exponent >= 1, got ({p},{n})")
    m = p ** n
    if m > cap:
        raise CapExceeded(f"|G| = {p}^{n} exceeds cap {cap}")
    _require_degree(m)
    # row k, the shift i -> i + k, is a window of 0..m-1 written twice
    points = np.arange(2 * m, dtype=np.uint32) % m
    shifts = Permutation._stack(np.lib.stride_tricks.sliding_window_view(points, m)[:m])
    return GroupTable._of_bodies(shifts, Permutation.identity(m), [1 % m], p)


def _dihedral(order: int, cap: int) -> GroupTable:
    if order == 4:
        a = Permutation.from_cycles(4, [(0, 1)])
        b = Permutation.from_cycles(4, [(2, 3)])
        return close([a, b], cap=cap, p=2)
    if order < 6 or order % 2:
        raise ConfigError(f"dihedral takes an even order >= 4, got {order}")
    k = order // 2
    rot = Permutation([(i + 1) % k for i in range(k)])
    flip = Permutation([(k - i) % k for i in range(k)])
    return close([rot, flip], cap=cap, p=_prime_power_base(order))


_QUATERNION_UNITS = ("1", "i", "j", "k")
_QUATERNION_MUL = {  # (sign, unit) of the product of two units
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _quaternion(order: int, cap: int) -> GroupTable:
    if order != 8:
        raise ConfigError(f"quaternion is catalogued only at order 8, got {order}")
    basis = [(s, u) for u in _QUATERNION_UNITS for s in (1, -1)]
    index = {q: i for i, q in enumerate(basis)}

    def mul(a, b):
        sign, unit = _QUATERNION_MUL[(a[1], b[1])]
        return (a[0] * b[0] * sign, unit)

    def left_mult(g) -> Permutation:
        return Permutation([index[mul(g, x)] for x in basis])

    return close([left_mult((1, "i")), left_mult((1, "j"))], cap=cap, p=2)


def _wreath_cp_cp(p: int, cap: int) -> GroupTable:
    if not _is_prime(p):
        raise ConfigError(f"wreath_cp_cp needs a prime, got {p}")
    m = p * p
    if p ** (p + 1) > cap:
        raise CapExceeded(f"|G| = {p}^{p + 1} exceeds cap {cap}")
    base = Permutation.from_cycles(m, [tuple(range(p))])  # cycle the first block
    top = Permutation([(i + p) % m for i in range(m)])    # rotate the blocks
    return close([base, top], cap=cap, p=p)


def _sym(n: int, cap: int) -> GroupTable:
    if n < 2:
        raise ConfigError(f"sym needs n >= 2, got {n}")
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return close(gens, cap=cap, p=_prime_power_base(math.factorial(n)))


def _alt(n: int, cap: int) -> GroupTable:
    if n < 3:
        raise ConfigError(f"alt needs n >= 3, got {n}")
    gens = [Permutation.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return close(gens, cap=cap, p=_prime_power_base(math.factorial(n) // 2))


def _sl2_3(cap: int) -> GroupTable:
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def as_perm(m) -> Permutation:
        return Permutation([index[((m[0][0] * a + m[0][1] * b) % 3,
                                   (m[1][0] * a + m[1][1] * b) % 3)]
                            for (a, b) in vectors])

    s = as_perm(((0, 2), (1, 0)))   # [[0,-1],[1,0]]
    t = as_perm(((1, 1), (0, 1)))   # [[1,1],[0,1]]
    return close([s, t], cap=cap)


def _dic3(cap: int) -> GroupTable:
    a = Permutation.from_cycles(7, [(0, 1, 2)])
    x = Permutation.from_cycles(7, [(1, 2), (3, 4, 5, 6)])
    return close([a, x], cap=cap)


def _direct_product(g1: GroupTable, g2: GroupTable, cap: int) -> GroupTable:
    if g1.order * g2.order > cap:
        raise CapExceeded(f"|G| = {g1.order}*{g2.order} exceeds cap {cap}")
    e1, e2 = g1.identity, g2.identity
    if isinstance(e1, Permutation) and isinstance(e2, Permutation):
        identity = Permutation.identity(e1.degree + e2.degree)

        def pairs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            return Permutation._stack(np.hstack([xs, ys.astype(np.int32) + e1.degree]))
    elif isinstance(e1, FpMatrix) and isinstance(e2, FpMatrix) and e1.p == e2.p:
        n1, n = e1.n, e1.n + e2.n
        identity = FpMatrix.identity(e1.p, n)

        def pairs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            arr = np.zeros((len(xs), n, n), dtype=np.uint8)
            arr[:, :n1, :n1] = xs.reshape(-1, n1, n1)
            arr[:, n1:, n1:] = ys.reshape(-1, n - n1, n - n1)
            return FpMatrix._stack(e1.p, arr)
    else:
        raise ConfigError(
            "direct_product needs two permutation groups or two matrix groups over the same prime")
    # the key bodies of (x, y) for every x in g1 and y in g2, then of the
    # generators (g, 1) and (1, g), which the table finds among the first
    b1, b2 = g1._key_bodies(), g2._key_bodies()
    r1, r2 = g1._gens, g2._gens
    i1, i2 = np.full(len(r2), g1._identity_row), np.full(len(r1), g2._identity_row)
    x1 = np.concatenate([np.repeat(np.arange(len(b1)), len(b2)), r1, i1])
    x2 = np.concatenate([np.tile(np.arange(len(b2)), len(b1)), i2, r2])
    return GroupTable._of_bodies(pairs(b1[x1], b2[x2]), identity,
                                 np.arange(len(b1) * len(b2), len(x1)),
                                 _prime_power_base(g1.order * g2.order))


# -- dispatch ------------------------------------------------------------


# family -> (number of integer arguments, builder taking them and the cap)
_FAMILIES: Dict[str, Tuple[int, Callable[..., GroupTable]]] = {
    "elementary_abelian": (2, _elementary_abelian),
    "cyclic": (2, _cyclic),
    "heisenberg": (1, _heisenberg),
    "ut": (2, _unitriangular),
    "dihedral": (1, _dihedral),
    "quaternion": (1, _quaternion),
    "wreath_cp_cp": (1, _wreath_cp_cp),
    "sym": (1, _sym),
    "alt": (1, _alt),
    "sl2_3": (0, _sl2_3),
    "dic3": (0, _dic3),
}

FAMILY_NAMES = (*_FAMILIES, "direct_product")


def build_group(spec: Union[str, FamilySpec], *,
                cap: int = DEFAULT_CLOSURE_CAP) -> GroupTable:
    if isinstance(spec, str):
        spec = parse_family(spec)
    name = spec.name
    if name in _FAMILIES:
        count, builder = _FAMILIES[name]
        return builder(*_int_args(spec, count), cap)
    if name == "direct_product":
        if len(spec.args) != 2 or not all(isinstance(a, FamilySpec) for a in spec.args):
            raise ConfigError(f"direct_product takes two nested specs, got {spec}")
        g1 = build_group(spec.args[0], cap=cap)
        g2 = build_group(spec.args[1], cap=cap)
        return _direct_product(g1, g2, cap)
    raise UnknownFamily(f"unknown family {name!r}")


# -- the Jordan-block action and the explicit sigma matrix ----------------


def sigma_matrix(p: int) -> FpMatrix:
    """The (p+1) x (p+1) unitriangular single Jordan block (1s on the
    superdiagonal) that the rank-(p+1) construction wants."""
    n = p + 1
    arr = np.eye(n, dtype=np.int64)
    for i in range(n - 1):
        arr[i, i + 1] = 1
    return FpMatrix(p, arr)


def sigma_power_closed_form(p: int, n: int) -> FpMatrix:
    """The n-th power of the Jordan block, entry (i, i+j) = binom(n, j) mod p
    (binom(n, j) = 0 for j > n), computed without any matrix multiplication."""
    if n < 0:
        raise ValueError("the closed form covers non-negative powers")
    dim = p + 1
    arr = np.zeros((dim, dim), dtype=np.int64)
    for i in range(dim):
        for j in range(dim - i):
            arr[i, i + j] = math.comb(n, j) % p
    return FpMatrix(p, arr)


def _jordan_images(G: GroupTable, m: int) -> np.ndarray:
    """The rows of the generator images under the m-th power of the Jordan
    automorphism.

    Writing the generators as an ordered basis e_1..e_r of an elementary
    abelian group, the map sends e_i to sum_d binom(m,d) e_{i-d} (the i-th
    column of the Jordan block's m-th power), the product taken in the order
    of d, for every i at once: a _powers and a _products call per d.
    Validity on the actual group is left to automorphism_from_images.
    """
    p = G.p
    if p is None:
        raise ConfigError("the jordan action needs a group with a designated prime")
    gens = G._gens
    images = np.full(len(gens), G._identity_row, dtype=np.intp)
    for d in range(len(gens)):
        e = math.comb(m, d) % p
        if e:  # e_i gains e_{i-d}^e for every i >= d
            images[d:] = G._products(images[d:], G._powers(gens[:len(gens) - d], e))
    return images


ACTION_NAMES = ("trivial", "inner", "jordan", "jordan_power", "full_aut")


def build_action(G: GroupTable, spec: Union[str, FamilySpec], *,
                 action_cap: int = DEFAULT_ACTION_CAP,
                 aut_budget: int = DEFAULT_AUT_BUDGET) -> ActionPair:
    if isinstance(spec, str):
        spec = parse_family(spec)
    name = spec.name
    if name == "trivial":
        _int_args(spec, 0)
        return trivial_action(G)
    if name == "inner":
        _int_args(spec, 0)
        return inner_action(G, cap=action_cap)
    if name == "jordan":
        _int_args(spec, 0)
        m = 1
    elif name == "jordan_power":
        (m,) = _int_args(spec, 1)
    elif name == "full_aut":
        _int_args(spec, 0)
        result = brute_force_aut(G, budget=aut_budget)
        return ActionPair.build(G, result.perm_group.generators, cap=action_cap)
    else:
        raise UnknownFamily(f"unknown action {name!r}")
    sigma = automorphism_from_images(G, G._gens, _jordan_images(G, m))
    return ActionPair.build(G, [sigma], cap=action_cap)


def paper_sigma_pair(p: int, *, cap: int = DEFAULT_CLOSURE_CAP,
                     action_cap: int = DEFAULT_ACTION_CAP) -> ActionPair:
    """Rank-(p+1) elementary abelian group under its Jordan-block cyclic
    action: the explicit tightness example, |G| bounded by `cap` and |A| by
    `action_cap`."""
    if not _is_prime(p):
        raise ConfigError(f"sigma needs a prime p, got {p!r}")
    E = _elementary_abelian(p, p + 1, cap)
    return build_action(E, FamilySpec("jordan"), action_cap=action_cap)
