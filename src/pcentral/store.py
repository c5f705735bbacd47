"""Serialization of reproducer bundles: a group as its generators.

Binary layout: magic "PCG1" | backend tag (1 byte) | p (2 bytes LE, 0 = none)
| order (4 bytes LE) | generator count (2 bytes LE) | per generator:
key length (4 bytes LE) + canonical element key.  Loading re-closes the group
from the stored generators and verifies the stored order, so a corrupt or
stale file cannot smuggle in a wrong group.  A file that is malformed, or
whose generators make no group (a matrix without an inverse), is a
ConfigError.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from .elements import Element, decode_element
from .errors import BackendMismatch, CapExceeded, ConfigError, SingularMatrix
from .groups import DEFAULT_CLOSURE_CAP, GroupTable, close

__all__ = ["save_group", "load_group"]

_MAGIC = b"PCG1"


def save_group(G: GroupTable, path: str) -> None:
    if not G.generators:
        raise ValueError("cannot serialize a group without generators")
    blob = bytearray(_MAGIC)
    blob.append(G.generators[0].key[0])
    blob += (G.p or 0).to_bytes(2, "little")
    blob += G.order.to_bytes(4, "little")
    blob += len(G.generators).to_bytes(2, "little")
    for g in G.generators:
        blob += len(g.key).to_bytes(4, "little")
        blob += g.key
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_group(path: str, *, cap: int = DEFAULT_CLOSURE_CAP) -> GroupTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        p, order, gens = _parse(blob)
        if order > cap:
            raise CapExceeded(f"{path}: stored order {order} exceeds cap {cap}")
        G = close(gens, cap=cap, p=p)
    except (ValueError, BackendMismatch, SingularMatrix) as e:
        raise ConfigError(f"{path}: {e}") from e
    if G.order != order:
        raise ConfigError(f"{path}: re-closed order {G.order} != stored order {order}")
    return G


def _parse(blob: bytes) -> Tuple[Optional[int], int, List[Element]]:
    """(p, order, generators) of a serialized group; ValueError or
    SingularMatrix if the bytes are not one."""
    if len(blob) < 13 or blob[:4] != _MAGIC:
        raise ValueError("not a serialized group file")
    backend = blob[4]
    p = int.from_bytes(blob[5:7], "little") or None
    order = int.from_bytes(blob[7:11], "little")
    count = int.from_bytes(blob[11:13], "little")
    pos = 13
    gens = []
    for _ in range(count):
        if pos + 4 > len(blob):
            raise ValueError("truncated generator block")
        klen = int.from_bytes(blob[pos:pos + 4], "little")
        pos += 4
        key = blob[pos:pos + klen]
        if len(key) != klen:
            raise ValueError("truncated generator key")
        pos += klen
        if not key or key[0] != backend:
            raise ValueError("generator backend disagrees with header")
        g = decode_element(bytes(key))
        g.inverse()  # a singular matrix would close to a monoid, not a group
        gens.append(g)
    if pos != len(blob):
        raise ValueError("trailing bytes after generators")
    return p, order, gens
