"""The benchmark's workloads, made from the built-in corpus and a seed.

``corpus``       the built-in corpus as ``pcentral run`` runs it with no config.
``corpus-noaut`` the built-in corpus without the entries that search Aut(G).
``batch-w2``     the built-in corpus without its four slowest entries, each
                 kept entry repeated BATCH_COPIES times under distinct ids,
                 in an order shuffled by the seed, run with two workers and an
                 emptied disk cache.

Only ``batch-w2`` depends on the seed; the other two are fixed inputs, so
their per-layer counts can repeat exactly from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

NAMES = ("corpus", "corpus-noaut", "batch-w2")

# the seven aut--* rows plus the two full_aut pairs
AUT_ENTRIES = (
    "aut--elementary-abelian-2-2", "aut--elementary-abelian-3-2",
    "aut--elementary-abelian-3-3", "aut--heisenberg-3", "aut--cyclic-3-2",
    "aut--elementary-abelian-2-3", "aut--quaternion-8",
    "elementary-abelian-2-2--full-aut", "elementary-abelian-3-2--full-aut",
)
SLOWEST = ("aut--elementary-abelian-3-3", "aut--heisenberg-3", "sigma--5",
           "ut-4-3--inner")
BATCH_COPIES = 3
BATCH_WORKERS = 2


@dataclass
class Workload:
    name: str
    # None: run the built-in corpus with no config, as `pcentral run` does
    config: Optional[dict]
    entries: List[dict]
    workers: int
    uses_cache: bool


def _without(entries: List[dict], ids) -> List[dict]:
    missing = set(ids) - {e["id"] for e in entries}
    if missing:
        raise ValueError(f"built-in corpus lacks {sorted(missing)}")
    return [e for e in entries if e["id"] not in ids]


def make(name: str, seed: int) -> Workload:
    from pcentral.corpus import default_config

    builtin = default_config().to_dict()
    entries = builtin["entries"]
    if name == "corpus":
        return Workload(name, None, entries, 1, False)
    if name == "corpus-noaut":
        kept = _without(entries, AUT_ENTRIES)
        config = {"caps": {}, "parallelism": 1, "entries": kept}
        return Workload(name, config, kept, 1, False)
    if name == "batch-w2":
        copies = [{**e, "id": f"{e['id']}--copy{k}"}
                  for e in _without(entries, SLOWEST) for k in range(BATCH_COPIES)]
        random.Random(seed).shuffle(copies)
        config = {"caps": {}, "parallelism": BATCH_WORKERS, "entries": copies}
        return Workload(name, config, copies, BATCH_WORKERS, True)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
