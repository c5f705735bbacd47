import time

import pytest

from pcentral.corpus import CorpusResult, default_config, run_corpus
from pcentral.elements import FpMatrix, Permutation
from pcentral.groups import Automorphism, GroupTable


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """One full default-corpus run shared by every test that slices it.

    Returns (result, wall_seconds, config).
    """
    out = tmp_path_factory.mktemp("corpus")
    config = default_config()
    t0 = time.perf_counter()
    result = run_corpus(config, out)
    seconds = time.perf_counter() - t0
    return result, seconds, config


def records_for(result: CorpusResult, check: str):
    return [r for r in result.records if r.get("check") == check]


def record(result: CorpusResult, entry: str, check: str):
    matches = [r for r in result.records
               if r.get("entry") == entry and r.get("check") == check]
    assert len(matches) == 1, f"expected one record for {entry}/{check}"
    return matches[0]


@pytest.fixture
def arithmetic(monkeypatch):
    """Counts of element arithmetic, reset by setting them to 0:
    "products", the FpMatrix, Permutation and Automorphism products of
    element objects, and "rows", the rows the table kernels multiply: the
    pairs of every GroupTable._products call on a root table (a subgroup's
    call reaches its root, a quotient's its cover, and a right column is one
    call of a row per element)."""
    counts = {"products": 0, "rows": 0}
    for cls in (FpMatrix, Permutation, Automorphism):
        def product(x, y, real=cls.__mul__):
            counts["products"] += 1
            return real(x, y)
        monkeypatch.setattr(cls, "__mul__", product)
    def pairs(table, xs, ys, real=GroupTable._products):
        if table.parent is None:
            counts["rows"] += len(xs)
        return real(table, xs, ys)
    monkeypatch.setattr(GroupTable, "_products", pairs)
    return counts
