"""What a table and a pair keep of what they derive (groups._kept).

A check that reads a quotient pair, a restriction, a commutator subgroup,
the central quotient or the definitional terms builds each once per table
or pair, and an entry run again on the same group and action (as a task of
run_corpus shares them) gives the same verdicts and builds nothing new.
The definitional terms are kept with their step count, so a later call
with a smaller budget still raises as a fresh call would.
"""

import collections
import json

import numpy as np
import pytest

from pcentral import actions, corpus, groups
from pcentral.actions import inner_action, mixed_series_definitional, restrict_action
from pcentral.catalog import build_action, build_group
from pcentral.corpus import DEFAULT_CAPS, _task_worker, default_config
from pcentral.errors import BudgetExceeded
from pcentral.groups import center, subgroup_generated

# pair entries that take quotient pairs and restrictions (cyclic-2-1 under
# the trivial action has a trivial [G, A]), and group entries that take the
# central quotient and commutator subgroups
ENTRIES = ("heisenberg-3--inner", "cyclic-2-1--trivial", "quaternion-8--trivial",
           "elementary-abelian-3-4--jordan-power-3", "elementary-abelian-2-4--structure",
           "heisenberg-3--structure")


def _entry(entry_id):
    (d,) = [d for d in default_config().to_dict()["entries"] if d["id"] == entry_id]
    return d


def _without_millis(outcome):
    dicts, error, code = outcome
    return json.dumps([[{k: v for k, v in d.items() if k != "millis"} for d in dicts],
                       error, code], sort_keys=True)


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_an_entry_run_again_in_its_task_builds_nothing_new(entry_id, monkeypatch):
    built = collections.Counter()
    for cls in (groups.QuotientGroup, actions.ActionPair):
        def counting(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    per_run = []

    def counted(entry_dict, caps, _real=corpus._entry_worker):
        before = built.copy()
        outcome = _real(entry_dict, caps)
        per_run.append(built - before)
        return outcome
    monkeypatch.setattr(corpus, "_entry_worker", counted)

    d, caps = _entry(entry_id), dict(DEFAULT_CAPS)
    twice = _task_worker([d, d], caps)
    fresh = _task_worker([d], caps) + _task_worker([d], caps)
    assert twice[0][0] and twice[0][1] is None
    assert list(map(_without_millis, twice)) == list(map(_without_millis, fresh))
    first, again = per_run[:2]
    assert first["QuotientGroup"] > 0
    assert again == collections.Counter()


@pytest.mark.parametrize("gspec,aspec,entries", [
    ("heisenberg(3)", "inner", "generators"), ("heisenberg(3)", "inner", "all"),
    ("elementary_abelian(3,4)", "jordan", "generators")])
def test_a_warm_definitional_sweep_meets_its_budget_as_a_fresh_one(gspec, aspec, entries):
    def fresh():
        return build_action(build_group(gspec), aspec)

    warm = fresh()
    terms = mixed_series_definitional(warm, 5, entries=entries)
    steps = warm._cache[("definitional", 5, entries)][0]
    message = f"definitional sweep exceeded {steps - 1} commutator steps"
    for pair in (fresh(), warm):
        with pytest.raises(BudgetExceeded) as raised:
            mixed_series_definitional(pair, 5, entries=entries, budget=steps - 1)
        assert str(raised.value) == message
    for pair in (fresh(), warm):
        again = mixed_series_definitional(pair, 5, entries=entries, budget=steps)
        assert [t.root_rows.tolist() for t in again] == [t.root_rows.tolist() for t in terms]
    again = mixed_series_definitional(warm, 5, entries=entries)
    assert again is not terms
    again.clear()
    assert len(mixed_series_definitional(warm, 5, entries=entries)) == 5


def test_a_restriction_is_kept_by_its_rows_and_generators():
    G = build_group("elementary_abelian(2,3)")
    pair = inner_action(G)
    generated = subgroup_generated(G, G.generators)
    every = center(G)  # all of G, generated by its 7 non-identity elements
    assert np.array_equal(generated.root_rows, every.root_rows)
    one, other = restrict_action(pair, generated), restrict_action(pair, every)
    assert one.G is generated and other.G is every
    assert len(one.G._gens) == 3 and len(other.G._gens) == 7
    assert restrict_action(pair, subgroup_generated(G, G.generators)) is one
