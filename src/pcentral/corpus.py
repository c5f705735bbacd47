"""Experiment corpus: configuration, the default row set, and the runner.

A configuration is JSON: caps, parallelism, and a list of entries.  Each entry
names a group (or a rank parameter for the explicit tightness example), an
optional action or prime, and the checks to run.  The runner emits one NDJSON
line per verdict plus a summary, writes a self-contained reproducer bundle for
every entry with a failing conclusion, and reports via exit code:

    0   every conclusion passed or was skipped (hypothesis unmet)
    2   some conclusion failed (a counterexample candidate; bundle written)
    3   a cap or search budget was exhausted before an answer
    4   an entry hit a pcentral error other than a cap or budget at run time
        (e.g. an action that does not fit its group); the other entries still
        report
    5   an entry hit an internal bug (an exception that is not a pcentral
        error, such as a failed internal assertion); the other entries still
        report

An aborted entry is recorded with its error's type and message, and the exit
code is the largest that any entry earns, so 5 outranks 4, 3 and 2.

Expected structural facts in ``catalog_facts`` entries were frozen from an
independent enumeration run; corrupting one is the supported way to exercise
the counterexample path end to end.
"""

from __future__ import annotations

import gc
import json
import os
import re
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .actions import DEFAULT_ACTION_CAP
from .autsearch import DEFAULT_AUT_BUDGET
from .catalog import ACTION_NAMES, FAMILY_NAMES, build_action, build_group, parse_family
from .checks import ALL_CHECK_NAMES, CHECK_CAPS, CHECK_KIND, GROUP_PRIME_CHECKS, PAIR_CHECKS
from .elements import _is_prime
from .errors import BudgetExceeded, CapExceeded, ConfigError, PcentralError
from .groups import DEFAULT_CLOSURE_CAP, GroupTable
from .store import load_group, save_group
from .verdict import FAIL, Verdict

__all__ = [
    "Entry",
    "ExperimentConfig",
    "CorpusResult",
    "default_config",
    "run_corpus",
    "run_entry",
    "replay_bundle",
    "EXIT_OK",
    "EXIT_COUNTEREXAMPLE",
    "EXIT_BUDGET",
    "EXIT_CONFIG",
    "EXIT_INTERNAL",
]

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5

DEFAULT_CAPS: Dict[str, int] = {
    "closure_cap": DEFAULT_CLOSURE_CAP,
    "action_cap": DEFAULT_ACTION_CAP,
    "aut_budget": DEFAULT_AUT_BUDGET,
    "oracle_size_limit": 256,
    "oracle_k_max": 5,
}

_ENTRY_KEYS = {"id", "group", "action", "p", "sigma", "checks", "expect"}
# how a missing entry field is named in "check ... needs ..." errors
_NEEDS = {"action": "an 'action'", "p": "a prime 'p'",
          "expect": "an 'expect' object", "sigma": "a 'sigma' entry"}
_TOP_KEYS = {"caps", "parallelism", "entries"}


# -- configuration --------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    entry_id: str
    checks: Tuple[str, ...]
    group_spec: Optional[str] = None
    action_spec: Optional[str] = None
    p: Optional[int] = None
    sigma: Optional[int] = None
    expect: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"id": self.entry_id, "checks": list(self.checks)}
        if self.group_spec is not None:
            d["group"] = self.group_spec
        if self.action_spec is not None:
            d["action"] = self.action_spec
        if self.p is not None:
            d["p"] = self.p
        if self.sigma is not None:
            d["sigma"] = self.sigma
        if self.expect is not None:
            d["expect"] = self.expect
        return d


def _loc(raw: Optional[str], needle: str) -> str:
    """Best-effort ' (line L, column C)' for a literal occurring in raw JSON."""
    if not raw:
        return ""
    i = raw.find(needle)
    if i < 0:
        return ""
    line = raw.count("\n", 0, i) + 1
    col = i - (raw.rfind("\n", 0, i) + 1) + 1
    return f" (line {line}, column {col})"


def _fail(msg: str, raw: Optional[str], needle: Optional[str] = None) -> ConfigError:
    return ConfigError(msg + (_loc(raw, needle) if needle else ""))


def _check_prime(here: str, key: str, value: object, raw: Optional[str],
                 needle: str) -> None:
    """Raise a located error unless the entry field ``key`` holds a prime."""
    try:
        prime = isinstance(value, int) and _is_prime(value)
    except ConfigError as e:  # too large for the primality test to decide
        raise _fail(here + f"{key!r}: {e}", raw, needle)
    if not prime:
        raise _fail(here + f"{key!r} must be a prime, got {value!r}", raw, needle)


def _parse_entry(data: object, raw: Optional[str]) -> Entry:
    if not isinstance(data, dict):
        raise _fail("each entry must be a JSON object", raw)
    unknown = set(data) - _ENTRY_KEYS
    if unknown:
        k = sorted(unknown)[0]
        raise _fail(f"unknown entry key {k!r}", raw, json.dumps(k))
    entry_id = data.get("id")
    if not isinstance(entry_id, str) or not entry_id:
        raise _fail("entry is missing a non-empty string 'id'", raw)
    here = f"entry {entry_id!r}: "

    checks = data.get("checks")
    if (not isinstance(checks, list) or not checks
            or not all(isinstance(c, str) for c in checks)):
        raise _fail(here + "'checks' must be a non-empty list of names",
                    raw, json.dumps(entry_id))
    for c in checks:
        if c not in ALL_CHECK_NAMES:
            raise _fail(here + f"unknown check {c!r}", raw, json.dumps(c))
    if len(set(checks)) != len(checks):
        raise _fail(here + "duplicate check names", raw, json.dumps(entry_id))

    sigma = data.get("sigma")
    group_spec = data.get("group")
    if (sigma is None) == (group_spec is None):
        raise _fail(here + "exactly one of 'group' or 'sigma' is required",
                    raw, json.dumps(entry_id))

    if sigma is not None:
        _check_prime(here, "sigma", sigma, raw, json.dumps(entry_id))
        bad = [c for c in checks if CHECK_KIND[c].needs != "sigma"]
        if bad:
            raise _fail(here + f"check {bad[0]!r} does not apply to a "
                        "rank-parameter entry", raw, json.dumps(bad[0]))
        return Entry(entry_id, tuple(checks), sigma=sigma)

    if not isinstance(group_spec, str):
        raise _fail(here + "'group' must be a string", raw, json.dumps(entry_id))
    try:
        spec = parse_family(group_spec)
    except ConfigError as e:
        raise _fail(here + f"bad group spec: {e}", raw, json.dumps(group_spec))
    if spec.name not in FAMILY_NAMES:
        raise _fail(here + f"unknown group family {spec.name!r}",
                    raw, json.dumps(group_spec))

    action_spec = data.get("action")
    if action_spec is not None:
        if not isinstance(action_spec, str):
            raise _fail(here + "'action' must be a string",
                        raw, json.dumps(entry_id))
        try:
            aspec = parse_family(action_spec)
        except ConfigError as e:
            raise _fail(here + f"bad action spec: {e}", raw,
                        json.dumps(action_spec))
        if aspec.name not in ACTION_NAMES:
            raise _fail(here + f"unknown action {aspec.name!r}", raw,
                        json.dumps(action_spec))

    p = data.get("p")
    if p is not None:
        _check_prime(here, "p", p, raw, json.dumps(entry_id))

    expect = data.get("expect")
    if expect is not None and not isinstance(expect, dict):
        raise _fail(here + "'expect' must be an object", raw,
                    json.dumps(entry_id))

    for c in checks:
        needs = CHECK_KIND[c].needs
        if needs is not None and data.get(needs) is None:
            raise _fail(here + f"check {c!r} needs {_NEEDS[needs]}", raw,
                        json.dumps(c))
    return Entry(entry_id, tuple(checks), group_spec=group_spec,
                 action_spec=action_spec, p=p, expect=expect)


def _read_text(path: os.PathLike) -> str:
    """A config or meta file's text; ConfigError if it exists but is not UTF-8
    text (a missing file stays FileNotFoundError, also bad input)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {os.fspath(path)}: {e}") from None


def _parse_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"invalid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from None


@dataclass
class ExperimentConfig:
    caps: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_CAPS))
    parallelism: int = 1
    entries: List[Entry] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: object,
                  raw: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            k = sorted(unknown)[0]
            raise _fail(f"unknown configuration key {k!r}", raw, json.dumps(k))
        given = data.get("caps", {})
        if not isinstance(given, dict):
            raise _fail(f"'caps' must be a JSON object, got {json.dumps(given)}", raw,
                        json.dumps("caps"))
        caps = dict(DEFAULT_CAPS)
        for k, v in given.items():
            if k not in DEFAULT_CAPS:
                raise _fail(f"unknown cap {k!r}", raw, json.dumps(k))
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise _fail(f"cap {k!r} must be a positive integer", raw,
                            json.dumps(k))
            caps[k] = v
        par = data.get("parallelism", 1)
        if isinstance(par, bool) or not isinstance(par, int) or par < 1:
            raise _fail("'parallelism' must be a positive integer", raw,
                        json.dumps("parallelism"))
        raw_entries = data.get("entries")
        if not isinstance(raw_entries, list) or not raw_entries:
            raise _fail("'entries' must be a non-empty list", raw,
                        json.dumps("entries"))
        entries = [_parse_entry(e, raw) for e in raw_entries]
        seen: Dict[str, int] = {}
        for e in entries:
            if e.entry_id in seen:
                raise _fail(f"duplicate entry id {e.entry_id!r}", raw,
                            json.dumps(e.entry_id))
            seen[e.entry_id] = 1
        return cls(caps=caps, parallelism=par, entries=entries)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(_parse_json(text), raw=text)

    @classmethod
    def from_file(cls, path: os.PathLike) -> "ExperimentConfig":
        return cls.from_text(_read_text(path))

    def to_dict(self) -> Dict[str, object]:
        return {"caps": dict(self.caps), "parallelism": self.parallelism,
                "entries": [e.to_dict() for e in self.entries]}


# -- default corpus -------------------------------------------------------


_GROUP_BATTERY = ("xu_regularity", "derived_exponent", "derived_omega_identity")

_DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("cyclic(2,1)", "trivial"),
    ("cyclic(2,3)", "inner"),
    ("elementary_abelian(2,2)", "full_aut"),
    ("elementary_abelian(2,3)", "jordan"),
    ("elementary_abelian(2,4)", "jordan"),
    ("elementary_abelian(2,4)", "jordan_power(2)"),
    ("ut(3,2)", "inner"),
    ("ut(4,2)", "inner"),
    ("dihedral(8)", "inner"),
    ("dihedral(16)", "inner"),
    ("dihedral(32)", "inner"),
    ("quaternion(8)", "inner"),
    ("quaternion(8)", "trivial"),
    ("wreath_cp_cp(2)", "inner"),
    ("direct_product(quaternion(8), cyclic(2,1))", "inner"),
    ("direct_product(cyclic(2,2), cyclic(2,1))", "inner"),
    ("cyclic(3,2)", "trivial"),
    ("elementary_abelian(3,2)", "full_aut"),
    ("elementary_abelian(3,4)", "jordan"),
    ("elementary_abelian(3,4)", "jordan_power(3)"),
    ("elementary_abelian(3,6)", "jordan"),
    ("elementary_abelian(3,6)", "jordan_power(3)"),
    ("heisenberg(3)", "inner"),
    ("heisenberg(3)", "trivial"),
    ("ut(4,3)", "inner"),
    ("ut(4,3)", "trivial"),
    ("wreath_cp_cp(3)", "inner"),
    ("elementary_abelian(5,2)", "jordan"),
    ("elementary_abelian(5,4)", "jordan"),
)

_DEFAULT_GROUPS: Tuple[str, ...] = (
    "cyclic(2,3)", "cyclic(3,2)",
    "elementary_abelian(2,4)", "elementary_abelian(3,3)",
    "ut(3,2)", "heisenberg(3)", "ut(4,2)", "ut(4,3)",
    "dihedral(8)", "dihedral(16)", "dihedral(32)", "quaternion(8)",
    "wreath_cp_cp(2)", "wreath_cp_cp(3)",
    "direct_product(quaternion(8), cyclic(2,1))",
    "direct_product(cyclic(2,2), cyclic(2,1))",
)

_DEFAULT_COMPLEMENTS: Tuple[Tuple[str, int], ...] = (
    ("sym(3)", 2), ("sym(3)", 3),
    ("sym(4)", 2), ("sym(4)", 3),
    ("alt(4)", 2), ("alt(4)", 3),
    ("sl2_3()", 2), ("sl2_3()", 3),
    ("dic3()", 2), ("dic3()", 3),
    ("direct_product(quaternion(8), cyclic(3,1))", 2),
    ("direct_product(quaternion(8), cyclic(3,1))", 3),
    ("quaternion(8)", 2),
    ("heisenberg(3)", 3),
)

_DEFAULT_AUT_ROWS: Tuple[str, ...] = (
    "elementary_abelian(2,2)",
    "elementary_abelian(3,2)",
    "elementary_abelian(3,3)",
    "heisenberg(3)",
    "cyclic(3,2)",
    "elementary_abelian(2,3)",
    "quaternion(8)",
)

_DEFAULT_SIGMA_RANKS: Tuple[int, ...] = (2, 3, 5)

# Frozen from an enumeration run of the catalog itself (order histograms keyed
# by element order as strings, JSON-style).
_DEFAULT_FACTS: Dict[str, Dict[str, object]] = {
    "cyclic(2,3)": {"order": 8, "exponent": 8, "nilpotency_class": 1,
                    "order_stats": {"1": 1, "2": 1, "4": 2, "8": 4}},
    "cyclic(3,2)": {"order": 9, "exponent": 9, "nilpotency_class": 1,
                    "order_stats": {"1": 1, "3": 2, "9": 6}},
    "elementary_abelian(2,2)": {"order": 4, "exponent": 2,
                                "nilpotency_class": 1,
                                "order_stats": {"1": 1, "2": 3}},
    "elementary_abelian(2,3)": {"order": 8, "exponent": 2,
                                "nilpotency_class": 1,
                                "order_stats": {"1": 1, "2": 7}},
    "elementary_abelian(3,4)": {"order": 81, "exponent": 3,
                                "nilpotency_class": 1,
                                "order_stats": {"1": 1, "3": 80}},
    "ut(3,2)": {"order": 8, "exponent": 4, "nilpotency_class": 2,
                "order_stats": {"1": 1, "2": 5, "4": 2}},
    "heisenberg(3)": {"order": 27, "exponent": 3, "nilpotency_class": 2,
                      "order_stats": {"1": 1, "3": 26}},
    "ut(4,2)": {"order": 64, "exponent": 4, "nilpotency_class": 3,
                "order_stats": {"1": 1, "2": 27, "4": 36}},
    "ut(4,3)": {"order": 729, "exponent": 9, "nilpotency_class": 3,
                "order_stats": {"1": 1, "3": 512, "9": 216}},
    "dihedral(8)": {"order": 8, "exponent": 4, "nilpotency_class": 2,
                    "order_stats": {"1": 1, "2": 5, "4": 2}},
    "dihedral(16)": {"order": 16, "exponent": 8, "nilpotency_class": 3,
                     "order_stats": {"1": 1, "2": 9, "4": 2, "8": 4}},
    "dihedral(32)": {"order": 32, "exponent": 16, "nilpotency_class": 4,
                     "order_stats": {"1": 1, "2": 17, "4": 2, "8": 4,
                                     "16": 8}},
    "quaternion(8)": {"order": 8, "exponent": 4, "nilpotency_class": 2,
                      "order_stats": {"1": 1, "2": 1, "4": 6}},
    "wreath_cp_cp(2)": {"order": 8, "exponent": 4, "nilpotency_class": 2,
                        "order_stats": {"1": 1, "2": 5, "4": 2}},
    "wreath_cp_cp(3)": {"order": 81, "exponent": 9, "nilpotency_class": 3,
                        "order_stats": {"1": 1, "3": 44, "9": 36}},
    "sym(3)": {"order": 6, "exponent": 6, "nilpotency_class": None,
               "order_stats": {"1": 1, "2": 3, "3": 2}},
    "sym(4)": {"order": 24, "exponent": 12, "nilpotency_class": None,
               "order_stats": {"1": 1, "2": 9, "3": 8, "4": 6}},
    "alt(4)": {"order": 12, "exponent": 6, "nilpotency_class": None,
               "order_stats": {"1": 1, "2": 3, "3": 8}},
    "sl2_3()": {"order": 24, "exponent": 12, "nilpotency_class": None,
                "order_stats": {"1": 1, "2": 1, "3": 8, "4": 6, "6": 8}},
    "dic3()": {"order": 12, "exponent": 12, "nilpotency_class": None,
               "order_stats": {"1": 1, "2": 1, "3": 2, "4": 6, "6": 2}},
    "direct_product(quaternion(8), cyclic(3,1))": {
        "order": 24, "exponent": 12, "nilpotency_class": 2,
        "order_stats": {"1": 1, "2": 1, "3": 2, "4": 6, "6": 2, "12": 12}},
    "direct_product(quaternion(8), cyclic(2,1))": {
        "order": 16, "exponent": 4, "nilpotency_class": 2,
        "order_stats": {"1": 1, "2": 3, "4": 12}},
    "direct_product(cyclic(2,2), cyclic(2,1))": {
        "order": 8, "exponent": 4, "nilpotency_class": 1,
        "order_stats": {"1": 1, "2": 3, "4": 4}},
}


def _slug(spec: str) -> str:
    return re.sub(r"-+", "-", re.sub(r"[^a-z0-9]+", "-", spec.lower())).strip("-")


def _default_entry_dicts() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for gspec, aspec in _DEFAULT_PAIRS:
        rows.append({"id": f"{_slug(gspec)}--{_slug(aspec)}", "group": gspec,
                     "action": aspec, "checks": list(PAIR_CHECKS)})
    for gspec in _DEFAULT_GROUPS:
        rows.append({"id": f"{_slug(gspec)}--structure", "group": gspec,
                     "checks": list(_GROUP_BATTERY)})
    for gspec, p in _DEFAULT_COMPLEMENTS:
        rows.append({"id": f"{_slug(gspec)}--mod{p}", "group": gspec, "p": p,
                     "checks": list(GROUP_PRIME_CHECKS)})
    for gspec in _DEFAULT_AUT_ROWS:
        rows.append({"id": f"aut--{_slug(gspec)}", "group": gspec,
                     "checks": ["sylow_aut_exponent"]})
    for p in _DEFAULT_SIGMA_RANKS:
        rows.append({"id": f"sigma--{p}", "sigma": p,
                     "checks": ["sigma_example_tightness"]})
    for gspec, facts in _DEFAULT_FACTS.items():
        rows.append({"id": f"facts--{_slug(gspec)}", "group": gspec,
                     "checks": ["catalog_facts"], "expect": facts})
    return rows


def default_config() -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {"caps": {}, "parallelism": 1, "entries": _default_entry_dicts()})


# -- execution ------------------------------------------------------------


# the groups and actions built so far by the running task; None outside one
_task_builds: ContextVar[Optional[Dict[Hashable, object]]] = ContextVar(
    "task_builds", default=None)


def _shared(key: Optional[Hashable], build: Callable[[], object]) -> object:
    """build(), or inside a task the result of its first successful call
    with this key; a build that raises is not kept, and a None key is not
    shared."""
    builds = _task_builds.get()
    if builds is None or key is None:
        return build()
    if key not in builds:
        builds[key] = build()
    return builds[key]


def run_entry(entry: Entry, caps: Dict[str, int],
              G: Optional[GroupTable] = None) -> List[Verdict]:
    """Run one entry's checks, each through its registry with its caps,
    and set each verdict's ``millis`` to the call's wall time.

    ``G`` overrides the catalog build (used when replaying a bundle, which
    restores the serialized table instead of rebuilding from the family).
    Inside a task of ``run_corpus``, a group and an action built from the
    catalog are shared with the task's later entries.
    """
    group_key = None
    if G is None and entry.group_spec is not None:
        group_key = parse_family(entry.group_spec)
        G = _shared(group_key, lambda: build_group(
            entry.group_spec, cap=caps["closure_cap"]))
    inputs = {"group": G, "p": entry.p, "sigma": entry.sigma,
              "expect": entry.expect}
    if any("pair" in CHECK_KIND[c].takes for c in entry.checks):
        inputs["pair"] = _shared(
            None if group_key is None else (group_key, parse_family(entry.action_spec)),
            lambda: build_action(G, entry.action_spec, action_cap=caps["action_cap"],
                                 aut_budget=caps["aut_budget"]))
    verdicts: List[Verdict] = []
    for c in entry.checks:
        kind = CHECK_KIND[c]
        kwargs = {kw: caps[cap] for kw, cap in CHECK_CAPS.get(c, {}).items()}
        t0 = time.perf_counter()
        v = kind.registry[c](*(inputs[i] for i in kind.takes), **kwargs)
        v.millis = (time.perf_counter() - t0) * 1000.0
        verdicts.append(v)
    return verdicts


def _entry_worker(entry_dict: Dict[str, object], caps: Dict[str, int]
                  ) -> Tuple[List[Dict[str, object]], Optional[Dict[str, str]], int]:
    """One entry's verdicts or error, and the exit code the entry earns."""
    try:
        verdicts = run_entry(_parse_entry(entry_dict, None), caps)
    except Exception as e:
        code = (EXIT_BUDGET if isinstance(e, (CapExceeded, BudgetExceeded))
                else EXIT_CONFIG if isinstance(e, PcentralError) else EXIT_INTERNAL)
        return [], {"type": type(e).__name__, "message": str(e)}, code
    dicts = [v.to_dict() for v in verdicts]
    failing = any(d["conclusion"] == FAIL for d in dicts)
    return dicts, None, EXIT_COUNTEREXAMPLE if failing else EXIT_OK


def _task_worker(entry_dicts: List[Dict[str, object]], caps: Dict[str, int]
                 ) -> List[Tuple[List[Dict[str, object]], Optional[Dict[str, str]], int]]:
    """The outcomes of a task's entries, in order, run with the group and
    actions they build shared among them.  When the task ends they are
    dropped and freed by a collection, as tables sit in reference cycles;
    under run_corpus's freeze it traverses only what the run has made."""
    token = _task_builds.set({})
    try:
        return [_entry_worker(d, caps) for d in entry_dicts]
    finally:
        _task_builds.reset(token)
        gc.collect()


def _tasks(entries: List[Entry], workers: int) -> List[List[int]]:
    """The entry indices of each task: one task per group spec, in order of
    the spec's first entry, and one per sigma entry.  A task of more than
    ceil(len(entries) / workers) entries is cut into chunks of that size, so
    that one large group still keeps every worker busy."""
    by_spec: Dict[Hashable, List[int]] = {}
    for i, e in enumerate(entries):
        by_spec.setdefault(i if e.group_spec is None else parse_family(e.group_spec),
                           []).append(i)
    size = -(-len(entries) // workers)
    return [task[k:k + size] for task in by_spec.values()
            for k in range(0, len(task), size)]


def _in_entry_order(tasks: List[List[int]], task_outcomes: Iterable[list]) -> Iterator[tuple]:
    """The entries' outcomes in entry order, from the tasks' outcomes in task
    order (as they arrive, serial or not); each is yielded as soon as every
    earlier entry's has arrived."""
    finished: Dict[int, tuple] = {}
    reported = 0
    for task, outcomes in zip(tasks, task_outcomes):
        finished.update(zip(task, outcomes))
        while reported in finished:
            yield finished.pop(reported)
            reported += 1


@dataclass
class CorpusResult:
    exit_code: int
    records: List[Dict[str, object]]
    counts: Dict[str, int]
    report_path: Optional[Path] = None
    summary_path: Optional[Path] = None
    bundle_dirs: List[Path] = field(default_factory=list)

    @property
    def summary_line(self) -> str:
        c = self.counts
        return (f"entries={c['entries']} verdicts={c['verdicts']} "
                f"pass={c['pass']} skipped={c['skipped']} fail={c['fail']} "
                f"aborted={c['aborted']} exit={self.exit_code}")


def _write_bundle(out_dir: Path, entry: Entry, caps: Dict[str, int],
                  records: List[Dict[str, object]]) -> Path:
    bundle = out_dir / f"repro--{entry.entry_id}"
    bundle.mkdir(parents=True, exist_ok=True)
    if entry.group_spec is not None:
        save_group(build_group(entry.group_spec, cap=caps["closure_cap"]),
                   bundle / "group.bin")
    failing = sorted({r["check"] for r in records if r.get("conclusion") == FAIL})
    meta = {"entry": entry.to_dict(), "caps": caps, "failing_checks": failing}
    (bundle / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return bundle


@contextmanager
def _frozen() -> Iterator[None]:
    """Freeze the objects alive now (gc.freeze) until the block ends, so
    that the tasks' collections traverse only what they made; a caller's
    own freeze is left as it is."""
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_corpus(config: ExperimentConfig, out_dir: Optional[os.PathLike] = None,
               progress: Optional[Callable[[str], None]] = None) -> CorpusResult:
    """Run every entry; write report.ndjson, summary.json and bundles.

    The run holds a freeze (_frozen) from before the pool forks, so each
    worker inherits the frozen set; the pool is imported only for
    parallelism > 1."""
    say = progress or (lambda s: None)
    caps = dict(config.caps)
    records: List[Dict[str, object]] = []
    counts = {"entries": len(config.entries), "verdicts": 0, "pass": 0,
              "skipped": 0, "fail": 0, "aborted": 0}
    bundle_dirs: List[Path] = []
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    exit_code = EXIT_OK
    serial = config.parallelism <= 1
    entries = config.entries
    tasks = _tasks(entries, config.parallelism)
    if not serial:
        from concurrent.futures import ProcessPoolExecutor
    with _frozen(), (nullcontext() if serial else
                      ProcessPoolExecutor(max_workers=config.parallelism)) as pool:
        outcomes = (map if serial else pool.map)(
            _task_worker, [[entries[i].to_dict() for i in task] for task in tasks],
            [caps] * len(tasks))
        for e, (dicts, err, code) in zip(entries, _in_entry_order(tasks, outcomes)):
            say(f"[{e.entry_id}] {'ABORT ' + err['type'] if err else f'{len(dicts)} verdicts'}")
            exit_code = max(exit_code, code)
            if err is not None:
                counts["aborted"] += 1
                records.append({"entry": e.entry_id, "error": err})
                continue
            for d in dicts:
                counts["verdicts"] += 1
                counts[d["conclusion"]] += 1
                records.append({"entry": e.entry_id, **d})
            if code == EXIT_COUNTEREXAMPLE and out_path is not None:
                bundle_dirs.append(_write_bundle(out_path, e, caps, dicts))

    report_path = summary_path = None
    if out_path is not None:
        report_path = out_path / "report.ndjson"
        with report_path.open("w") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
        summary_path = out_path / "summary.json"
        summary_path.write_text(json.dumps(
            {"counts": counts, "exit_code": exit_code,
             "caps": caps, "parallelism": config.parallelism},
            indent=2, sort_keys=True) + "\n")
    result = CorpusResult(exit_code, records, counts, report_path,
                          summary_path, bundle_dirs)
    say("summary: " + result.summary_line)
    return result


def replay_bundle(bundle_dir: os.PathLike,
                  progress: Optional[Callable[[str], None]] = None) -> CorpusResult:
    """Re-run a reproducer bundle from its own artifacts alone.

    The group is restored from the serialized table (group.bin), not rebuilt
    from the family catalog, so the bundle pins the exact inputs.  The
    entry and caps of meta.json are validated as a configuration is.
    """
    say = progress or (lambda s: None)
    bundle = Path(bundle_dir)
    text = _read_text(bundle / "meta.json")
    meta = _parse_json(text)
    if not isinstance(meta, dict):
        raise ConfigError("meta.json must be a JSON object")
    config = ExperimentConfig.from_dict(
        {"caps": meta.get("caps", {}), "entries": [meta.get("entry")]}, raw=text)
    (entry,), caps = config.entries, config.caps
    G = (load_group(bundle / "group.bin", cap=caps["closure_cap"])
         if entry.sigma is None else None)
    verdicts = run_entry(entry, caps, G=G)
    records = [{"entry": entry.entry_id, **v.to_dict()} for v in verdicts]
    counts = {"entries": 1, "verdicts": len(records), "pass": 0,
              "skipped": 0, "fail": 0, "aborted": 0}
    for r in records:
        counts[r["conclusion"]] += 1
        say(f"{r['check']}: hypothesis={r['hypothesis']} "
            f"conclusion={r['conclusion']}")
    exit_code = EXIT_COUNTEREXAMPLE if counts["fail"] else EXIT_OK
    result = CorpusResult(exit_code, records, counts)
    say("summary: " + result.summary_line)
    return result
