"""Corpus runner, report artifacts, reproducer bundles, and the CLI."""

import contextlib
import gc
import json
import random
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from pcentral import checks, corpus
from pcentral.catalog import build_group
from pcentral.cli import main
from pcentral.elements import FpMatrix
from pcentral.corpus import (
    DEFAULT_CAPS,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_COUNTEREXAMPLE,
    EXIT_INTERNAL,
    EXIT_OK,
    Entry,
    ExperimentConfig,
    default_config,
    replay_bundle,
    run_corpus,
    run_entry,
)
from pcentral.errors import CapExceeded, ConfigError
from pcentral.groups import GroupTable
from pcentral.store import save_group


def mini_config_dict():
    return {
        "caps": {"closure_cap": 5000},
        "parallelism": 1,
        "entries": [
            {"id": "q8--inner", "group": "quaternion(8)", "action": "inner",
             "checks": ["mixed_series_ladder", "omega_center_sandwich",
                        "main_regularity"]},
            {"id": "facts--q8", "group": "quaternion(8)",
             "checks": ["catalog_facts"],
             "expect": {"order": 8, "exponent": 4, "nilpotency_class": 2,
                        "order_stats": {"1": 1, "2": 1, "4": 6}}},
            {"id": "sym-3--mod2", "group": "sym(3)", "p": 2,
             "checks": ["normal_p_complement", "height_p_complement"]},
            {"id": "sigma--2", "sigma": 2,
             "checks": ["sigma_example_tightness"]},
            {"id": "h3--structure", "group": "heisenberg(3)",
             "checks": ["xu_regularity", "derived_exponent",
                        "derived_omega_identity"]},
        ],
    }


def corrupted_config_dict():
    data = mini_config_dict()
    data["entries"][1]["expect"]["exponent"] = 2  # seeded fault
    return data


def stripped(records):
    out = []
    for r in records:
        r = dict(r)
        r.pop("millis", None)
        out.append(json.dumps(r, sort_keys=True))
    return out


# -- configuration validation --------------------------------------------


def test_default_config_shape():
    cfg = default_config()
    ids = [e.entry_id for e in cfg.entries]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 60
    # round-trips through JSON unchanged
    again = ExperimentConfig.from_text(json.dumps(cfg.to_dict()))
    assert again.to_dict() == cfg.to_dict()


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match=r"line 1, column"):
        ExperimentConfig.from_text("{bad")


@pytest.mark.parametrize("mutate,message,located", [
    (lambda d: d.update(extra=1), r"unknown configuration key 'extra'", True),
    (lambda d: d["caps"].update(warp_factor=9), r"unknown cap 'warp_factor'", True),
    (lambda d: d["caps"].update(closure_cap=0), r"must be a positive integer", True),
    (lambda d: d["caps"].update(action_cap=True),
     r"cap 'action_cap' must be a positive integer", True),
    (lambda d: d.update(caps=[1]), r"'caps' must be a JSON object, got \[1\]", True),
    (lambda d: d.update(caps="x"), r"'caps' must be a JSON object, got \"x\"", True),
    (lambda d: d.update(caps=0), r"'caps' must be a JSON object, got 0", True),
    (lambda d: d.update(caps=None), r"'caps' must be a JSON object, got null", True),
    (lambda d: d.update(parallelism=True),
     r"'parallelism' must be a positive integer", True),
    (lambda d: d.update(entries=[]), r"'entries' must be a non-empty list", True),
    (lambda d: d["entries"][0].pop("id"),
     r"missing a non-empty string 'id'", False),
    (lambda d: d["entries"][0].update(checks=["not_a_check"]),
     r"unknown check 'not_a_check'", True),
    (lambda d: d["entries"][0].update(id="facts--q8"), r"duplicate entry id", True),
    (lambda d: d["entries"][0].pop("action"), r"needs an 'action'", True),
    (lambda d: d["entries"][3].update(group="quaternion(8)"),
     r"exactly one of 'group' or 'sigma'", True),
    (lambda d: d["entries"][1].pop("expect"), r"needs an 'expect' object", True),
    (lambda d: d["entries"][3].update(checks=["xu_regularity"]),
     r"does not apply", True),
    (lambda d: d["entries"][0].update(group="frobnicate(3)"),
     r"unknown group family", True),
    (lambda d: d["entries"][0].update(group="ut(4,,3)"), r"bad group spec", True),
    (lambda d: d["entries"][2].update(p=6), r"'p' must be a prime", True),
])
def test_semantic_errors_are_located(mutate, message, located):
    data = mini_config_dict()
    mutate(data)
    text = json.dumps(data, indent=2)
    with pytest.raises(ConfigError, match=message) as exc:
        ExperimentConfig.from_text(text)
    assert ("(line " in str(exc.value)) == located


# -- running a corpus ----------------------------------------------------


def test_mini_corpus_artifacts(tmp_path):
    cfg = ExperimentConfig.from_text(json.dumps(mini_config_dict()))
    result = run_corpus(cfg, tmp_path / "out")
    assert result.exit_code == EXIT_OK
    assert result.counts["entries"] == 5
    assert result.counts["aborted"] == 0
    assert result.counts["fail"] == 0
    assert result.bundle_dirs == []

    lines = (tmp_path / "out" / "report.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == result.counts["verdicts"] == 10
    for r in records:
        assert set(r) == {"entry", "check", "hypothesis", "conclusion",
                          "witnesses", "millis"}
        # a conclusion is skipped exactly when the hypothesis failed
        assert (r["conclusion"] == "skipped") == (r["hypothesis"] == "fail")

    by_conclusion = {"pass": 0, "skipped": 0, "fail": 0}
    for r in records:
        by_conclusion[r["conclusion"]] += 1
    assert {k: result.counts[k] for k in by_conclusion} == by_conclusion

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["counts"] == result.counts
    assert summary["exit_code"] == EXIT_OK

    # entries appear in configuration order
    order = []
    for r in records:
        if r["entry"] not in order:
            order.append(r["entry"])
    assert order == [e.entry_id for e in cfg.entries]


def test_report_is_deterministic_modulo_millis(tmp_path):
    cfg = ExperimentConfig.from_text(json.dumps(mini_config_dict()))
    a = run_corpus(cfg, tmp_path / "a")
    b = run_corpus(cfg, tmp_path / "b")
    assert stripped(a.records) == stripped(b.records)


def test_parallel_matches_sequential(tmp_path):
    data = mini_config_dict()
    seq = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "seq")
    data["parallelism"] = 3
    par = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "par")
    assert stripped(seq.records) == stripped(par.records)
    assert seq.counts == par.counts


# The built-in corpus report with `millis` stripped from every record.  A
# refactor must leave it unchanged; a deliberate verdict change regenerates
# the file from a fresh `pcentral run` and is logged in CHANGES.md.
GOLDEN_REPORT = Path(__file__).parent / "data" / "corpus-report.ndjson"


def test_builtin_corpus_report_matches_golden(corpus_run):
    got = stripped(corpus_run[0].records)
    want = GOLDEN_REPORT.read_text().splitlines()
    assert len(got) == len(want)
    for line, (a, b) in enumerate(zip(got, want), 1):
        assert a == b, f"report line {line} differs from the golden report"


def _golden_rows():
    """The golden report's rows, by entry id, in report order."""
    rows = {}
    for line in GOLDEN_REPORT.read_text().splitlines():
        rows.setdefault(json.loads(line)["entry"], []).append(line)
    return rows


def _rows_by_entry(records):
    rows = {}
    for line in stripped(records):
        rows.setdefault(json.loads(line)["entry"], []).append(line)
    return rows


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_serial_run_builds_each_group_and_action_once(tmp_path, monkeypatch):
    # 89 group entries on 30 specs, and 29 pair entries on distinct pairs
    groups = _counting(monkeypatch, corpus, "build_group")
    actions = _counting(monkeypatch, corpus, "build_action")
    result = run_corpus(default_config(), tmp_path / "out")
    assert len(groups) == 30 == len(set(groups))
    assert len(actions) == 29
    assert _rows_by_entry(result.records) == _golden_rows()


def test_run_entry_after_a_run_builds_its_own_group(tmp_path):
    data = {"entries": [{"id": "h3--inner", "group": "heisenberg(3)",
                         "action": "inner", "checks": ["main_regularity"]},
                        {"id": "h3--structure", "group": "heisenberg(3)",
                         "checks": ["xu_regularity"]}]}
    run_corpus(ExperimentConfig.from_dict(data), tmp_path / "out")
    by_id = {e.entry_id: e for e in default_config().entries}
    for entry_id in ("quaternion-8--inner", "dihedral-8--structure"):
        verdicts = run_entry(by_id[entry_id], dict(DEFAULT_CAPS))
        got = stripped({"entry": entry_id, **v.to_dict()} for v in verdicts)
        assert got == _golden_rows()[entry_id]


def test_shuffled_parallel_run_gives_every_entry_its_golden_rows(tmp_path):
    data = default_config().to_dict()
    random.Random(5).shuffle(data["entries"])
    data["parallelism"] = 2
    result = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "out")
    assert result.exit_code == EXIT_OK
    assert [r["entry"] for r in result.records] == [
        e["id"] for e in data["entries"] for _ in _golden_rows()[e["id"]]]
    assert _rows_by_entry(result.records) == _golden_rows()


def test_a_failed_build_is_not_shared(tmp_path, monkeypatch):
    groups = _counting(monkeypatch, corpus, "build_group")
    data = {"caps": {"closure_cap": 100},
            "entries": [{"id": f"ut43-{k}", "group": "ut(4,3)",
                         "checks": ["xu_regularity"]} for k in (1, 2)]}
    result = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "out")
    assert result.exit_code == EXIT_BUDGET
    assert [(r["entry"], r["error"]["type"]) for r in result.records] == [
        ("ut43-1", "CapExceeded"), ("ut43-2", "CapExceeded")]
    assert len(groups) == 2


# runs one entry serially and prints whether the process pool was imported
_POOL_IMPORTED = """
import json, sys
from pcentral.corpus import ExperimentConfig, run_corpus
run_corpus(ExperimentConfig.from_dict({"entries": [
    {"id": "q8", "group": "quaternion(8)", "checks": ["xu_regularity"]}]}))
print(json.dumps([m in sys.modules for m in ("concurrent.futures.process",
                                             "multiprocessing")]))
"""


def test_a_serial_run_does_not_import_the_process_pool():
    proc = subprocess.run([sys.executable, "-c", _POOL_IMPORTED],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [False, False]


def _ut43_inner_config():
    (entry,) = [e for e in default_config().entries if e.entry_id == "ut-4-3--inner"]
    return ExperimentConfig(entries=[entry])


def _weak_builds(monkeypatch):
    refs = []
    real = corpus.build_group

    def spied(*args, **kwargs):
        G = real(*args, **kwargs)
        refs.append(weakref.ref(G))
        return G

    monkeypatch.setattr(corpus, "build_group", spied)
    return refs


def test_a_task_frees_its_builds_when_it_ends(monkeypatch):
    # tables sit in reference cycles, which only a collection frees
    refs = _weak_builds(monkeypatch)
    frozen = gc.get_freeze_count()
    result = run_corpus(_ut43_inner_config())
    assert result.exit_code == EXIT_OK
    assert len(refs) == 1 and refs[0]() is None
    assert gc.get_freeze_count() == frozen


def test_a_run_keeps_its_callers_freeze(monkeypatch):
    refs = _weak_builds(monkeypatch)
    held = [object()]
    gc.freeze()
    try:
        run_corpus(_ut43_inner_config())
        assert gc.get_freeze_count() > 0
        assert not any(x is held for x in gc.get_objects())  # still frozen
    finally:
        gc.unfreeze()
    assert refs[0]() is None
    assert any(x is held for x in gc.get_objects())


def test_tasks_follow_group_specs_and_split_for_the_workers():
    def entry(k, group=None):
        return Entry(f"e{k}", ("xu_regularity",), group_spec=group,
                     sigma=None if group else 2)

    q8 = [entry(k, "quaternion(8)") for k in range(4)]
    assert corpus._tasks(q8, 2) == [[0, 1], [2, 3]]
    assert corpus._tasks(q8, 1) == [[0, 1, 2, 3]]
    mixed = [entry(0, "cyclic(2,3)"), entry(1, "sym(3)"), entry(2),
             entry(3, "cyclic( 2, 3 )"), entry(4), entry(5, "sym(3)")]
    assert corpus._tasks(mixed, 1) == [[0, 3], [1, 5], [2], [4]]


def test_seeded_fault_produces_bundle_and_replays(tmp_path):
    cfg = ExperimentConfig.from_dict(corrupted_config_dict())
    result = run_corpus(cfg, tmp_path / "out")
    assert result.exit_code == EXIT_COUNTEREXAMPLE
    assert result.counts["fail"] == 1
    assert len(result.bundle_dirs) == 1

    bundle = result.bundle_dirs[0]
    assert bundle.name == "repro--facts--q8"
    assert (bundle / "group.bin").exists()
    meta = json.loads((bundle / "meta.json").read_text())
    assert meta["failing_checks"] == ["catalog_facts"]
    assert meta["entry"]["id"] == "facts--q8"
    assert meta["caps"]["closure_cap"] == 5000

    # the bundle replays from its own artifacts alone
    replay = replay_bundle(bundle)
    assert replay.exit_code == EXIT_COUNTEREXAMPLE
    assert replay.counts["fail"] == 1
    [record] = replay.records
    assert record["check"] == "catalog_facts"
    assert record["conclusion"] == "fail"


def test_cap_exhaustion_aborts_with_exit_3(tmp_path):
    data = {
        "caps": {"closure_cap": 100},
        "entries": [
            {"id": "too-big", "group": "ut(4,3)",
             "checks": ["xu_regularity"]},
            {"id": "fine", "group": "quaternion(8)",
             "checks": ["xu_regularity"]},
        ],
    }
    result = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "out")
    assert result.exit_code == EXIT_BUDGET
    assert result.counts["aborted"] == 1
    [err] = [r for r in result.records if "error" in r]
    assert err["entry"] == "too-big"
    assert err["error"]["type"] == "CapExceeded"
    # the small entry still ran
    assert any(r.get("check") == "xu_regularity" and r["entry"] == "fine"
               for r in result.records)


def test_prime_beyond_matrix_encoding_aborts_with_exit_3(tmp_path):
    data = {"entries": [{"id": "e257", "group": "elementary_abelian(257,1)",
                         "checks": ["xu_regularity"]}]}
    result = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "out")
    assert result.exit_code == EXIT_BUDGET
    [err] = result.records
    assert err["error"]["type"] == "CapExceeded"
    assert "1-byte encoding" in err["error"]["message"]


def _runtime_config_error_dict():
    # "jordan" passes validation but needs a group with a designated prime
    return {
        "entries": [
            {"id": "q8--inner", "group": "quaternion(8)", "action": "inner",
             "checks": ["main_regularity"]},
            {"id": "s3--jordan", "group": "sym(3)", "action": "jordan",
             "checks": ["main_regularity"]},
            {"id": "too-big", "group": "ut(4,3)",
             "checks": ["xu_regularity"]},
        ],
        "caps": {"closure_cap": 100},
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_runtime_config_error_keeps_the_report(tmp_path, workers):
    cfg = ExperimentConfig.from_dict(_runtime_config_error_dict())
    cfg.parallelism = workers
    result = run_corpus(cfg, tmp_path / "out")
    # a configuration error outranks the cap abort of "too-big"
    assert result.exit_code == EXIT_CONFIG
    assert result.counts["aborted"] == 2
    lines = [json.loads(line) for line in
             (tmp_path / "out" / "report.ndjson").read_text().splitlines()]
    assert [(r["entry"], r.get("check")) for r in lines] == [
        ("q8--inner", "main_regularity"), ("s3--jordan", None), ("too-big", None)]
    assert lines[1]["error"]["type"] == "ConfigError"
    assert "designated prime" in lines[1]["error"]["message"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == EXIT_CONFIG
    assert summary["counts"]["aborted"] == 2


def test_cli_runtime_config_error_exits_4(tmp_path, capsys):
    data = _runtime_config_error_dict()
    del data["entries"][2]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--quiet"]) == 4
    records = [json.loads(line) for line in
               (out / "report.ndjson").read_text().splitlines()]
    assert records[0]["entry"] == "q8--inner" and "check" in records[0]
    assert records[1] == {"entry": "s3--jordan", "error": records[1]["error"]}


def _write_config(tmp_path, caps):
    path = tmp_path / f"ut43-{len(caps)}.json"
    path.write_text(json.dumps({"caps": caps, "entries": [
        {"id": "ut43", "group": "ut(4,3)", "checks": ["catalog_facts"],
         "expect": {"order": 729}}]}))
    return str(path)


def test_closure_cap_aborts_a_run_with_exit_3(tmp_path):
    config_path = _write_config(tmp_path, {"closure_cap": 100})
    assert main(["run", "--config", config_path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == EXIT_BUDGET


def test_action_cap_bounds_every_action(tmp_path):
    data = {"caps": {"action_cap": 2}, "entries": [
        {"id": "q8--inner", "group": "quaternion(8)", "action": "inner",
         "checks": ["main_regularity"]},
        {"id": "e22--full-aut", "group": "elementary_abelian(2,2)",
         "action": "full_aut", "checks": ["main_regularity"]},
        {"id": "e23--jordan", "group": "elementary_abelian(2,3)",
         "action": "jordan", "checks": ["main_regularity"]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_BUDGET
    records = [json.loads(line) for line in (out / "report.ndjson").read_text().splitlines()]
    assert [(r["entry"], r["error"]["type"]) for r in records] == [
        ("q8--inner", "CapExceeded"), ("e22--full-aut", "CapExceeded"),
        ("e23--jordan", "CapExceeded")]


def test_aut_budget_bounds_sylow_aut_exponent(tmp_path):
    data = {"caps": {"aut_budget": 5}, "entries": [
        {"id": "aut--e32", "group": "elementary_abelian(3,2)",
         "checks": ["sylow_aut_exponent"]}]}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--quiet"]) == EXIT_BUDGET
    [record] = [json.loads(line) for line in
                (out / "report.ndjson").read_text().splitlines()]
    assert record["entry"] == "aut--e32"
    assert record["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("workers", [1, 2])
def test_runtime_math_error_keeps_the_report(tmp_path, workers):
    # "jordan" on Z4 x Z2 passes validation, but its generator images do not
    # extend to a homomorphism
    cfg = ExperimentConfig.from_dict({"entries": [
        {"id": "q8--inner", "group": "quaternion(8)", "action": "inner",
         "checks": ["main_regularity"]},
        {"id": "z4z2--jordan", "group": "direct_product(cyclic(2,2), cyclic(2,1))",
         "action": "jordan", "checks": ["main_regularity"]}]})
    cfg.parallelism = workers
    result = run_corpus(cfg, tmp_path / "out")
    assert result.exit_code == EXIT_CONFIG
    lines = [json.loads(line) for line in
             (tmp_path / "out" / "report.ndjson").read_text().splitlines()]
    assert lines[0]["entry"] == "q8--inner"
    assert lines[0]["check"] == "main_regularity"
    assert lines[1]["entry"] == "z4z2--jordan"
    assert lines[1]["error"]["type"] == "NotAHomomorphism"


@pytest.mark.parametrize("workers", [1, 2])
def test_internal_error_keeps_the_report(tmp_path, monkeypatch, workers):
    def broken(G, *, budget):
        raise AssertionError("partial closure disagrees with the subgroup chain")

    monkeypatch.setitem(checks.GROUP_CHECKS, "sylow_aut_exponent", broken)
    cfg = ExperimentConfig.from_dict({"entries": [
        {"id": "q8--inner", "group": "quaternion(8)", "action": "inner",
         "checks": ["main_regularity"]},
        {"id": "aut--e22", "group": "elementary_abelian(2,2)",
         "checks": ["sylow_aut_exponent"]},
        {"id": "z4z2--jordan", "group": "direct_product(cyclic(2,2), cyclic(2,1))",
         "action": "jordan", "checks": ["main_regularity"]},
        corrupted_config_dict()["entries"][1]]})
    cfg.parallelism = workers
    out = tmp_path / "out"
    result = run_corpus(cfg, out)
    # an internal bug outranks a config error and a counterexample
    assert result.exit_code == EXIT_INTERNAL
    lines = [json.loads(line) for line in
             (out / "report.ndjson").read_text().splitlines()]
    assert [r["entry"] for r in lines] == [
        "q8--inner", "aut--e22", "z4z2--jordan", "facts--q8"]
    assert lines[0]["conclusion"] == "pass"
    assert lines[1]["error"] == {
        "type": "AssertionError",
        "message": "partial closure disagrees with the subgroup chain"}
    assert lines[2]["error"]["type"] == "NotAHomomorphism"
    assert lines[3]["conclusion"] == "fail"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == EXIT_INTERNAL
    assert summary["counts"]["aborted"] == 2


def test_replay_applies_the_bundle_closure_cap(tmp_path, capsys):
    bundle = tmp_path / "repro--ut43"
    bundle.mkdir()
    save_group(build_group("ut(4,3)"), bundle / "group.bin")
    (bundle / "meta.json").write_text(json.dumps({
        "entry": {"id": "ut43", "group": "ut(4,3)",
                  "checks": ["xu_regularity"]},
        "caps": {"closure_cap": 100}, "failing_checks": ["xu_regularity"]}))
    assert main(["replay", str(bundle)]) == EXIT_BUDGET
    assert "budget exhausted" in capsys.readouterr().err


def _bundle_with(tmp_path, write_group_file):
    bundle = tmp_path / "repro--c2"
    bundle.mkdir()
    write_group_file(bundle / "group.bin")
    (bundle / "meta.json").write_text(json.dumps({
        "entry": {"id": "c2", "group": "cyclic(2,1)", "checks": ["catalog_facts"],
                  "expect": {"order": 2}},
        "caps": {}, "failing_checks": ["catalog_facts"]}))
    return bundle


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run `seconds` seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_replay_singular_generator_exits_4(tmp_path, capsys):
    # {1, M} is closed under products, but M has no inverse, so the powers of
    # M never reach the identity and M has no order
    M = FpMatrix(3, [[1, 1], [0, 0]])
    bundle = _bundle_with(tmp_path, lambda path: save_group(
        GroupTable([M.identity_like(), M], [M]), path))
    with _deadline(5):
        assert main(["replay", str(bundle)]) == EXIT_CONFIG
    assert "matrix is singular mod 3" in capsys.readouterr().err


# a file holding one 1x1 matrix key over p = 257, which no matrix has: a
# malformed file, not an exhausted cap
_KEY_257 = b"\0" + (257).to_bytes(2, "little") + b"\1\1"
_FILE_257 = (b"PCG1\0" + (257).to_bytes(2, "little") + (1).to_bytes(4, "little")
             + (1).to_bytes(2, "little") + len(_KEY_257).to_bytes(4, "little") + _KEY_257)


@pytest.mark.parametrize("mangle,message", [
    (lambda blob: b"XXXX", "not a serialized group file"),
    (lambda blob: blob[:-1], "truncated generator key"),
    (lambda blob: blob + b"\0", "trailing bytes after generators"),
    (lambda blob: _FILE_257, "prime 257 does not fit the 1-byte encoding"),
], ids=["junk", "truncated", "trailing", "prime-257"])
def test_cli_replay_malformed_group_file_exits_4(tmp_path, capsys, mangle, message):
    def write(path):
        save_group(build_group("cyclic(2,1)"), path)
        path.write_bytes(mangle(path.read_bytes()))

    bundle = _bundle_with(tmp_path, write)
    assert main(["replay", str(bundle)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert f"{bundle / 'group.bin'}: " in err


def _replay_with_meta(tmp_path, edit):
    """replay argv for a cyclic(2,1) bundle whose meta.json text is edited."""
    bundle = _bundle_with(tmp_path, lambda path: save_group(build_group("cyclic(2,1)"), path))
    meta = bundle / "meta.json"
    meta.write_text(edit(meta.read_text()))
    return ["replay", str(bundle)]


def _with_closure_cap(text, cap):
    meta = json.loads(text)
    meta["caps"]["closure_cap"] = cap
    return json.dumps(meta)


def _run_config_bytes(tmp_path, blob):
    config = tmp_path / "corpus.json"
    config.write_bytes(blob)
    return ["run", "--config", str(config), "--out", str(tmp_path / "out")]


_BAD_CAP = "cap 'closure_cap' must be a positive integer"


@pytest.mark.parametrize("argv,message", [
    (lambda tmp: _replay_with_meta(tmp, lambda text: text[:-1]), "invalid JSON"),
    (lambda tmp: _replay_with_meta(tmp, lambda text: _with_closure_cap(text, "100")),
     _BAD_CAP),
    (lambda tmp: _replay_with_meta(tmp, lambda text: _with_closure_cap(text, 0)), _BAD_CAP),
    (lambda tmp: _replay_with_meta(tmp, lambda text: "[]"), "meta.json must be a JSON object"),
    (lambda tmp: ["run", "--config", str(tmp), "--out", str(tmp / "out")], "cannot read"),
    (lambda tmp: _run_config_bytes(tmp, b'{"entries": "\xe9"}'), "cannot read"),
], ids=["meta-json", "meta-string-cap", "meta-zero-cap", "meta-not-object",
        "config-directory", "config-not-utf8"])
def test_cli_outside_input_exits_4(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "out").exists()


# -- command line --------------------------------------------------------


def test_cli_show_emits_structural_json(capsys):
    assert main(["show", "quaternion(8)"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["order"] == 8
    assert facts["exponent"] == 4
    assert facts["omega_orders"] == [2, 8]


@pytest.mark.parametrize("spec, omegas, agemos", [
    ("dihedral(8)", [8, 8], [2, 1]),
    ("wreath_cp_cp(2)", [8, 8], [2, 1]),
    ("ut(4,3)", [729, 729], [3, 1]),
])
def test_cli_show_lists_omegas_until_agemo_is_trivial(capsys, spec, omegas, agemos):
    # Omega_1 is already G in each group, but agemo_1 is not yet trivial
    assert main(["show", spec]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["omega_orders"] == omegas
    assert facts["agemo_orders"] == agemos


def test_cli_show_bad_spec_exits_4(capsys):
    assert main(["show", "ut(4,,3)"]) == 4
    assert "configuration error" in capsys.readouterr().err


def test_cli_aut_with_sylow(capsys):
    assert main(["aut", "elementary_abelian(2,2)", "--sylow", "2"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["aut_order"] == 6
    assert facts["sylow_order"] == 2
    assert facts["sylow_exponent"] == 2


# prints the exit code and the peak resident set size (KiB) before and after
_PEAK_RSS = """
import resource, sys
from pcentral.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(sys.argv[1:])
print(code, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_cli_aut_budget_on_a_large_group_exits_3_in_small_memory():
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "aut", "elementary_abelian(5,4)", "--budget", "1000"],
        capture_output=True, text=True)
    code, before, after = map(int, proc.stdout.split())
    assert code == EXIT_BUDGET == 3
    assert "exceeded 1000 candidate tuples" in proc.stderr
    assert after - before < 16 * 1024


def test_cli_aut_budget_exhaustion_exits_3(capsys):
    assert main(["aut", "elementary_abelian(3,3)", "--budget", "10"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["aut", "cyclic(3,2)", "--sylow", "4"], "--sylow must be a prime, got 4"),
    (["aut", "cyclic(3,2)", "--sylow", "1"], "--sylow must be a prime, got 1"),
    (["aut", "elementary_abelian(2,2)", "--budget", "-1"],
     "--budget must be a positive integer"),
    (["aut", "elementary_abelian(2,2)", "--budget", "0"],
     "--budget must be a positive integer"),
])
def test_cli_aut_bad_option_exits_4(argv, message, capsys):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_cli_aut_large_sylow_prime_is_decided_at_once(capsys):
    assert main(["aut", "cyclic(2,1)", "--sylow", "1000000000000000003"]) == 0
    assert json.loads(capsys.readouterr().out)["sylow_order"] == 1
    assert main(["aut", "cyclic(2,1)", "--sylow",
                 "3317044064679887385961981"]) == EXIT_CONFIG
    assert "decided only below 3317044064679887385961981" in capsys.readouterr().err


def test_cli_aut_sylow_prime_beyond_matrix_encoding(capsys):
    # a Sylow prime encodes nothing, so the matrix entry limit does not apply
    assert main(["aut", "cyclic(2,1)", "--sylow", "65537"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert (facts["sylow_prime"], facts["sylow_order"]) == (65537, 1)


def test_designated_prime_beyond_matrix_encoding_runs(tmp_path):
    data = {"entries": [{"id": "s3--mod65537", "group": "sym(3)", "p": 65537,
                         "checks": ["normal_p_complement", "height_p_complement"]}]}
    result = run_corpus(ExperimentConfig.from_dict(data), tmp_path / "out")
    assert result.exit_code == EXIT_OK
    assert [(r["check"], r["conclusion"]) for r in result.records] == [
        ("normal_p_complement", "pass"), ("height_p_complement", "pass")]


@pytest.mark.parametrize("field,index", [("p", 2), ("sigma", 3)])
def test_cli_prime_beyond_the_test_bound_is_located(tmp_path, capsys,
                                                    field, index):
    data = mini_config_dict()
    data["entries"][index][field] = 3317044064679887385961981
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps(data, indent=2))
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "decided only below 3317044064679887385961981" in err
    assert f"'{field}'" in err and "(line " in err


def test_cli_caps_not_an_object_is_located(tmp_path, capsys):
    data = mini_config_dict()
    data["caps"] = [1]
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps(data, indent=2))
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'caps' must be a JSON object, got [1] (line 2, column 3)" in err


def test_cli_sigma_non_prime_names_sigma(capsys):
    assert main(["sigma", "4"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sigma needs a prime p, got 4" in err
    assert "elementary_abelian" not in err


SIGMA_5 = Entry("sigma--5", ("sigma_example_tightness",), sigma=5)


@pytest.mark.parametrize("cap,value,message", [
    ("closure_cap", 15624, r"\|G\| = 5\^6 exceeds cap 15624$"),
    ("action_cap", 24, r"action closure exceeded cap of 24$"),
])
def test_sigma_entries_obey_the_caps(cap, value, message):
    # the p = 5 example has |G| = 5^6 = 15625 and |A| = 25, like
    # elementary_abelian(5,6) under jordan
    with pytest.raises(CapExceeded, match=message):
        run_entry(SIGMA_5, {**DEFAULT_CAPS, cap: value})


def test_sigma_entries_pass_at_the_caps():
    caps = {**DEFAULT_CAPS, "closure_cap": 15625, "action_cap": 25}
    (v,) = run_entry(SIGMA_5, caps)
    assert v.conclusion == "pass"


def test_a_sigma_entry_under_small_caps_exits_3(tmp_path):
    data = {"caps": {"closure_cap": 1000, "action_cap": 2},
            "entries": [{"id": "sigma--5", "sigma": 5, "checks": ["sigma_example_tightness"]},
                        {"id": "e56--jordan", "group": "elementary_abelian(5,6)",
                         "action": "jordan", "checks": ["power_order_criterion"]}]}
    result = run_corpus(ExperimentConfig.from_dict(data), tmp_path)
    assert result.exit_code == EXIT_BUDGET
    assert [r["error"]["message"] for r in result.records] == [
        "|G| = 5^6 exceeds cap 1000"] * 2


def test_cli_show_heisenberg_names_its_family(capsys):
    assert main(["show", "heisenberg(4)"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "heisenberg needs a prime, got 4" in err
    assert "ut needs" not in err


def test_cli_sigma(capsys):
    assert main(["sigma", "2"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["check"] == "sigma_example_tightness"
    assert verdict["conclusion"] == "pass"
    assert verdict["millis"] > 0  # measured by the runner


def _raise_assertion(*args, **kwargs):
    raise AssertionError("seeded internal fault")


def test_cli_sigma_internal_error_exits_5(monkeypatch, capsys):
    monkeypatch.setitem(checks.SIGMA_CHECKS, "sigma_example_tightness",
                        _raise_assertion)
    assert main(["sigma", "2"]) == EXIT_INTERNAL
    assert ("internal error: AssertionError: seeded internal fault"
            in capsys.readouterr().err)


def test_cli_replay_internal_error_exits_5(tmp_path, monkeypatch, capsys):
    bundle = tmp_path / "repro--q8"
    bundle.mkdir()
    save_group(build_group("quaternion(8)"), bundle / "group.bin")
    (bundle / "meta.json").write_text(json.dumps({
        "entry": {"id": "q8", "group": "quaternion(8)",
                  "checks": ["xu_regularity"]},
        "caps": {}, "failing_checks": ["xu_regularity"]}))
    monkeypatch.setitem(checks.GROUP_CHECKS, "xu_regularity", _raise_assertion)
    assert main(["replay", str(bundle)]) == EXIT_INTERNAL
    assert ("internal error: AssertionError: seeded internal fault"
            in capsys.readouterr().err)


def test_cli_write_default_config_round_trips(tmp_path, capsys):
    target = tmp_path / "corpus.json"
    assert main(["run", "--write-default-config", str(target)]) == 0
    cfg = ExperimentConfig.from_file(target)
    assert cfg.to_dict() == default_config().to_dict()


def test_cli_run_fault_then_replay(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(corrupted_config_dict()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--quiet"]) == EXIT_COUNTEREXAMPLE
    stdout = capsys.readouterr().out
    assert "reproducer bundle" in stdout
    bundle = out / "repro--facts--q8"
    assert main(["replay", str(bundle)]) == EXIT_COUNTEREXAMPLE


def test_cli_missing_config_exits_4(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4
    assert "missing file" in capsys.readouterr().err


def test_cli_malformed_config_exits_4(tmp_path, capsys):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    assert main(["run", "--config", str(config_path)]) == 4
    assert "line 1, column" in capsys.readouterr().err


def test_cli_usage_error_exits_4():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 4


def test_cli_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pcentral.cli", "show", "cyclic(2,3)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    facts = json.loads(proc.stdout)
    assert facts["order"] == 8
    assert facts["agemo_orders"] == [4, 2, 1]
