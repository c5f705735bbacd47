"""Self-test of the benchmark's correctness checks.

Usage: python3 perfbench/selftest.py

Runs ``pcentral run --workers 2`` on a small config that includes
``aut--elementary-abelian-3-3`` (|Aut| = |GL(3,3)| = 11232), and two copies
of one entry, then shows that

1. ``verify.py`` passes the clean report (exit 0);
2. ``verify.py`` fails, with a non-zero exit, on the same report with one
   conclusion flipped from pass to fail;
3. the checks fail, with a non-zero exit, when the expected |GL(3,3)| is
   wrong;

and that BENCHMARK.json names exactly the per-layer metrics ``run.py``
prints.  Takes about half a minute, most of it the Aut(G) search.  Exits 0
when every case behaves as stated.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-out" / "selftest"

KEEP = ("heisenberg-3--inner", "quaternion-8--inner", "sigma--3",
        "aut--elementary-abelian-3-3")
COPIED = "dihedral-8--inner"

WRONG_GL33 = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
import verify
wrong = lambda spec: 11231 if spec == "elementary_abelian(3,3)" else verify.classical_aut_order(spec)
sys.exit(verify.main([{config!r}, {out!r}], aut_order=wrong))
"""


def _run(cmd, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, **kw)


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracer
    import verify
    from pcentral.corpus import default_config

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    builtin = {e["id"]: e for e in default_config().to_dict()["entries"]}
    entries = [builtin[i] for i in KEEP]
    entries += [{**builtin[COPIED], "id": f"{COPIED}--copy{k}"} for k in range(2)]
    config = WORK / "config.json"
    config.write_text(json.dumps({"caps": {}, "parallelism": 2, "entries": entries}))
    clean = WORK / "clean"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PCENTRAL_CACHE_DIR", None)
    run = _run([sys.executable, "-m", "pcentral.cli", "run", "--config",
                str(config), "--out", str(clean), "--workers", "2", "--quiet"],
               env=env)
    results = []

    def expect(name: str, ok: bool, detail: str) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    expect("program run", run.returncode == 0, f"exit {run.returncode}")
    expect("classical |GL(3,3)|",
           verify.classical_aut_order("elementary_abelian(3,3)") == 11232,
           str(verify.classical_aut_order("elementary_abelian(3,3)")))

    res = _run([sys.executable, str(HERE / "verify.py"), str(config), str(clean)])
    expect("clean report passes", res.returncode == 0, res.stdout.strip()[-200:])

    flipped = WORK / "flipped"
    shutil.copytree(clean, flipped)
    records, _ = verify.read_run(flipped)
    victim = next(r for r in records if r.get("hypothesis") == "pass"
                  and r.get("conclusion") == "pass")
    victim["conclusion"] = "fail"
    with (flipped / "report.ndjson").open("w") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    res = _run([sys.executable, str(HERE / "verify.py"), str(config), str(flipped)])
    expect("flipped conclusion fails",
           res.returncode != 0 and "hypothesis pass with conclusion fail" in res.stdout,
           f"exit {res.returncode}, {victim['entry']}/{victim['check']}")

    res = _run([sys.executable, "-c", WRONG_GL33.format(
        here=str(HERE), src=str(ROOT / "src"), config=str(config), out=str(clean))])
    expect("wrong |GL(3,3)| fails",
           res.returncode != 0 and "aut_order 11232 != 11231" in res.stdout,
           f"exit {res.returncode}")

    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    printed = set(tracer.summarize([], 0.0, 1, 0.0)) | set(tracer.OVERHEAD)
    expect("BENCHMARK.json per-layer names", declared == printed,
           f"only declared {sorted(declared - printed)}, "
           f"only printed {sorted(printed - declared)}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
