"""Benchmark of pcentral's batch checker, measured from outside the program.

Usage:
    python3 perfbench/run.py --workload corpus|corpus-noaut|batch-w2 \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory and every output goes under ``.perfbench-out/`` at the repo root.

Each round is one fresh ``pcentral run`` of the workload in its own
interpreter (``child.py``).  Rounds repeat until ``--seconds`` of rounds have
passed, so every run attempts whole rounds.  With ``--trace 0`` the rounds
sit between SETUP_STARTS fresh starts that stop at the first entry, and the
run prints the end-to-end metrics: medians over the rounds of ``run_s``,
``cpu_s`` and ``peak_rss_mb``, and the median ``setup_s`` over every fresh
start.  With ``--trace 1`` the untraced rounds are followed by one traced
round and one more untraced round, and the per-layer metrics of the traced
round are printed, with its overhead against the untraced median.  Every
round's report is checked by ``verify.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
entries over all rounds, ``failed`` the entries without verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# fresh starts that stop at the first entry: half before the rounds, half after
SETUP_STARTS = 6
# a round that runs longer than this is killed and counted as failed
ROUND_TIMEOUT_S = 150.0
POLL_S = 0.02
# end-to-end metrics taken per round, reported as the median over rounds
ROUND_METRICS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _hwm_kib(pid: int) -> int:
    """VmHWM, the peak resident set of a live process; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _with_children(pid: int) -> list:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [pid] + [int(c) for c in fh.read().split()]
    except OSError:
        return [pid]


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the killed group is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(POLL_S)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_round(workload, config_path, rdir: Path, mode: str, trace: bool) -> dict:
    """One fresh interpreter running the workload; returns its measurements."""
    _fresh(rdir)
    timing = _fresh(rdir / "timing")
    trace_dir = _fresh(rdir / "trace") if trace else None
    job = {"src": str(SRC), "config": config_path, "out": str(rdir / "out"),
           "timing_dir": str(timing), "workers": workload.workers,
           "mode": mode, "trace_dir": str(trace_dir) if trace_dir else None}
    job_path = rdir / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env.pop("PCENTRAL_CACHE_DIR", None)
    if workload.uses_cache:
        env["PCENTRAL_CACHE_DIR"] = str(_fresh(rdir / "cache"))
    with (rdir / "child.log").open("w") as log:
        t_spawn = time.monotonic()
        # its own process group, so that a timeout kills the workers too
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(job_path)], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        # ru_maxrss would also hold this process's own peak, which the
        # child inherits when it is spawned, so peaks are read from /proc
        peak_kib = 0
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t_spawn > ROUND_TIMEOUT_S:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                _wait_group_gone(proc.pid)
                break
            for p in _with_children(proc.pid):
                peak_kib = max(peak_kib, _hwm_kib(p))
            time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    firsts = [float(p.read_text()) for p in timing.glob("first-*")]
    child_path = timing / "child.json"
    if proc.returncode != 0 or not firsts or not child_path.exists():
        return {"ok": False, "exit_code": proc.returncode, "rdir": rdir}
    child = json.loads(child_path.read_text())
    t_first = min(firsts)
    return {"ok": True, "exit_code": proc.returncode, "rdir": rdir,
            "setup_s": t_first - t_spawn,
            "run_s": child["t_end"] - t_first,
            "report_write_s": child["t_end"] - child["t_last_result"],
            # covers the reaped workers too
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": max(peak_kib, child["hwm_kib"]) / 1024.0,
            "trace_dir": trace_dir}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcentral" / "__init__.py").is_file():
        print(f"error: no pcentral sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracer
    import verify
    import workloads

    try:
        workload = workloads.make(args.workload, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    base = _fresh(OUT / f"{args.workload}-trace{args.trace}")
    config_path = None
    if workload.config is not None:
        config_path = str(base / "config.json")
        Path(config_path).write_text(json.dumps(workload.config, indent=1))

    checker = verify.Checker()
    attempted = failed = 0
    correct = True
    setups, rounds = [], []

    def finish(r: dict) -> dict:
        """Check one round's report; count its entries."""
        nonlocal attempted, failed, correct
        n = len(workload.entries)
        attempted += n
        if not r["ok"]:
            failed += n
            correct = False
            print(f"round in {r['rdir']} failed with exit code {r['exit_code']}",
                  file=sys.stderr)
            return r
        records, exit_code = verify.read_run(r["rdir"] / "out")
        done = {rec["entry"] for rec in records if "error" not in rec}
        failed += sum(1 for e in workload.entries if e["id"] not in done)
        fails = checker.check(workload.entries, records, exit_code)
        for f in fails:
            print(f"FAIL {f}", file=sys.stderr)
        correct &= not fails
        return r

    def setup_starts(count: int) -> bool:
        for _ in range(count):
            s = run_round(workload, config_path, base / "setup", "setup", False)
            if not s["ok"]:
                print(f"set-up start failed with exit code {s['exit_code']}",
                      file=sys.stderr)
                return False
            setups.append(s["setup_s"])
        return True

    def untraced_round() -> None:
        rdir = base / f"round{len(rounds) % 2}"  # keep the last two
        r = finish(run_round(workload, config_path, rdir, "full", False))
        rounds.append(r)
        if r["ok"]:
            print("round " + " ".join(f"{k}={r[k]:.4f}" for k in ROUND_METRICS),
                  file=sys.stderr)

    if not args.trace and not setup_starts(SETUP_STARTS // 2):
        return 1
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < args.seconds:
        untraced_round()

    if args.trace:
        traced = finish(run_round(workload, config_path, base / "traced",
                                  "full", True))
        # an untraced round after the traced one too, so that a host whose
        # speed drifts during the run does not show up as tracing overhead
        untraced_round()
    elif not setup_starts(SETUP_STARTS - SETUP_STARTS // 2):
        return 1
    good = [r for r in rounds if r["ok"]]
    if not good or (args.trace and not traced["ok"]):
        print("no round finished", file=sys.stderr)
        return 1
    run_s = statistics.median(r["run_s"] for r in good)

    if args.trace:
        records = tracer.load(traced["trace_dir"])
        layers = tracer.summarize(records, traced["run_s"], workload.workers,
                                  traced["report_write_s"])
        trace_run_s, trace_overhead_s = tracer.OVERHEAD
        layers[trace_run_s] = traced["run_s"]
        layers[trace_overhead_s] = traced["run_s"] - run_s
        tracer.chrome_trace(records, base / "trace.json")
        metrics = {k: {"value": v, "unit": tracer.unit(k)}
                   for k, v in sorted(layers.items())}
    else:
        setups.extend(r["setup_s"] for r in good)
        print("setup " + " ".join(f"{v:.4f}" for v in setups), file=sys.stderr)
        metrics = {k: {"value": statistics.median(r[k] for r in good),
                       "unit": ROUND_METRICS[k]} for k in ROUND_METRICS}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
          f"oracle coverage {dict(checker.covered)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
