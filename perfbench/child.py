"""One fresh ``pcentral run``, timed from outside the program.

Usage: python3 perfbench/child.py JOB.json

JOB.json names the source tree, the config file (null for the built-in
corpus), the output and timing directories, the worker count, the mode and an
optional trace directory.  The run is what ``pcentral run --config CONFIG
--out OUT --workers N`` does: read and validate the config, then
``run_corpus``.  A wrapper on ``corpus.run_entry`` writes the time each
process starts its first entry to ``first-<pid>`` in the timing directory; the
progress callback of ``run_corpus`` stamps each entry's result and the end of
the run.  In ``setup`` mode every entry returns no verdicts at once, so the
process measures only the set-up before its first entry.

All stamps are ``time.monotonic()``, one clock for every process on the host.
"""

import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    timing_dir = job["timing_dir"]
    sys.path.insert(0, job["src"])
    from pcentral import corpus
    from pcentral.corpus import ExperimentConfig, default_config, run_corpus

    tracer = None
    if job["trace_dir"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer(job["trace_dir"])
        tracing.install(tracer)

    run_entry = corpus.run_entry
    setup_only = job["mode"] == "setup"
    stamped_pid = [0]  # a forked worker inherits its parent's value

    def first_entry_stamp(entry, caps, G=None):
        if stamped_pid[0] != os.getpid():
            t = time.monotonic()
            stamped_pid[0] = os.getpid()
            with open(os.path.join(timing_dir, f"first-{os.getpid()}"), "w") as fh:
                fh.write(repr(t))
        if setup_only:
            return []
        return run_entry(entry, caps, G)

    corpus.run_entry = first_entry_stamp

    if job["config"] is None:
        config = default_config()
    else:
        config = ExperimentConfig.from_file(job["config"])
    config.parallelism = job["workers"]

    last_result = [0.0]

    def progress(line: str) -> None:
        if line.startswith("["):
            last_result[0] = time.monotonic()

    result = run_corpus(config, job["out"], progress=progress)
    t_end = time.monotonic()
    if tracer is not None:
        tracer.flush()
    with open("/proc/self/status") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    with open(os.path.join(timing_dir, "child.json"), "w") as fh:
        json.dump({"t_end": t_end, "t_last_result": last_result[0],
                   "exit_code": result.exit_code, "hwm_kib": hwm_kib}, fh)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
