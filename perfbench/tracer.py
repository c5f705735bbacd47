"""Layer tracing installed from outside pcentral.

``install(tracer)`` replaces the public functions listed in ``SPANNED`` with
wrappers that record a span (name, start, end, parent) per call, in every
pcentral module namespace and check registry that holds the function, so a
call through any imported name is seen.  Element products and inverses are
far too many to keep as spans: ``LEAVES`` wraps them with a counter and a time
accumulator, and that time is subtracted from the enclosing span's self time.
Methods of ``GroupTable``, ``Subgroup`` and ``Automorphism`` are not wrapped;
their time counts as self time of the calling function.

Each process keeps its spans in memory.  A worker process appends them to
``spans-<pid>.jsonl`` in the trace directory each time it finishes an entry
(its root span); the main process writes its own with ``flush()`` once the
run has ended.  ``summarize`` turns the files into the per-layer metrics and
``chrome_trace`` into a Chrome trace-event file.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List

_now = time.perf_counter_ns

# layer (= pcentral module) -> public functions recorded as spans
SPANNED: Dict[str, tuple] = {
    "corpus": ("run_entry",),
    "catalog": ("build_group", "build_action", "paper_sigma_pair",
                "sigma_matrix", "sigma_power_closed_form"),
    "store": ("save_group", "load_group"),
    "groups": ("close", "subgroup_generated", "is_normal", "normal_closure",
               "commutator_subgroup", "center", "centralizer",
               "automorphism_from_images", "identity_automorphism",
               "conjugation_aut", "restrict_automorphism",
               "minimal_generating_sequence", "quotient"),
    "series": ("lower_central_series", "nilpotency_class",
               "upper_central_series", "omega_set", "omega_subgroup",
               "omega_conv", "agemo", "is_omega_regular", "xu_inequality",
               "is_p_central_of_height"),
    "actions": ("ActionPair.build", "trivial_action", "inner_action",
                "mixed_commutator_subgroup", "commutator_group_of_pair",
                "mixed_lower_central_series", "gamma_term",
                "mixed_series_definitional", "is_p_central_action",
                "induced_quotient_action", "restrict_action",
                "aut_perm_realization", "aut_as_perm_group",
                "order_matches_quotient_triviality"),
    "autsearch": ("brute_force_aut", "sylow_p_subgroup", "normalizer"),
}

# slots of Tracer.leaf: time spent in element operations, and their counts
LEAF_NS, PRODUCTS, INVERSIONS = range(3)
# elements method -> the slot it counts in
LEAVES = {
    "FpMatrix.__mul__": PRODUCTS,
    "Permutation.__mul__": PRODUCTS,
    "FpMatrix._compute_inverse": INVERSIONS,
    "Permutation._compute_inverse": INVERSIONS,
}

# counts taken from a call's result, at the same boundary as its span
_CLOSURE = lambda r: r.order  # noqa: E731
RESULT_COUNTS: Dict[str, tuple] = {
    "groups.close": (("groups.closure_elements", _CLOSURE),),
    "groups.subgroup_generated": (("groups.closure_elements", _CLOSURE),
                                  ("groups.subgroup_calls", lambda r: 1)),
    "groups.normal_closure": (("groups.closure_elements", _CLOSURE),),
    "groups.commutator_subgroup": (("groups.closure_elements", _CLOSURE),),
    "actions.ActionPair.build": (("actions.action_closure_size",
                                  lambda r: r.A_order),),
    "autsearch.brute_force_aut": (("autsearch.automorphisms",
                                   lambda r: r.order),),
    "catalog.build_group": (("catalog.build_groups", lambda r: 1),),
    "store.save_group": (("store.saves", lambda r: 1),),
    "store.load_group": (("store.loads", lambda r: 1),),
}

# per-layer metric -> span whose inclusive time (outermost calls) it reports
INCLUSIVE: Dict[str, str] = {
    "groups.quotient_s": "groups.quotient",
    "actions.definitional_s": "actions.mixed_series_definitional",
    "autsearch.aut_s": "autsearch.brute_force_aut",
    "autsearch.sylow_s": "autsearch.sylow_p_subgroup",
    "catalog.build_group_s": "catalog.build_group",
    "catalog.build_action_s": "catalog.build_action",
    "store.save_s": "store.save_group",
    "store.load_s": "store.load_group",
    "corpus.entry_busy_s": "corpus.run_entry",
}

SELF_LAYERS = ("groups", "series", "actions")

# printed by the traced run beside the layer metrics
OVERHEAD = ("trace.run_s", "trace.overhead_s")

COUNTS = ("elements.products", "elements.inversions",
          "groups.closure_elements", "groups.subgroup_calls", "series.calls",
          "actions.action_closure_size", "autsearch.automorphisms",
          "catalog.build_groups", "store.saves", "store.loads")


def unit(metric: str) -> str:
    return "count" if metric in COUNTS else "s"


class Tracer:
    """Per-process span store; a forked child starts with an empty one."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.main_pid = os.getpid()
        # indexed by LEAF_NS, PRODUCTS, INVERSIONS; cleared in place, since
        # the leaf wrappers hold this list
        self.leaf = [0, 0, 0]
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.next_id = 0
        self._clear()

    def _clear(self) -> None:
        # finished spans: (id, parent id, name, start ns, duration ns, self ns)
        self.spans: List[tuple] = []
        # open spans: [id, child span ns, leaf ns at start, leaf ns in children]
        self.stack: List[list] = []
        self.open_by_name: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.leaf[:] = (0, 0, 0)

    def span(self, name: str, fn: Callable) -> Callable:
        hooks = RESULT_COUNTS.get(name, ())
        tr = self
        leaf = self.leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_by_name = tr.open_by_name
            outer = open_by_name[name] == 0
            open_by_name[name] += 1
            sid = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1][0] if tr.stack else -1
            frame = [sid, 0, leaf[LEAF_NS], 0]
            tr.stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                tr.stack.pop()
                open_by_name[name] -= 1
                leaf_inside = leaf[LEAF_NS] - frame[2]
                own = dur - frame[1] - (leaf_inside - frame[3])
                tr.spans.append((sid, parent, name, t0, dur, own))
                if outer:
                    tr.inclusive[name] += dur
                if tr.stack:
                    up = tr.stack[-1]
                    up[1] += dur
                    up[3] += leaf_inside
            for counter, measure in hooks:
                tr.counts[counter] += measure(result)
            if not tr.stack and tr.pid != tr.main_pid:
                tr.flush()
            return result

        return wrapper

    def leaf_op(self, slot: int, fn: Callable) -> Callable:
        leaf = self.leaf

        def wrapper(*args):
            t0 = _now()
            result = fn(*args)
            leaf[LEAF_NS] += _now() - t0
            leaf[slot] += 1
            return result

        return wrapper

    def flush(self) -> None:
        """Append this process's finished spans and counts, then drop them."""
        counts = dict(self.counts)
        counts["elements.products"] = self.leaf[PRODUCTS]
        counts["elements.inversions"] = self.leaf[INVERSIONS]
        record = {"pid": self.pid, "spans": self.spans,
                  "inclusive": dict(self.inclusive), "counts": counts,
                  "leaf_ns": self.leaf[LEAF_NS]}
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        self._clear()


def _replace_everywhere(modules: Iterable, old: object, new: object) -> int:
    """Rebind every module global and registry dict value that is ``old``."""
    hits = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                hits += 1
            elif type(value) is dict:
                for k, v in value.items():
                    if v is old:
                        value[k] = new
                        hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the functions in SPANNED, every check and the element LEAVES."""
    from pcentral import checks, elements

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "pcentral" or n.startswith("pcentral.")]

    for layer, names in SPANNED.items():
        mod = sys.modules[f"pcentral.{layer}"]
        for name in names:
            if "." in name:  # a classmethod
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(tracer.span(f"{layer}.{name}", fn)))
                continue
            fn = getattr(mod, name)
            if not _replace_everywhere(modules, fn, tracer.span(f"{layer}.{name}", fn)):
                raise RuntimeError(f"pcentral.{layer}.{name} not found")

    registries = (checks.PAIR_CHECKS, checks.GROUP_CHECKS,
                  checks.GROUP_PRIME_CHECKS, checks.SIGMA_CHECKS,
                  checks.FACT_CHECKS)
    for registry in registries:
        for check_name, fn in list(registry.items()):
            _replace_everywhere(modules, fn,
                                tracer.span(f"checks.{check_name}", fn))

    for name, slot in LEAVES.items():
        cls_name, meth = name.split(".")
        cls = getattr(elements, cls_name)
        setattr(cls, meth, tracer.leaf_op(slot, cls.__dict__[meth]))


# -- reading the flushed spans ----------------------------------------------


def load(trace_dir: Path) -> List[dict]:
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with path.open() as fh:
            records.extend(json.loads(line) for line in fh)
    return records


def check_names() -> List[str]:
    from pcentral.checks import ALL_CHECK_NAMES
    return sorted(ALL_CHECK_NAMES)


def summarize(records: List[dict], run_s: float, workers: int,
              report_write_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round, summed over its processes."""
    metrics: Dict[str, float] = dict.fromkeys(COUNTS, 0)
    metrics["elements.self_s"] = 0.0
    self_ns: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for rec in records:
        for name, ns in rec["inclusive"].items():
            inclusive[name] += ns
        for counter, n in rec["counts"].items():
            metrics[counter] += n
        metrics["elements.self_s"] += rec["leaf_ns"] / 1e9
        for _sid, _parent, name, _t0, _dur, own in rec["spans"]:
            layer = name.split(".", 1)[0]
            self_ns[layer] += own
            calls[layer] += 1
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    metrics["series.calls"] = calls["series"]
    for metric, span_name in INCLUSIVE.items():
        metrics[metric] = inclusive[span_name] / 1e9
    for check in check_names():
        metrics[f"checks.{check}_s"] = inclusive[f"checks.{check}"] / 1e9
    metrics["corpus.worker_idle_s"] = (
        workers * run_s - metrics["corpus.entry_busy_s"])
    metrics["corpus.report_write_s"] = report_write_s
    return metrics


def chrome_trace(records: List[dict], path: Path) -> None:
    """Write the spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
    events = []
    for rec in records:
        pid = rec["pid"]
        for sid, parent, name, t0, dur, own in rec["spans"]:
            events.append({"name": name, "cat": name.split(".", 1)[0],
                           "ph": "X", "pid": pid, "tid": pid,
                           "ts": t0 / 1e3, "dur": dur / 1e3,
                           "args": {"id": sid, "parent": parent,
                                    "self_us": own / 1e3}})
    with Path(path).open("w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
