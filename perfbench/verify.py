"""Correctness checks on one ``pcentral run`` output.

Usage: python3 perfbench/verify.py CONFIG.json OUT_DIR

CONFIG.json is the configuration the run was given (for the built-in corpus,
``pcentral run --write-default-config`` writes it); OUT_DIR holds the run's
``report.ndjson`` and ``summary.json``.  Every check compares the report with
a computation done apart from the program, or with a property the method must
have:

* the run exited 0, and the report holds exactly the configured entries with
  their configured checks, in order, and no aborted entry;
* no verdict has a passing hypothesis and a failing conclusion: the checked
  statements are theorems of the paper;
* ``sylow_aut_exponent`` with a passing hypothesis reports the classical
  |Aut(G)| and its p-part as the Sylow order;
* for inner actions the mixed series is the lower central series: sympy's
  ``lower_central_series()`` on permutation-backed groups, and
  |gamma_k| = p^((n-k)(n-k+1)/2) on ut(n,p) and heisenberg(p);
* ``sigma--p`` reports sigma of order p^2, [E,A] of exponent p, and reading
  orders p^2 and p;
* copies of one entry (ids ``<id>--copy<k>``) give the same records apart
  from ``millis`` and the entry id.

Prints one line per failure and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_SPEC = re.compile(r"^([a-z_0-9]+)\(([^()]*)\)$")
_COPY = re.compile(r"^(.*)--copy\d+$")


def _family(spec: str):
    m = _SPEC.match(spec.replace(" ", ""))
    if not m:
        return None, ()
    args = tuple(int(a) for a in m.group(2).split(",") if a)
    return m.group(1), args


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def classical_aut_order(spec: str) -> Optional[int]:
    """|Aut(G)| by formula: |GL(n,p)| for elementary_abelian(p,n), and
    p^2 * |GL(2,p)| for heisenberg(p); None for other groups."""
    name, args = _family(spec)
    if name == "elementary_abelian":
        p, n = args
        order = 1
        for i in range(n):
            order *= p ** n - p ** i
        return order
    if name == "heisenberg":
        (p,) = args
        return p * p * (p * p - 1) * (p * p - p)
    return None


def _prime_of(spec: str) -> Optional[int]:
    name, args = _family(spec)
    return args[0] if name in ("elementary_abelian", "heisenberg") else None


class Checker:
    """Runs the checks; expected lower central series are cached per spec."""

    def __init__(self, aut_order: Callable[[str], Optional[int]] = classical_aut_order):
        self.aut_order = aut_order
        self._lcs: Dict[str, Optional[List[int]]] = {}
        self.covered: Counter = Counter()

    def lower_central_orders(self, spec: str) -> Optional[List[int]]:
        """|gamma_1|, ..., down to the stable term, or None without an oracle."""
        if spec not in self._lcs:
            self._lcs[spec] = self._compute_lcs(spec)
        return self._lcs[spec]

    @staticmethod
    def _compute_lcs(spec: str) -> Optional[List[int]]:
        name, args = _family(spec)
        if name in ("ut", "heisenberg"):
            n, p = args if name == "ut" else (3, args[0])
            return [p ** ((n - k) * (n - k + 1) // 2) for k in range(1, n + 1)]
        from pcentral import build_group
        from pcentral.elements import Permutation
        gens = build_group(spec).generators
        if not all(isinstance(g, Permutation) for g in gens):
            return None
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics import PermutationGroup
        group = PermutationGroup([SymPerm([int(i) for i in g.images])
                                  for g in gens])
        return [term.order() for term in group.lower_central_series()]

    def check(self, entries: List[dict], records: List[dict],
              exit_code: int) -> List[str]:
        fails: List[str] = []
        if exit_code != 0:
            fails.append(f"run exited {exit_code}")
        errors = [r for r in records if "error" in r]
        for r in errors:
            fails.append(f"{r['entry']}: aborted: {r['error']}")
        want = [(e["id"], c) for e in entries for c in e["checks"]]
        got = [(r["entry"], r.get("check")) for r in records if "error" not in r]
        if got != want:
            fails.append(f"report rows {len(got)} differ from configured "
                         f"entry checks {len(want)}")
        by_id = {e["id"]: e for e in entries}
        for r in records:
            if "error" in r:
                continue
            e = by_id.get(r["entry"])
            if e is None:
                continue
            fails.extend(f"{r['entry']}: {r['check']}: {msg}"
                         for msg in self._check_record(e, r))
        fails.extend(self._check_copies(records))
        return fails

    def _check_record(self, e: dict, r: dict) -> List[str]:
        w = r.get("witnesses", {})
        out = []
        if r["hypothesis"] == "pass" and r["conclusion"] == "fail":
            out.append("hypothesis pass with conclusion fail")
        check = r["check"]
        if check == "sylow_aut_exponent" and r["hypothesis"] == "pass":
            self.covered["aut_order"] += 1
            expected = self.aut_order(e["group"])
            p = _prime_of(e["group"])
            if expected is None or p is None:
                out.append(f"no classical |Aut| for {e['group']}")
            else:
                if w.get("aut_order") != expected:
                    out.append(f"aut_order {w.get('aut_order')} != {expected}")
                if w.get("sylow_order") != _p_part(expected, p):
                    out.append(f"sylow_order {w.get('sylow_order')} != "
                               f"{_p_part(expected, p)}")
        if e.get("action") == "inner" and check in ("mixed_series_ladder",
                                                    "mixed_series_oracle"):
            lcs = self.lower_central_orders(e["group"])
            compared = None
            # the engine repeats the stable term once
            if lcs is not None and check == "mixed_series_ladder":
                compared = w.get("series_orders"), lcs + lcs[-1:]
            elif lcs is not None and r["hypothesis"] == "pass":
                k_max = w.get("k_max", 0)
                compared = w.get("orders"), (lcs + lcs[-1:] * k_max)[:k_max]
            if compared is not None:
                self.covered["lower_central_series"] += 1
                if compared[0] != compared[1]:
                    out.append(f"series orders {compared[0]} != lower "
                               f"central {compared[1]}")
        if check == "sigma_example_tightness":
            self.covered["sigma"] += 1
            p = e["sigma"]
            expected = {"sigma_order": p * p, "H_exponent": p,
                        "definition_reading_order": p * p,
                        "deep_reading_order": p}
            for key, value in expected.items():
                if w.get(key) != value:
                    out.append(f"{key} {w.get(key)} != {value}")
        return out

    def _check_copies(self, records: List[dict]) -> List[str]:
        groups: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
        for r in records:
            m = _COPY.match(r["entry"])
            if m:
                stripped = {k: v for k, v in r.items() if k not in ("entry", "millis")}
                groups[m.group(1)][r["entry"]].append(
                    json.dumps(stripped, sort_keys=True))
        out = []
        for base, copies in groups.items():
            self.covered["copies"] += len(copies)
            if len({tuple(rows) for rows in copies.values()}) != 1:
                out.append(f"{base}: copies give different records")
        return out


def read_run(out_dir: Path):
    out_dir = Path(out_dir)
    with (out_dir / "report.ndjson").open() as fh:
        records = [json.loads(line) for line in fh]
    exit_code = json.loads((out_dir / "summary.json").read_text())["exit_code"]
    return records, exit_code


def main(argv: Optional[List[str]] = None,
         aut_order: Callable[[str], Optional[int]] = classical_aut_order) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    config = json.loads(Path(argv[0]).read_text())
    records, exit_code = read_run(Path(argv[1]))
    checker = Checker(aut_order)
    fails = checker.check(config["entries"], records, exit_code)
    for f in fails:
        print(f"FAIL {f}")
    print(f"{'FAIL' if fails else 'PASS'}: {len(records)} records, "
          f"{len(fails)} failures, oracle coverage {dict(checker.covered)}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
