"""Command line interface.

Exit codes, the same for every subcommand: 0 all conclusions passed or were
skipped; 2 a conclusion failed (counterexample candidate; reproducer bundle
written); 3 a cap or search budget was exhausted; 4 bad configuration or
usage, including an entry whose configuration fails at run time (the run's
report is still written); 5 an internal error, an exception outside the
package's error classes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .autsearch import DEFAULT_AUT_BUDGET, brute_force_aut, sylow_p_subgroup
from .catalog import build_group
from .corpus import (
    DEFAULT_CAPS,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_COUNTEREXAMPLE,
    EXIT_INTERNAL,
    Entry,
    ExperimentConfig,
    default_config,
    replay_bundle,
    run_corpus,
    run_entry,
)
from .elements import _is_prime
from .errors import BudgetExceeded, CapExceeded, ConfigError, PcentralError
from .series import (
    agemo,
    lower_central_series,
    nilpotency_class,
    omega_subgroup,
    upper_central_series,
)
from .groups import center
from .verdict import FAIL

EXIT_USAGE = EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad usage must not collide with exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pcentral",
                     description="Finite p-group engine and statement checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a check corpus")
    p_run.add_argument("--config", type=Path, default=None,
                       help="JSON configuration (defaults to the built-in corpus)")
    p_run.add_argument("--out", type=Path, default=Path("pcentral-report"),
                       help="output directory for report, summary and bundles")
    p_run.add_argument("--workers", type=int, default=None,
                       help="override the configured parallelism")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-entry progress lines")
    p_run.add_argument("--write-default-config", type=Path, default=None,
                       metavar="FILE",
                       help="write the built-in corpus as JSON and exit")

    p_show = sub.add_parser("show", help="print structural facts of a group")
    p_show.add_argument("group", help="family spec, e.g. 'ut(4,3)'")

    p_aut = sub.add_parser("aut", help="search the full automorphism group")
    p_aut.add_argument("group", help="family spec")
    p_aut.add_argument("--sylow", type=int, default=None, metavar="P",
                       help="also extract a Sylow P-subgroup and its exponent")
    p_aut.add_argument("--budget", type=int, default=DEFAULT_AUT_BUDGET,
                       help="search budget (candidate generator tuples)")

    p_sigma = sub.add_parser(
        "sigma", help="report on the rank-(p+1) cyclic-action example")
    p_sigma.add_argument("p", type=int, help="the prime")

    p_replay = sub.add_parser("replay", help="re-run a reproducer bundle")
    p_replay.add_argument("bundle", type=Path, help="bundle directory")
    return parser


def _cmd_run(args) -> int:
    if args.write_default_config is not None:
        cfg = default_config()
        args.write_default_config.write_text(
            json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.write_default_config}")
        return 0
    if args.config is not None:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = default_config()
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be a positive integer")
        config.parallelism = args.workers
    progress = (lambda s: None) if args.quiet else print
    result = run_corpus(config, args.out, progress=progress)
    if args.quiet:
        print("summary: " + result.summary_line)
    if result.report_path:
        print(f"report: {result.report_path}")
    for b in result.bundle_dirs:
        print(f"reproducer bundle: {b}")
    return result.exit_code


def _cmd_show(args) -> int:
    G = build_group(args.group)
    lcs = lower_central_series(G)
    ucs = upper_central_series(G)
    facts = {
        "group": args.group,
        "order": G.order,
        "p": G.p,
        "is_p_group": G.is_p_group,
        "exponent": G.exponent(),
        "nilpotency_class": nilpotency_class(G),
        "center_order": center(G).order,
        "lower_central_orders": lcs.orders(),
        "upper_central_orders": ucs.orders(),
        "order_stats": {str(k): v for k, v in sorted(G.order_stats().items())},
    }
    if G.is_p_group:
        omegas, agemos = [], []
        i = 1
        while True:
            om = omega_subgroup(G, i)
            ag = agemo(G, i)
            omegas.append(om.order)
            agemos.append(ag.order)
            if om.order == G.order and ag.order == 1:
                break
            i += 1
        facts["omega_orders"] = omegas
        facts["agemo_orders"] = agemos
    print(json.dumps(facts, indent=2, sort_keys=True))
    return 0


def _cmd_aut(args) -> int:
    if args.budget < 1:
        raise ConfigError("--budget must be a positive integer")
    if args.sylow is not None and not _is_prime(args.sylow):
        raise ConfigError(f"--sylow must be a prime, got {args.sylow}")
    G = build_group(args.group)
    result = brute_force_aut(G, budget=args.budget)
    facts = {
        "group": args.group,
        "group_order": G.order,
        "aut_order": result.order,
        "aut_generators": len(result.perm_group.generators),
    }
    if args.sylow is not None:
        S = sylow_p_subgroup(result.perm_group, args.sylow)
        facts["sylow_prime"] = args.sylow
        facts["sylow_order"] = S.order
        facts["sylow_exponent"] = S.exponent()
    print(json.dumps(facts, indent=2, sort_keys=True))
    return 0


def _cmd_sigma(args) -> int:
    (v,) = run_entry(Entry(f"sigma--{args.p}", ("sigma_example_tightness",),
                           sigma=args.p), DEFAULT_CAPS)
    print(json.dumps(v.to_dict(), indent=2, sort_keys=True))
    return EXIT_COUNTEREXAMPLE if v.conclusion == FAIL else 0


def _cmd_replay(args) -> int:
    result = replay_bundle(args.bundle, progress=print)
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "show": _cmd_show, "aut": _cmd_aut,
                "sigma": _cmd_sigma, "replay": _cmd_replay}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, BudgetExceeded) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PcentralError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
