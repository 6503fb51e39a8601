"""Command-line front end.

Subcommands: validate, run, report, routes. Machine-readable output goes to
files under --out; human summaries go to stdout; diagnostics to stderr.
Exit codes: 0 success, 1 usage, validation or other user error, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .arbitrage import Side, best_route, simulate_routes
from .errors import EngineError, InvariantViolation, ParseError
from .pricing import nav_report
from .sim import build_market, export_csv, export_events, frac_str, load_config, run


def _cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: ok")
    return 0


def _cmd_run(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ParseError(f"--seed: expected an integer >= 0, got {args.seed}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the run
    result = run(cfg)
    metrics_path = os.path.join(args.out, "metrics.csv")
    events_path = os.path.join(args.out, "events.jsonl")
    export_csv(result, metrics_path)
    export_events(result, events_path)
    print(f"wrote {metrics_path} ({len(result.rows)} epochs)")
    print(f"wrote {events_path}")
    for a in cfg.assets:
        cid = a.composite
        if result.rows:
            idx_prem = result.header.index(f"{cid}_premium_bps")
            idx_profit = result.header.index(f"{cid}_arb_profit")
            final_prem = result.rows[-1][idx_prem]
            total_profit = sum(int(r[idx_profit]) for r in result.rows)
        else:
            final_prem, total_profit = "n/a", 0
        print(f"{cid}: final premium_bps={final_prem} total_arb_profit={total_profit}")
    return 0


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    market = build_market(cfg)
    print(f"{'asset':<16} {'nav':>20} {'spot':>20} {'premium_bps':>12}")
    for a in cfg.assets:
        asset = market.composites.get(a.composite)
        try:
            rep = nav_report(asset, market.venues.snapshot(asset.bases))
            print(f"{a.composite:<16} {frac_str(*rep.nav):>20} "
                  f"{frac_str(*rep.composite_spot):>20} {rep.premium_bps:>12}")
        except EngineError:
            print(f"{a.composite:<16} {'no market':>20} {'no market':>20} {'n/a':>12}")
    return 0


def _cmd_routes(args) -> int:
    cfg = load_config(args.config)
    market = build_market(cfg)
    if args.asset not in {a.composite for a in cfg.assets}:
        print(f"unknown asset: {args.asset}", file=sys.stderr)
        return 1
    if args.qty <= 0:
        print("qty must be positive", file=sys.stderr)
        return 1
    side = Side.ACQUIRE_W if args.side == "acquire" else Side.DISPOSE_W
    plans = simulate_routes(market, args.asset, side, args.qty)
    label = "cost" if side == Side.ACQUIRE_W else "proceeds"
    for plan in plans:
        print(f"{plan.route.kind.value:<28} {label}={plan.simulated_cost_or_proceeds} "
              f"legs={len(plan.route.legs)}")
    chosen = best_route(market, args.asset, side, args.qty)
    print(f"best: {chosen.route.kind.value} "
          f"{label}={chosen.simulated_cost_or_proceeds}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1: 2 means an invariant violation
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twotier",
        description="Two-tier tokenization engine: validate and run scenarios, "
                    "inspect NAV and execution routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="run a scenario, write metrics.csv + events.jsonl")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("report", help="NAV table for the bootstrapped state")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("routes", help="simulate all execution routes for a trade")
    p.add_argument("config")
    p.add_argument("--asset", required=True)
    p.add_argument("--side", required=True, choices=["acquire", "dispose"])
    p.add_argument("--qty", required=True, type=int)
    p.set_defaults(fn=_cmd_routes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # only `run` writes files; config reads raise ParseError
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
