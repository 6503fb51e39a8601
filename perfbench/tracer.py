"""Per-layer spans recorded from outside the engine.

`Tracer.install()` replaces each public function in `LAYERS` with a wrapper
that records one span per call: name, start, end and the enclosing span.
A module-level function is replaced under every name a `twotier` module
binds it to, because `sim` and `arbitrage` bind `detect_arbitrage`,
`execute_plan` and `nav_report` by `from`-import and a call through such a
name never reaches the defining module. `uninstall()` restores every name.

Spans stay in flat in-memory arrays until `layer_metrics` turns them into
per-layer numbers; `write` dumps them when the run ends. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

# span name -> (defining module, attribute, how the result flags the span)
LAYERS = {
    "ledger.transfer": ("twotier.ledger", "Registry.transfer", None),
    "ledger.mint": ("twotier.ledger", "Registry.mint", None),
    "ledger.burn": ("twotier.ledger", "Registry.burn", None),
    "ledger.transaction": ("twotier.ledger", "Registry.transaction", "context"),
    "amm.quote_exact_in": ("twotier.amm", "AmmVenues.quote_exact_in", None),
    "amm.swap_exact_in": ("twotier.amm", "AmmVenues.swap_exact_in", None),
    "amm.required_in_for_out": ("twotier.amm", "AmmVenues.required_in_for_out", None),
    "amm.add_liquidity": ("twotier.amm", "AmmVenues.add_liquidity", None),
    "amm.remove_liquidity": ("twotier.amm", "AmmVenues.remove_liquidity", None),
    "composite.mint_composite": ("twotier.composite", "CompositeEngine.mint_composite", None),
    "composite.redeem_composite": ("twotier.composite",
                                   "CompositeEngine.redeem_composite", None),
    "composite.required_deposit": ("twotier.composite",
                                   "CompositeEngine.required_deposit", None),
    "composite.redemption_value": ("twotier.composite",
                                   "CompositeEngine.redemption_value", None),
    "oracle.submit_attestation": ("twotier.oracle", "OracleHub.submit_attestation", None),
    "oracle.finalize_epoch": ("twotier.oracle", "OracleHub.finalize_epoch",
                              lambda r: r.failed),
    "oracle.mint_verified": ("twotier.oracle", "OracleHub.mint_verified", None),
    "pricing.nav_report": ("twotier.pricing", "nav_report", None),
    "arbitrage.detect_arbitrage": ("twotier.arbitrage", "detect_arbitrage",
                                   lambda r: r is not None),
    "arbitrage.execute_plan": ("twotier.arbitrage", "execute_plan", None),
    "yields.deposit_yield": ("twotier.yields", "YieldVault.deposit_yield", None),
    "yields.claim": ("twotier.yields", "YieldVault.claim", lambda r: r > 0),
    "sim.build_market": ("twotier.sim", "build_market", None),
    "sim.NoiseTrader.act": ("twotier.sim", "NoiseTrader.act", None),
    "sim.LiquidityProvider.act": ("twotier.sim", "LiquidityProvider.act", None),
    "sim.Arbitrageur.act": ("twotier.sim", "Arbitrageur.act", None),
    "sim.apply_demand_shock": ("twotier.sim", "apply_demand_shock", None),
    "export.export_csv": ("twotier.sim", "export_csv", None),
    "export.export_events": ("twotier.sim", "export_events", None),
}
NAMES = list(LAYERS)
_ID = {name: i for i, name in enumerate(NAMES)}
QUOTES = (_ID["amm.quote_exact_in"], _ID["amm.required_in_for_out"])

FLAG_SET = 1       # the result flag held (a plan found, a claim paid, ...)
FLAG_RAISED = 2    # an exception left the span


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.raised: Counter = Counter()     # (span name, exception class) -> count
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        for arr in (self.name, self.parent, self.start, self.end, self.flag):
            del arr[:]
        self.raised.clear()

    # --- span recording ---

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, flag: int = 0, exc: BaseException | None = None):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            flag = FLAG_RAISED
            self.raised[NAMES[self.name[i]], type(exc).__name__] += 1
        self.flag[i] = flag

    def _wrap(self, fn, nid: int, flag_of):
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i, exc=exc)
                raise
            self._close(i, FLAG_SET if flag_of is not None and flag_of(result) else 0)
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_context(self, cm_fn, nid: int):
        # The span covers the with-body, so an exception raised in the body
        # and leaving the transaction is counted against it.
        @contextmanager
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                with cm_fn(*args, **kwargs):
                    yield
            except BaseException as exc:
                self._close(i, exc=exc)
                raise
            self._close(i)
        traced.__wrapped__ = cm_fn
        return traced

    # --- patching ---

    def install(self):
        for name, (module, attr, flag_of) in LAYERS.items():
            mod = import_module(module)
            nid = _ID[name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                wrapped = (self._wrap_context(orig, nid) if flag_of == "context"
                           else self._wrap(orig, nid, flag_of))
                self._patch(owner, meth, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, nid, flag_of)
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "twotier" and not mod_name.startswith("twotier."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, key, wrapped)

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # --- results ---

    def write(self, path: str):
        """Dump the recorded spans as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{i}\t{NAMES[nid]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\n")

    def layer_metrics(self, max_passes: int) -> dict[str, float]:
        """Per-layer numbers over every span recorded since the last reset.

        `max_passes` is `Arbitrageur.MAX_PASSES`: an act span whose detection
        children all found a plan that many times used every pass.
        """
        n = len(self.name)
        names, parents, flags = self.name, self.parent, self.flag
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        in_detect = bytearray(n)
        plans_under = [0] * n
        detect = _ID["arbitrage.detect_arbitrage"]
        act = _ID["sim.Arbitrageur.act"]
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            child[p] += dur[i]
            # parents precede their children, so the flag is already final
            in_detect[i] = in_detect[p] or names[p] == detect
            if names[i] == detect and flags[i] == FLAG_SET:
                plans_under[p] += 1

        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        durations: list[list[float]] = [[] for _ in NAMES]
        flagged = [0] * len(NAMES)
        quotes_in_detect = capped = 0
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            durations[nid].append(dur[i])
            flagged[nid] += flags[i] == FLAG_SET
            if in_detect[i] and nid in QUOTES:
                quotes_in_detect += 1
            if nid == act and plans_under[i] >= max_passes:
                capped += 1

        out: dict[str, float] = {}
        for nid, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.us_p50"] = (statistics.median(durations[nid]) * 1e6
                                     if durations[nid] else 0.0)
        out["ledger.rollbacks"] = sum(c for (name, _), c in self.raised.items()
                                      if name == "ledger.transaction")
        out["oracle.failed_epochs"] = flagged[_ID["oracle.finalize_epoch"]]
        out["arbitrage.quotes_per_detect"] = ratio(quotes_in_detect, calls[detect])
        out["arbitrage.plan_ratio"] = ratio(flagged[detect], calls[detect])
        out["arbitrage.stale_plans"] = self.raised["arbitrage.execute_plan", "StalePlan"]
        out["arbitrage.capped_passes"] = capped
        claim = _ID["yields.claim"]
        out["yields.paid_ratio"] = ratio(flagged[claim], calls[claim])
        return out

    def inclusive_s(self) -> dict[str, float]:
        """Wall time inside each layer name, not counting re-entry twice."""
        totals = Counter()
        names, parents = self.name, self.parent
        for i in range(len(names)):
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:  # a span inside one of the same name adds no wall time
                totals[NAMES[names[i]]] += self.end[i] - self.start[i]
        return dict(totals)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0
