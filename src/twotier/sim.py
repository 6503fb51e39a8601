"""Deterministic scenario engine.

A scenario is one JSON document describing tokens, assets, pools, oracle
sources, agents and schedules. `run` builds a Market from it and steps
epochs in a fixed phase order:

  1. attestations submitted and finalized per element
  2. verified element output minted to the configured recipient
  3. trading agents (noise traders, liquidity providers, demand shocks)
     in a seed-shuffled order
  4. arbitrageur pass
  5. yield deposits (and optional auto-claims)
  6. invariant audit (`Market.audit`), then the metrics row appended

Randomness comes from numpy Philox generators spawned off one SeedSequence
per scenario, one independent substream per agent plus one for the epoch
shuffle, so runs are reproducible bit-for-bit on a platform.

Prices in the metrics are integer ratios `(num, den)`, rendered by
`frac_str` as decimal strings with 12 fractional digits.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import cache
from types import SimpleNamespace

import numpy as np

from .amm import SwapDirection
from .arbitrage import detect_arbitrage, execute_plan
from .errors import ConfigError, EngineError, ParseError, UnknownReference
from .ledger import BPS, MAX_DECIMALS, TokenKind, TokenMeta
from .market import Market
from .oracle import OraclePolicy
from .pricing import nav_report

FRACTION_DIGITS = 12
_FRACTION_SCALE = 10 ** FRACTION_DIGITS
_FRACTION_FORMAT = f"0{FRACTION_DIGITS}d"  # a format spec built per call costs as much again


def frac_str(num: int, den: int) -> str:
    """num / den (den > 0) with exactly FRACTION_DIGITS fractional digits, truncated toward zero.

    The digits depend only on the value, not on whether num / den is reduced.
    """
    sign = "-" if num < 0 else ""
    whole, frac = divmod(abs(num) * _FRACTION_SCALE // den, _FRACTION_SCALE)
    return f"{sign}{whole}.{frac:{_FRACTION_FORMAT}}"


# --- config schema ---
#
# The dataclasses below are the scenario schema, one `_row(reader, default)`
# per field. `parse_config` reads each key once, in field order (so an id is
# declared before it is referenced), and rejects unknown keys. A missing key
# takes its default, read as if given (None stays None), or is an error.
# Errors carry their path (`agents[0].sigma: ...`), added on the way out.
# The per-account rows (`AccountSpec`, `GenesisMint`, `GenesisCredit`) are read
# into exact tuples of their fields, in field order, such as `(id, numeraire)`:
# the cycle collector untracks those, so a config of many accounts adds nothing
# for a full collection to walk, and `build_market` passes them straight to the
# batch calls.

_REQUIRED = object()


def _row(read, default=_REQUIRED):
    return field(metadata={"read": read, "default": default})


def _num(lo=0, hi=float("inf"), kind=int):
    """A `kind` (int or float) in [lo, hi] or its string; no bools, NaN, or floats for ints."""
    rejected, what = ((bool, float), "an integer") if kind is int else (bool, "a number")

    def read(raw, walk):
        try:
            value = None if isinstance(raw, rejected) else kind(raw)
        except (TypeError, ValueError, OverflowError):
            value = None
        if value is None or not lo <= value <= hi:  # NaN fails the comparison
            raise ParseError(f"expected {what} in [{lo}, {hi}], got {raw!r}")
        return value
    return read


_AMOUNT = _num()
_DECIMALS = _num(0, MAX_DECIMALS)


def _check(read, ok, why):
    """`read` (None: take the raw value), then reject values for which `ok` is false."""
    def checked(raw, walk):
        value = raw if read is None else read(raw, walk)
        if not ok(value):
            raise ParseError(f"{value!r} {why}")
        return value
    return checked


_bool = _check(None, lambda v: isinstance(v, bool), "is not true or false")
_text = _check(None, lambda v: isinstance(v, str), "is not a string")


def _new(space, *also, of=None):
    """A fresh id, unique in `space`, also recorded in `also`; no ':' (engine ids use it)."""
    def read(raw, walk):
        ident = raw if of is None else of(raw, walk)
        if not isinstance(ident, str) or not ident or ":" in ident:
            raise ParseError(f"{ident!r} is not a non-empty string without ':'")
        if ident in walk.ids[space]:
            raise ParseError(f"duplicate {space} id {ident!r}")
        for s in (space, *also):
            walk.ids[s].add(ident)
        return ident
    return read


def _ref(space):
    """The id of something already declared in `space`."""
    def read(raw, walk):
        if not isinstance(raw, str) or raw not in walk.ids[space]:
            raise UnknownReference(f"unknown {space} {raw!r}")
        return raw
    return read


def _each(read_value, read_key=None):
    """A list or, with `read_key`, an object read as (key, value) pairs."""
    kind, what = (list, "a list") if read_key is None else (dict, "an object")

    def read(raw, walk):
        if not isinstance(raw, kind):
            raise ParseError(f"{raw!r} is not {what}")
        out = []
        try:
            for key, value in (enumerate(raw) if read_key is None else raw.items()):
                out.append(read_value(value, walk) if read_key is None
                           else (read_key(key, walk), read_value(value, walk)))
        except ConfigError as exc:
            exc.path = (key, *exc.path)
            raise
        return out
    return read


@cache
def _object(cls, as_tuple=False, **rows):
    """Reads a JSON object into `cls`, or with `as_tuple` into the exact tuple of its
    values in field order, one row per field (`rows` override)."""
    meta = {f.name: f.metadata for f in fields(cls)} | {k: r.metadata for k, r in rows.items()}
    table = [(name, m["read"], m["default"]) for name, m in meta.items()]

    def read(raw, walk):
        if not isinstance(raw, dict):
            raise ParseError(f"{raw!r} is not an object")
        if not raw.keys() <= meta.keys():
            raise ParseError("unknown key", path=(next(k for k in raw if k not in meta),))
        walk.objects.append(values := {})
        try:
            for name, reader, default in table:
                value = raw.get(name, default)
                if value is _REQUIRED:
                    raise ParseError("missing")
                values[name] = (None if value is None and default is None
                                else reader(value, walk))
        except ConfigError as exc:
            exc.path = (name, *exc.path)
            raise
        walk.objects.pop()
        return tuple(values.values()) if as_tuple else cls(*values.values())  # in field order
    return read


def _epoch(after=None):
    """An epoch in [0, epochs); with `after`, no earlier than that sibling field."""
    def read(raw, walk):
        lo = walk.objects[-1][after] if after else 0
        value, epochs = _AMOUNT(raw, walk), walk.objects[0]["epochs"]
        if not lo <= value < epochs:
            raise ParseError(f"{value} is outside [{lo}, {epochs})")
        return value
    return read


def _per_epoch(raw, walk):
    """One amount for every epoch, or a list of exactly `epochs` amounts."""
    if not isinstance(raw, list):
        return _AMOUNT(raw, walk)
    epochs = walk.objects[0]["epochs"]
    if len(raw) != epochs:
        raise ParseError(f"{len(raw)} entries for {epochs} epochs")
    return _each(_AMOUNT)(raw, walk)


def _agent(raw, walk):
    """An agent: its `kind` picks the agent class whose Spec reads the rest."""
    # a non-object goes to the base Spec, which rejects it
    agent = AGENT_KINDS.get(str(raw.get("kind"))) if isinstance(raw, dict) else Agent
    if agent is None:
        raise ParseError(f"expected one of {', '.join(AGENT_KINDS)}", path=("kind",))
    return _object(agent.Spec)(raw, walk)


@dataclass
class NumeraireSpec:
    id: str = _row(_new("token"), "NUM")
    decimals: int = _row(_DECIMALS, 6)


@dataclass
class TokenSpec:
    id: str = _row(_new("token", "element", "tradable"))
    kind: str = _row(_check(None, lambda k: k == "element", "is not 'element'"), "element")
    unit_label: str = _row(_text, "")
    decimals: int = _row(_DECIMALS, 0)


@dataclass
class AccountSpec:  # read as an (id, numeraire) tuple
    id: str = _row(_new("account"))
    numeraire: int = _row(_AMOUNT, 0)   # funding


@dataclass
class GenesisMint:  # read as an (account, q) tuple
    account: str = _row(_ref("account"))
    q: int = _row(_num(1))


@dataclass
class AssetSpec:
    composite: str = _row(_new("token", "composite", "tradable"))
    composition: list[tuple[str, int]] = _row(_check(
        _each(_num(1), _ref("element")), bool, "is empty"))
    mint_fee_bps: int = _row(_num(0, BPS), 0)
    redeem_fee_bps: int = _row(_num(0, BPS), 0)
    decimals: int = _row(_DECIMALS, 0)
    unit_label: str = _row(_text, "")
    genesis_mint: list[tuple[str, int]] = _row(_each(_object(GenesisMint, as_tuple=True)), [])


@dataclass
class GenesisCredit:  # read as an (account, amount) tuple
    account: str = _row(_ref("account"))
    amount: int = _row(_AMOUNT)


def _sources(raw, walk):
    """Distinct source names: none, or enough for `oracle.policy` to finalize an epoch."""
    sources = _check(_each(_text), lambda v: len(set(v)) == len(v), "repeats a source")(raw, walk)
    need = walk.objects[-2]["policy"].min_sources  # [-2]: the enclosing OracleSpec
    if 0 < len(sources) < need:
        raise ParseError(f"{len(sources)} given, policy.min_sources needs {need}")
    return sources


@dataclass
class OracleElementSpec:
    sources: list[str] = _row(_sources, [])
    per_epoch: int | list[int] = _row(_per_epoch, 0)
    mint_to: str | None = _row(_ref("account"), None)
    genesis: list[tuple[str, int]] = _row(_each(_object(GenesisCredit, as_tuple=True)), [])


@dataclass
class OracleSpec:
    policy: OraclePolicy = _row(_object(OraclePolicy, min_sources=_row(_num(1), 1),
        max_deviation_bps=_row(_num(1), 500), twa_window=_row(_num(1), 1)), {})
    elements: list[tuple[str, OracleElementSpec]] = _row(
        _each(_object(OracleElementSpec), _ref("element")), {})


@dataclass
class PoolSpec:
    base: str = _row(_new("pool", of=_ref("tradable")))
    fee_bps: int = _row(_num(0, BPS - 1), 0)
    seed_base: int = _row(_num(1))
    seed_numeraire: int = _row(_num(1))
    provider: str = _row(_ref("account"))


@dataclass
class ShockSpec:
    pool: str = _row(_ref("pool"))           # base token of the pool to shock
    epoch: int = _row(_epoch())
    # signed target move of the spot price; above -BPS keeps the target price > 0
    magnitude_bps: int = _row(_check(_num(1 - BPS), bool, "does nothing"))
    account: str = _row(_ref("account"), "issuer")


@dataclass
class YieldEventSpec:
    asset: str = _row(_ref("composite"))
    epoch: int = _row(_epoch())
    amount: int = _row(_AMOUNT)
    payer: str = _row(_ref("account"))


@dataclass
class ScenarioConfig:
    seed: int = _row(_AMOUNT, 0)
    epochs: int = _row(_AMOUNT, 0)
    numeraire: NumeraireSpec = _row(_object(NumeraireSpec), {})
    tokens: list[TokenSpec] = _row(_each(_object(TokenSpec)), [])
    accounts: list[tuple[str, int]] = _row(_each(_object(AccountSpec, as_tuple=True)), [])
    assets: list[AssetSpec] = _row(_each(_object(AssetSpec)), [])
    oracle: OracleSpec = _row(_object(OracleSpec), {})
    pools: list[PoolSpec] = _row(_each(_object(PoolSpec)), [])
    agents: list[Agent.Spec] = _row(_each(_agent), [])
    shocks: list[ShockSpec] = _row(_each(_object(ShockSpec)), [])
    yield_schedule: list[YieldEventSpec] = _row(_each(_object(YieldEventSpec)), [])
    auto_claim: list[str] = _row(_each(_ref("account")), [])


def parse_config(doc) -> ScenarioConfig:
    """Parse and check a scenario document; the only gate before `run`."""
    try:
        return _object(ScenarioConfig)(doc, SimpleNamespace(ids=defaultdict(set), objects=[]))
    except ConfigError as exc:
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.path)
        exc.args = (f"{path.lstrip('.') or 'scenario'}: {exc}",)
        raise


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:  # json detects the encoding of the bytes
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply to parse") from exc
    return parse_config(doc)


# --- agents ---

class Agent:
    """Trades from account `agent:<id>`, funded with `budget`; its parameters are `Spec` fields."""

    @dataclass
    class Spec:
        kind: str = _row(_text)
        id: str = _row(_new("agent"))
        budget: int = _row(_AMOUNT, 0)

    def __init__(self, spec: Spec, market: Market, rng: np.random.Generator):
        self.spec, self.rng, self.account = spec, rng, f"agent:{spec.id}"
        market.fund_numeraire(self.account, spec.budget)


class NoiseTrader(Agent):
    """Random buy/sell flow on one pool; sizes are log-normal in numeraire terms."""

    @dataclass
    class Spec(Agent.Spec):
        pool: str = _row(_ref("pool"))
        intensity: float = _row(_num(0, 1, float), 0.5)
        # these bounds keep the log-normal draw finite
        mu: float = _row(_num(-100, 100, float), 0.0)
        sigma: float = _row(_num(0, 10, float), 1.0)

    def act(self, market: Market, epoch: int):
        if self.rng.random() >= self.spec.intensity:
            return
        base = self.spec.pool
        size = int(self.rng.lognormal(self.spec.mu, self.spec.sigma))
        if size <= 0:
            return
        buy = bool(self.rng.random() < 0.5)
        reg = market.registry
        if buy:
            spend = min(size, reg.balance_of(market.numeraire, self.account))
            if spend > 0:
                market.venues.swap_exact_in(base, SwapDirection.NUMERAIRE_IN,
                                            spend, self.account)
        else:
            rb, rn = market.venues.reserves(base)
            sell = min(size * rb // rn, reg.balance_of(base, self.account))
            if sell > 0:
                market.venues.swap_exact_in(base, SwapDirection.BASE_IN,
                                            sell, self.account)


class LiquidityProvider(Agent):
    @dataclass
    class Spec(Agent.Spec):
        pool: str = _row(_ref("pool"))
        base: int = _row(_AMOUNT, 0)
        numeraire: int = _row(_AMOUNT, 0)
        join_epoch: int = _row(_epoch(), 0)
        exit_epoch: int | None = _row(_epoch(after="join_epoch"), None)

    def act(self, market: Market, epoch: int):
        spec, venues = self.spec, market.venues
        reg = market.registry
        if epoch == spec.join_epoch:
            # acquire the base side from the pool itself if not already held,
            # unless buying it would drain the pool
            short = spec.base - reg.balance_of(spec.pool, self.account)
            if 0 < short < venues.reserves(spec.pool)[0]:
                need = venues.required_in_for_out(spec.pool, SwapDirection.NUMERAIRE_IN, short)
                if need <= reg.balance_of(market.numeraire, self.account):
                    venues.swap_exact_in(spec.pool, SwapDirection.NUMERAIRE_IN,
                                         need, self.account)
            base = min(spec.base, reg.balance_of(spec.pool, self.account))
            num = min(spec.numeraire, reg.balance_of(market.numeraire, self.account))
            if base > 0 and num > 0:
                venues.add_liquidity(spec.pool, base, num, self.account)
        if epoch == spec.exit_epoch:
            held = reg.balance_of(venues.get(spec.pool).lp_token, self.account)
            if held > 0:
                venues.remove_liquidity(spec.pool, held, self.account)


class Arbitrageur(Agent):
    MAX_PASSES = 16

    @dataclass
    class Spec(Agent.Spec):
        budget: int = _row(_AMOUNT, 10 ** 30)   # unconstrained capital by default
        asset: str = _row(_ref("composite"))
        min_profit: int = _row(_AMOUNT, 1)
        max_size: int = _row(_AMOUNT, 1 << 30)
        enabled: bool = _row(_bool, True)

    def act(self, market: Market, epoch: int) -> tuple[int, int]:
        """Returns (trades, profit) realized this epoch."""
        if not self.spec.enabled:
            return (0, 0)
        trades = profit = 0
        for _ in range(self.MAX_PASSES):
            plan = detect_arbitrage(market, self.spec.asset,
                                    min_profit=max(1, self.spec.min_profit),
                                    max_size=self.spec.max_size,
                                    budget=market.registry.balance_of(market.numeraire,
                                                                      self.account))
            if plan is None:
                break
            result = execute_plan(market, plan, self.account)
            trades += 1
            profit += result.realized_profit
        return (trades, profit)


AGENT_KINDS = {"noise_trader": NoiseTrader, "liquidity_provider": LiquidityProvider,
               "arbitrageur": Arbitrageur}


def apply_demand_shock(market: Market, shock: ShockSpec):
    """Trade against a pool until spot moves past the target magnitude.

    Binary-searches the smallest input whose post-trade spot crosses the
    target, so the shock lands just past the requested move.
    """
    up = shock.magnitude_bps > 0
    rb, rn = market.venues.reserves(shock.pool)
    direction = SwapDirection.NUMERAIRE_IN if up else SwapDirection.BASE_IN

    def past_target(amount_in: int) -> bool:
        out = market.venues.quote_exact_in(shock.pool, direction, amount_in).amount_out
        # post-trade spot n/d against target rn/rb * (BPS + magnitude)/BPS, cross-multiplied
        n, d = (rn + amount_in, rb - out) if up else (rn - out, rb + amount_in)
        after, target = n * rb * BPS, rn * (BPS + shock.magnitude_bps) * d
        return after >= target if up else after <= target

    hi = 1
    while not past_target(hi):
        hi *= 2
        if hi > 10 ** 30:
            return
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if past_target(mid):
            hi = mid
        else:
            lo = mid + 1
    reg = market.registry
    if up:
        # bootstrap the shock account so the push always lands
        need = lo - reg.balance_of(market.numeraire, shock.account)
        if need > 0:
            market.fund_numeraire(shock.account, need)
    else:
        lo = min(lo, reg.balance_of(shock.pool, shock.account))
        if lo == 0:
            return
    market.venues.swap_exact_in(shock.pool, direction, lo, shock.account)


# --- engine ---

@dataclass
class SimResult:
    header: list[str]
    rows: list[list[str]]
    market: Market
    config: ScenarioConfig


def build_market(cfg: ScenarioConfig) -> Market:
    """Construct and bootstrap the market for epoch 0 (no agent activity yet)."""
    market = Market(numeraire=cfg.numeraire.id,
                    numeraire_decimals=cfg.numeraire.decimals)
    reg = market.registry

    for t in cfg.tokens:
        reg.create_token(TokenMeta(token=t.id, kind=TokenKind.ELEMENT,
                                   unit_label=t.unit_label, decimals=t.decimals),
                         authority=market.oracle.AUTHORITY)
    for a in cfg.assets:
        market.define_asset(
            TokenMeta(token=a.composite, kind=TokenKind.COMPOSITE,
                      unit_label=a.unit_label, decimals=a.decimals),
            a.composition, a.mint_fee_bps, a.redeem_fee_bps)

    market.open_accounts(cfg.accounts)

    # pre-verified production credited before the simulated window, then the
    # genesis composites: one ledger settlement per element and per asset, each
    # taking the parsed (account, amount) rows as they are
    for element, oe in cfg.oracle.elements:
        if oe.genesis:
            market.oracle.credit_genesis(element, oe.genesis)
    for a in cfg.assets:
        if a.genesis_mint:
            market.composites.mint_composites(a.composite, a.genesis_mint)

    for p in cfg.pools:
        market.venues.create_pool(p.base, p.fee_bps, p.seed_base,
                                  p.seed_numeraire, p.provider)
    return market


def _metrics_header(cfg: ScenarioConfig) -> list[str]:
    cols = ["epoch"]
    for a in cfg.assets:
        cid = a.composite
        cols += [f"{cid}_nav", f"{cid}_spot", f"{cid}_premium_bps",
                 f"{cid}_arb_trades", f"{cid}_arb_profit",
                 f"{cid}_supply", f"{cid}_backing_ok"]
        for element, _ in a.composition:
            cols += [f"{element}_spot", f"{element}_supply"]
    return cols


def _metrics_row(cfg: ScenarioConfig, market: Market, epoch: int,
                 arb_stats: dict[str, tuple[int, int]]) -> list[str]:
    """One epoch's row; each asset's pools are read once, in one snapshot."""
    reg = market.registry
    row = [str(epoch)]
    for a in cfg.assets:
        cid = a.composite
        asset = market.composites.get(cid)
        snapshot = market.venues.snapshot(asset.bases)
        try:
            report = nav_report(asset, snapshot)
            nav_s, spot_s = frac_str(*report.nav), frac_str(*report.composite_spot)
            prem = str(report.premium_bps)
        except EngineError:
            nav_s = spot_s = prem = "nan"
        trades, profit = arb_stats.get(cid, (0, 0))
        # `run` writes a row only after `Market.audit()` has asserted exact backing
        row += [nav_s, spot_s, prem, str(trades), str(profit), str(reg.total_supply(cid)), "1"]
        for (element, _), (rb, rn, _) in zip(asset.composition, snapshot):
            row.append(frac_str(rn, rb) if rb and rn else "nan")  # a missing or empty pool
            row.append(str(reg.total_supply(element)))
    return row


def run(cfg: ScenarioConfig) -> SimResult:
    market = build_market(cfg)
    market.audit()

    seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.agents) + 1)
    shuffle_rng = np.random.Generator(np.random.Philox(seeds[-1]))

    traders, arbs = [], []
    for spec, child in zip(cfg.agents, seeds):
        agent = AGENT_KINDS[spec.kind](spec, market, np.random.Generator(np.random.Philox(child)))
        (arbs if isinstance(agent, Arbitrageur) else traders).append(agent)

    # the shocks and yield deposits of each epoch, in schedule order
    shocks, deposits = defaultdict(list), defaultdict(list)
    for s in cfg.shocks:
        shocks[s.epoch].append(s)
    for y in cfg.yield_schedule:
        deposits[y.epoch].append(y)

    header = _metrics_header(cfg)
    rows = []
    for epoch in range(cfg.epochs):
        try:
            # (1) oracle attestations, one round per element
            for element, oe in cfg.oracle.elements:
                value = oe.per_epoch[epoch] if isinstance(oe.per_epoch, list) else oe.per_epoch
                if not oe.sources or value == 0:
                    continue
                market.oracle.submit_readings(element, epoch, dict.fromkeys(oe.sources, value))
                market.oracle.finalize_epoch(element, epoch, cfg.oracle.policy)
            # (2) verified mints
            for element, oe in cfg.oracle.elements:
                if oe.mint_to is None:
                    continue
                capacity = market.oracle.mintable_capacity(element)
                if capacity > 0:
                    market.oracle.mint_verified(element, oe.mint_to, capacity)
            # (3) trading agents, seed-shuffled; shocks fire after the shuffle
            order = shuffle_rng.permutation(len(traders)) if traders else []
            for i in order:
                traders[i].act(market, epoch)
            for s in shocks.get(epoch, ()):
                apply_demand_shock(market, s)
            # (4) arbitrageur pass
            arb_stats: dict[str, tuple[int, int]] = {}
            for arb in arbs:
                trades, profit = arb.act(market, epoch)
                t0, p0 = arb_stats.get(arb.spec.asset, (0, 0))
                arb_stats[arb.spec.asset] = (t0 + trades, p0 + profit)
            # (5) yield
            for y in deposits.get(epoch, ()):
                market.yields.deposit_yield(y.asset, y.amount, y.payer)
            if cfg.auto_claim:
                for a in cfg.assets:
                    market.yields.claim(a.composite, *cfg.auto_claim)
            # (6) invariant audit + metrics
            market.audit()
            rows.append(_metrics_row(cfg, market, epoch, arb_stats))
        except EngineError as exc:
            exc.args = (f"epoch {epoch} (event seq {len(market.registry.events)}): {exc}",)
            raise

    return SimResult(header=header, rows=rows, market=market, config=cfg)


# --- exports ---

def export_csv(result: SimResult, path: str):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(result.header) + "\n")
        for row in result.rows:
            fh.write(",".join(row) + "\n")


def export_events(result: SimResult, path: str):
    with open(path, "w") as fh:
        for lines in result.market.registry.export_chunks():
            fh.write("\n".join(lines) + "\n")
