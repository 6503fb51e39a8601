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
  6. metrics row appended

Randomness comes from numpy Philox generators spawned off one SeedSequence
per scenario, one independent substream per agent plus one for the epoch
shuffle, so runs are reproducible bit-for-bit on a platform.

All amounts in the config are integer strings at token decimals. Metrics
rationals are rendered as decimal strings with 12 fractional digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .amm import SwapDirection
from .arbitrage import detect_arbitrage, execute_plan
from .errors import (
    EngineError,
    InvariantViolation,
    ParseError,
    UnknownReference,
)
from .ledger import BPS, TokenKind, TokenMeta
from .market import Market
from .oracle import Attestation, OraclePolicy
from .pricing import nav_report

FRACTION_DIGITS = 12


def frac_str(x: Fraction) -> str:
    """Decimal rendering with exactly FRACTION_DIGITS fractional digits (floored)."""
    sign = "-" if x < 0 else ""
    n, d = abs(x).numerator, abs(x).denominator
    scaled = n * 10 ** FRACTION_DIGITS // d
    whole, frac = divmod(scaled, 10 ** FRACTION_DIGITS)
    return f"{sign}{whole}.{frac:0{FRACTION_DIGITS}d}"


# --- config model ---

@dataclass
class TokenSpec:
    id: str
    kind: str
    unit_label: str = ""
    decimals: int = 0


@dataclass
class AssetSpec:
    composite: str
    composition: list[tuple[str, int]]
    mint_fee_bps: int = 0
    redeem_fee_bps: int = 0
    decimals: int = 0
    unit_label: str = ""
    genesis_mint: list[tuple[str, int]] = field(default_factory=list)  # (account, q)


@dataclass
class OracleElementSpec:
    element: str
    sources: list[str]
    per_epoch: int | list[int] = 0
    mint_to: str = ""
    genesis: list[tuple[str, int]] = field(default_factory=list)  # (account, amount)


@dataclass
class PoolSpec:
    base: str
    fee_bps: int
    seed_base: int
    seed_numeraire: int
    provider: str


@dataclass
class AgentSpec:
    kind: str
    id: str
    params: dict

    def amount(self, key: str, default: int = 0) -> int:
        return _amt(self.params.get(key, default), f"agents.{self.id}.{key}")


@dataclass
class ShockSpec:
    pool: str            # base token of the pool to shock
    epoch: int
    magnitude_bps: int   # signed target move of the spot price
    account: str = "issuer"


@dataclass
class YieldEventSpec:
    asset: str
    epoch: int
    amount: int
    payer: str


@dataclass
class ScenarioConfig:
    seed: int
    epochs: int
    numeraire_id: str
    numeraire_decimals: int
    tokens: list[TokenSpec]
    assets: list[AssetSpec]
    oracle_policy: OraclePolicy
    oracle_elements: list[OracleElementSpec]
    accounts: list[tuple[str, int]]          # (account, numeraire funding)
    pools: list[PoolSpec]
    agents: list[AgentSpec]
    shocks: list[ShockSpec]
    yield_schedule: list[YieldEventSpec]
    auto_claim: list[str] = field(default_factory=list)


def _amt(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise ParseError(f"{path}: amount must be an integer string")
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{path}: not an integer: {raw!r}") from None
    if value < 0:
        raise ParseError(f"{path}: negative amount {value}")
    return value


def parse_config(doc: dict) -> ScenarioConfig:
    try:
        seed = int(doc.get("seed", 0))
        epochs = int(doc.get("epochs", 0))
        num = doc.get("numeraire", {"id": "NUM", "decimals": 6})

        tokens = [TokenSpec(id=t["id"], kind=t.get("kind", "element"),
                            unit_label=t.get("unit_label", ""),
                            decimals=int(t.get("decimals", 0)))
                  for t in doc.get("tokens", [])]

        assets = []
        for a in doc.get("assets", []):
            comp = [(e, _amt(v, f"assets.{a['composite']}.composition.{e}"))
                    for e, v in a["composition"].items()]
            genesis = [(g["account"], _amt(g["q"], f"assets.{a['composite']}.genesis_mint"))
                       for g in a.get("genesis_mint", [])]
            assets.append(AssetSpec(
                composite=a["composite"], composition=comp,
                mint_fee_bps=int(a.get("mint_fee_bps", 0)),
                redeem_fee_bps=int(a.get("redeem_fee_bps", 0)),
                decimals=int(a.get("decimals", 0)),
                unit_label=a.get("unit_label", ""),
                genesis_mint=genesis))

        odoc = doc.get("oracle", {})
        pdoc = odoc.get("policy", {})
        policy = OraclePolicy(min_sources=int(pdoc.get("min_sources", 1)),
                              max_deviation_bps=int(pdoc.get("max_deviation_bps", 500)),
                              twa_window=int(pdoc.get("twa_window", 1)))
        oracle_elements = []
        for el, spec in odoc.get("elements", {}).items():
            per_epoch = spec.get("per_epoch", 0)
            if isinstance(per_epoch, list):
                per_epoch = [_amt(v, f"oracle.elements.{el}.per_epoch[{i}]")
                             for i, v in enumerate(per_epoch)]
            else:
                per_epoch = _amt(per_epoch, f"oracle.elements.{el}.per_epoch")
            genesis = [(g["account"], _amt(g["amount"], f"oracle.elements.{el}.genesis"))
                       for g in spec.get("genesis", [])]
            oracle_elements.append(OracleElementSpec(
                element=el, sources=list(spec.get("sources", [])),
                per_epoch=per_epoch, mint_to=spec.get("mint_to", ""),
                genesis=genesis))

        accounts = [(a["id"], _amt(a.get("numeraire", 0), f"accounts.{a['id']}.numeraire"))
                    for a in doc.get("accounts", [])]

        pools = [PoolSpec(base=p["base"], fee_bps=int(p.get("fee_bps", 0)),
                          seed_base=_amt(p["seed_base"], f"pools.{p['base']}.seed_base"),
                          seed_numeraire=_amt(p["seed_numeraire"],
                                              f"pools.{p['base']}.seed_numeraire"),
                          provider=p["provider"])
                 for p in doc.get("pools", [])]

        agents = [AgentSpec(kind=a["kind"], id=a["id"],
                            params={k: v for k, v in a.items() if k not in ("kind", "id")})
                  for a in doc.get("agents", [])]

        shocks = [ShockSpec(pool=s["pool"], epoch=int(s["epoch"]),
                            magnitude_bps=int(s["magnitude_bps"]),
                            account=s.get("account", "issuer"))
                  for s in doc.get("shocks", [])]

        yield_schedule = [YieldEventSpec(asset=y["asset"], epoch=int(y["epoch"]),
                                         amount=_amt(y["amount"], "yield_schedule.amount"),
                                         payer=y["payer"])
                          for y in doc.get("yield_schedule", [])]

        cfg = ScenarioConfig(
            seed=seed, epochs=epochs,
            numeraire_id=num.get("id", "NUM"),
            numeraire_decimals=int(num.get("decimals", 6)),
            tokens=tokens, assets=assets,
            oracle_policy=policy, oracle_elements=oracle_elements,
            accounts=accounts, pools=pools, agents=agents, shocks=shocks,
            yield_schedule=yield_schedule,
            auto_claim=list(doc.get("auto_claim", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed scenario config: {exc}") from exc

    _validate_references(cfg)
    return cfg


def _validate_references(cfg: ScenarioConfig):
    token_ids = {t.id for t in cfg.tokens}
    element_ids = {t.id for t in cfg.tokens if t.kind == "element"}
    asset_ids = {a.composite for a in cfg.assets}
    account_ids = {a for a, _ in cfg.accounts}
    tradable = token_ids | asset_ids

    if cfg.epochs < 0:
        raise ParseError("epochs must be >= 0")
    for t in cfg.tokens:
        if t.kind not in ("element",):
            raise ParseError(f"tokens.{t.id}: kind must be 'element' "
                             "(composites are declared under assets)")
    for a in cfg.assets:
        for e, _ in a.composition:
            if e not in element_ids:
                raise UnknownReference(f"assets.{a.composite}.composition: "
                                       f"unknown element {e!r}")
        for acct, _ in a.genesis_mint:
            if acct not in account_ids:
                raise UnknownReference(f"assets.{a.composite}.genesis_mint: "
                                       f"unknown account {acct!r}")
    for oe in cfg.oracle_elements:
        if oe.element not in element_ids:
            raise UnknownReference(f"oracle.elements: unknown element {oe.element!r}")
        if oe.mint_to and oe.mint_to not in account_ids:
            raise UnknownReference(f"oracle.elements.{oe.element}.mint_to: "
                                   f"unknown account {oe.mint_to!r}")
        for acct, _ in oe.genesis:
            if acct not in account_ids:
                raise UnknownReference(f"oracle.elements.{oe.element}.genesis: "
                                       f"unknown account {acct!r}")
    for p in cfg.pools:
        if p.base not in tradable:
            raise UnknownReference(f"pools: unknown base token {p.base!r}")
        if p.provider not in account_ids:
            raise UnknownReference(f"pools.{p.base}.provider: unknown account "
                                   f"{p.provider!r}")
    for ag in cfg.agents:
        if ag.kind == "noise_trader" and ag.params.get("pool") not in tradable:
            raise UnknownReference(f"agents.{ag.id}: unknown pool token")
        if ag.kind == "arbitrageur" and ag.params.get("asset") not in asset_ids:
            raise UnknownReference(f"agents.{ag.id}: unknown asset")
        if ag.kind == "liquidity_provider" and ag.params.get("pool") not in tradable:
            raise UnknownReference(f"agents.{ag.id}: unknown pool token")
        if ag.kind not in ("noise_trader", "arbitrageur", "liquidity_provider"):
            raise ParseError(f"agents.{ag.id}: unknown kind {ag.kind!r}")
    for i, s in enumerate(cfg.shocks):
        if s.pool not in tradable:
            raise UnknownReference(f"shocks: unknown pool token {s.pool!r}")
        if s.account not in account_ids:
            raise UnknownReference(f"shocks: unknown account {s.account!r}")
        if s.magnitude_bps <= -BPS:
            raise ParseError(f"shocks[{i}].magnitude_bps: {s.magnitude_bps} targets a "
                             f"price <= 0 (must be > -{BPS})")
        if not 0 <= s.epoch < cfg.epochs:
            raise ParseError(f"shocks[{i}].epoch: {s.epoch} is outside [0, {cfg.epochs})")
    for i, y in enumerate(cfg.yield_schedule):
        if y.asset not in asset_ids:
            raise UnknownReference(f"yield_schedule: unknown asset {y.asset!r}")
        if y.payer not in account_ids:
            raise UnknownReference(f"yield_schedule: unknown payer {y.payer!r}")
        if not 0 <= y.epoch < cfg.epochs:
            raise ParseError(f"yield_schedule[{i}].epoch: {y.epoch} is outside "
                             f"[0, {cfg.epochs})")
    for acct in cfg.auto_claim:
        if acct not in account_ids:
            raise UnknownReference(f"auto_claim: unknown account {acct!r}")


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(doc)


# --- agents ---

class NoiseTrader:
    """Random buy/sell flow on one pool; sizes are log-normal in numeraire terms."""

    def __init__(self, spec: AgentSpec, market: Market, rng: np.random.Generator):
        self.id = spec.id
        self.pool_base = spec.params["pool"]
        self.intensity = float(spec.params.get("intensity", 0.5))
        self.mu = float(spec.params.get("mu", 0.0))
        self.sigma = float(spec.params.get("sigma", 1.0))
        self.rng = rng
        self.account = f"agent:{spec.id}"
        market.fund_numeraire(self.account, spec.amount("budget"))

    def act(self, market: Market, epoch: int):
        if self.rng.random() >= self.intensity:
            return
        pool = market.venues.pool_for(self.pool_base)
        if pool is None:
            return
        size = int(self.rng.lognormal(self.mu, self.sigma))
        if size <= 0:
            return
        buy = bool(self.rng.random() < 0.5)
        reg = market.registry
        if buy:
            spend = min(size, reg.balance_of(market.numeraire, self.account))
            if spend > 0:
                market.venues.swap_exact_in(pool.pool_id, SwapDirection.NUMERAIRE_IN,
                                            spend, self.account)
        else:
            rb, rn = market.venues.reserves(pool.pool_id)
            sell = min(size * rb // rn, reg.balance_of(self.pool_base, self.account))
            if sell > 0:
                market.venues.swap_exact_in(pool.pool_id, SwapDirection.BASE_IN,
                                            sell, self.account)


class LiquidityProvider:
    def __init__(self, spec: AgentSpec, market: Market, rng: np.random.Generator):
        self.id = spec.id
        self.pool_base = spec.params["pool"]
        self.base_amount = spec.amount("base")
        self.num_amount = spec.amount("numeraire")
        self.join_epoch = int(spec.params.get("join_epoch", 0))
        self.exit_epoch = spec.params.get("exit_epoch")
        self.account = f"agent:{spec.id}"
        market.fund_numeraire(self.account, spec.amount("budget"))

    def act(self, market: Market, epoch: int):
        pool = market.venues.pool_for(self.pool_base)
        if pool is None:
            return
        reg = market.registry
        if epoch == self.join_epoch:
            # acquire the base side from the pool itself if not already held
            short = self.base_amount - reg.balance_of(self.pool_base, self.account)
            if short > 0:
                need = market.venues.required_in_for_out(
                    pool.pool_id, SwapDirection.NUMERAIRE_IN, short)
                if need <= reg.balance_of(market.numeraire, self.account):
                    market.venues.swap_exact_in(pool.pool_id,
                                                SwapDirection.NUMERAIRE_IN,
                                                need, self.account)
            base = min(self.base_amount, reg.balance_of(self.pool_base, self.account))
            num = min(self.num_amount, reg.balance_of(market.numeraire, self.account))
            if base > 0 and num > 0:
                market.venues.add_liquidity(pool.pool_id, base, num, self.account)
        if self.exit_epoch is not None and epoch == int(self.exit_epoch):
            held = reg.balance_of(pool.lp_token, self.account)
            if held > 0:
                market.venues.remove_liquidity(pool.pool_id, held, self.account)


class Arbitrageur:
    MAX_PASSES = 16

    def __init__(self, spec: AgentSpec, market: Market, rng: np.random.Generator):
        self.id = spec.id
        self.asset = spec.params["asset"]
        self.min_profit = spec.amount("min_profit", 1)
        self.max_size = spec.amount("max_size", 1 << 30)
        self.enabled = bool(spec.params.get("enabled", True))
        self.account = f"agent:{spec.id}"
        # unconstrained capital by default; configurable budget
        market.fund_numeraire(self.account, spec.amount("budget", 10 ** 30))

    def act(self, market: Market, epoch: int) -> tuple[int, int]:
        """Returns (trades, profit) realized this epoch."""
        if not self.enabled:
            return (0, 0)
        trades = profit = 0
        for _ in range(self.MAX_PASSES):
            plan = detect_arbitrage(market, self.asset,
                                    min_profit=max(1, self.min_profit),
                                    max_size=self.max_size)
            if plan is None:
                break
            result = execute_plan(market, plan, self.account)
            trades += 1
            profit += result.realized_profit
        return (trades, profit)


def apply_demand_shock(market: Market, shock: ShockSpec):
    """Trade against a pool until spot moves past the target magnitude.

    Binary-searches the smallest input whose post-trade spot crosses the
    target, so the shock lands just past the requested move.
    """
    pool = market.venues.pool_for(shock.pool)
    if pool is None or shock.magnitude_bps == 0:
        return
    up = shock.magnitude_bps > 0
    rb, rn = market.venues.reserves(pool.pool_id)
    direction = SwapDirection.NUMERAIRE_IN if up else SwapDirection.BASE_IN

    def past_target(amount_in: int) -> bool:
        out = market.venues.quote_exact_in(pool.pool_id, direction, amount_in).amount_out
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
    market.venues.swap_exact_in(pool.pool_id, direction, lo, shock.account)


# --- engine ---

@dataclass
class SimResult:
    header: list[str]
    rows: list[list[str]]
    market: Market
    config: ScenarioConfig


def build_market(cfg: ScenarioConfig) -> Market:
    """Construct and bootstrap the market for epoch 0 (no agent activity yet)."""
    market = Market(numeraire=cfg.numeraire_id,
                    numeraire_decimals=cfg.numeraire_decimals)
    reg = market.registry

    for t in cfg.tokens:
        reg.create_token(TokenMeta(token=t.id, kind=TokenKind.ELEMENT,
                                   unit_label=t.unit_label, decimals=t.decimals),
                         authority=market.oracle.AUTHORITY)
    for a in cfg.assets:
        market.composites.define_asset(
            TokenMeta(token=a.composite, kind=TokenKind.COMPOSITE,
                      unit_label=a.unit_label, decimals=a.decimals),
            a.composition, a.mint_fee_bps, a.redeem_fee_bps)
        market.yields.register_asset(a.composite)

    for acct, funding in cfg.accounts:
        reg.ensure_account(acct)
        if funding:
            market.fund_numeraire(acct, funding)

    # pre-verified production credited before the simulated window
    for oe in cfg.oracle_elements:
        for acct, amount in oe.genesis:
            market.oracle.record_verified_output(oe.element, amount)
            market.oracle.mint_verified(oe.element, acct, amount)

    for a in cfg.assets:
        for acct, q in a.genesis_mint:
            market.composites.mint_composite(a.composite, acct, q)

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
    reg = market.registry
    row = [str(epoch)]
    for a in cfg.assets:
        cid = a.composite
        asset = market.composites.get(cid)
        try:
            report = nav_report(asset, market.venues)
            nav_s, spot_s = frac_str(report.nav), frac_str(report.composite_spot)
            prem = str(report.premium_bps)
        except EngineError:
            nav_s = spot_s = prem = "nan"
        trades, profit = arb_stats.get(cid, (0, 0))
        row += [nav_s, spot_s, prem, str(trades), str(profit),
                str(reg.total_supply(cid)),
                str(int(market.composites.full_backing_ok(cid)))]
        for element, _ in a.composition:
            pool = market.venues.pool_for(element)
            row.append(frac_str(market.venues.spot_price(pool.pool_id))
                       if pool else "nan")
            row.append(str(reg.total_supply(element)))
    return row


def run(cfg: ScenarioConfig) -> SimResult:
    market = build_market(cfg)
    reg = market.registry
    bootstrap_minted = 0  # shocks and arbitrageur top-ups count as bootstrap

    seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.agents) + 1)
    shuffle_rng = np.random.Generator(np.random.Philox(seeds[-1]))

    traders, arbs = [], []
    for spec, child in zip(cfg.agents, seeds):
        rng = np.random.Generator(np.random.Philox(child))
        if spec.kind == "noise_trader":
            traders.append(NoiseTrader(spec, market, rng))
        elif spec.kind == "liquidity_provider":
            traders.append(LiquidityProvider(spec, market, rng))
        elif spec.kind == "arbitrageur":
            arbs.append(Arbitrageur(spec, market, rng))
    numeraire_supply0 = reg.total_supply(cfg.numeraire_id)

    shocks_by_epoch: dict[int, list[ShockSpec]] = {}
    for s in cfg.shocks:
        shocks_by_epoch.setdefault(s.epoch, []).append(s)
    yields_by_epoch: dict[int, list[YieldEventSpec]] = {}
    for y in cfg.yield_schedule:
        yields_by_epoch.setdefault(y.epoch, []).append(y)

    header = _metrics_header(cfg)
    rows = []
    for epoch in range(cfg.epochs):
        try:
            # (1) oracle attestations
            for oe in cfg.oracle_elements:
                if not oe.sources:
                    continue
                value = (oe.per_epoch[epoch] if isinstance(oe.per_epoch, list)
                         and epoch < len(oe.per_epoch) else
                         oe.per_epoch if isinstance(oe.per_epoch, int) else 0)
                if value == 0:
                    continue
                for src in oe.sources:
                    market.oracle.submit_attestation(
                        Attestation(source=src, element=oe.element,
                                    epoch=epoch, measured=value))
                market.oracle.finalize_epoch(oe.element, epoch, cfg.oracle_policy)
            # (2) verified mints
            for oe in cfg.oracle_elements:
                if not oe.mint_to:
                    continue
                capacity = market.oracle.mintable_capacity(oe.element)
                if capacity > 0:
                    market.oracle.mint_verified(oe.element, oe.mint_to, capacity)
            # (3) trading agents, seed-shuffled; shocks fire after the shuffle
            order = shuffle_rng.permutation(len(traders)) if traders else []
            for i in order:
                traders[i].act(market, epoch)
            supply_before = reg.total_supply(cfg.numeraire_id)
            for s in shocks_by_epoch.get(epoch, ()):
                apply_demand_shock(market, s)
            bootstrap_minted += reg.total_supply(cfg.numeraire_id) - supply_before
            # (4) arbitrageur pass
            arb_stats: dict[str, tuple[int, int]] = {}
            for arb in arbs:
                trades, profit = arb.act(market, epoch)
                t0, p0 = arb_stats.get(arb.asset, (0, 0))
                arb_stats[arb.asset] = (t0 + trades, p0 + profit)
            # (5) yield
            for y in yields_by_epoch.get(epoch, ()):
                market.yields.deposit_yield(y.asset, y.amount, y.payer)
            for acct in cfg.auto_claim:
                for a in cfg.assets:
                    market.yields.claim(a.composite, acct)
            # (6) metrics + conservation check
            if reg.total_supply(cfg.numeraire_id) != numeraire_supply0 + bootstrap_minted:
                raise InvariantViolation(
                    f"numeraire supply changed outside bootstrap at epoch {epoch}")
            rows.append(_metrics_row(cfg, market, epoch, arb_stats))
        except EngineError as exc:
            exc.args = (f"epoch {epoch} (event seq {reg._seq}): {exc}",)
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
        for line in result.market.registry.export_events():
            fh.write(line + "\n")
