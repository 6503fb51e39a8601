import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from twotier.amm import AmmVenues
from twotier.ledger import _ENDS, AccountRole, TokenKind, TokenMeta
from twotier.market import Market
from twotier.pricing import NavReport, nav_report
from twotier.yields import INDEX_SCALE, YieldVault

# `--hypothesis-profile=ci` runs the properties that take their example count from
# the profile (the arbitrage detection searches, batched yield claims, and the ledger,
# oracle and full-backing properties, which keep their own larger floor through
# `examples`) at 20 times the default 100
settings.register_profile("ci", max_examples=2000, deadline=None)


def examples(floor: int) -> int:
    """`floor` examples, or the loaded hypothesis profile's count where that is larger
    (`--hypothesis-profile=ci`)."""
    return max(floor, settings.default.max_examples)


SOLAR_COMPOSITION = [("energy", 100), ("land", 1000), ("carbon", 100)]


def add_element(market: Market, token_id: str, decimals: int = 0) -> str:
    market.registry.create_token(
        TokenMeta(token=token_id, kind=TokenKind.ELEMENT, decimals=decimals),
        authority=market.oracle.AUTHORITY)
    return token_id


def grant_elements(market: Market, account: str, amounts: dict[str, int]):
    """Fund an account with verified element output (keeps oracle soundness)."""
    market.registry.ensure_account(account)
    for element, qty in amounts.items():
        market.oracle.record_verified_output(element, qty)
        market.oracle.mint_verified(element, account, qty)


def make_solar_market(mint_fee_bps: int = 0, redeem_fee_bps: int = 0,
                      composite_decimals: int = 0) -> tuple[Market, str]:
    """Three-element market with the solar composition; no pools yet."""
    market = Market(numeraire="NUM", numeraire_decimals=0)
    for el in ("energy", "land", "carbon"):
        add_element(market, el)
    asset = market.composites.define_asset(
        TokenMeta(token="W_SOLAR", kind=TokenKind.COMPOSITE,
                  decimals=composite_decimals),
        SOLAR_COMPOSITION, mint_fee_bps, redeem_fee_bps)
    return market, asset.composite


def nav_report_of(market: Market, cid: str) -> NavReport:
    """`nav_report` of composite `cid` at the market's current pools."""
    asset = market.composites.get(cid)
    return nav_report(asset, market.venues.snapshot(asset.bases))


def record_snapshots(monkeypatch) -> list[tuple[str, ...]]:
    """Record the bases of every `AmmVenues.snapshot` call, and make the per-pool
    read `reserves` raise."""
    calls = []
    snapshot = AmmVenues.snapshot

    def recorded(venues, bases):
        calls.append(tuple(bases))
        return snapshot(venues, bases)

    def unread(venues, base):
        raise AssertionError(f"pool {base} read outside AmmVenues.snapshot")

    monkeypatch.setattr(AmmVenues, "snapshot", recorded)
    monkeypatch.setattr(AmmVenues, "reserves", unread)
    return calls


def seed_solar_pools(market: Market, w_premium_bps: int = 0, pool_fee_bps: int = 30,
                     funder: str = "issuer"):
    """Element pools at unit prices and a composite pool at NAV * (1 + premium)."""
    market.registry.ensure_account(funder, AccountRole.ISSUER)
    market.fund_numeraire(funder, 10 ** 15)
    grant_elements(market, funder, {"energy": 10 ** 9, "land": 10 ** 10,
                                    "carbon": 10 ** 9})
    market.composites.mint_composite("W_SOLAR", funder, 1_000_000)
    market.venues.create_pool("energy", pool_fee_bps, 10 ** 8, 10 ** 8, funder)
    market.venues.create_pool("land", pool_fee_bps, 10 ** 9, 10 ** 9, funder)
    market.venues.create_pool("carbon", pool_fee_bps, 10 ** 8, 10 ** 8, funder)
    nav = 1200  # unit prices
    w_price = Fraction(nav * (10_000 + w_premium_bps), 10_000)
    seed_w = 200_000
    market.venues.create_pool("W_SOLAR", pool_fee_bps, seed_w,
                              int(seed_w * w_price), funder)


class IndexModel:
    """The lazy per-share bookkeeping of pro-rata yield, kept apart from the vault as the
    reference for its payouts.

    Per token, a cumulative index of numeraire per unit, scaled by INDEX_SCALE; per
    (token, account), the entitlement settled so far and the index it was settled at.
    `sync` replays the registry's events since its last call and settles both accounts
    of each move at the balance before it, so an account is owed its settled part plus
    balance * (index - its last index). Deposits and claims sync first, so call them
    between ledger operations, not inside one.
    """

    def __init__(self, registry):
        self.registry = registry
        self.seen = 0     # events replayed
        self.balances: dict[str, dict[str, int]] = {}  # token -> account -> replayed balance
        self.index: dict[str, int] = {}
        self.accrued: dict[tuple[str, str], int] = {}
        self.last: dict[tuple[str, str], int] = {}

    def owed_scaled(self, token: str, account: str) -> int:
        key = token, account
        return (self.accrued.get(key, 0) + self.balances.get(token, {}).get(account, 0)
                * (self.index.get(token, 0) - self.last.get(key, 0)))

    def _settle(self, token: str, account: str):
        self.accrued[token, account] = self.owed_scaled(token, account)
        self.last[token, account] = self.index.get(token, 0)

    def sync(self):
        events = self.registry.events
        for op, token, accounts, qty, _ in events[self.seen:]:
            if op in _ENDS:  # a move: mint, burn or transfer
                book = self.balances.setdefault(token, {})
                for account, change in zip(_ENDS[op](accounts), (-qty, qty)):
                    if account is not None:
                        self._settle(token, account)
                        book[account] = book.get(account, 0) + change
        self.seen = len(events)

    def deposit(self, token: str, amount: int):
        self.sync()
        supply = sum(self.balances[token].values())
        self.index[token] = self.index.get(token, 0) + amount * INDEX_SCALE // supply

    def claimable(self, token: str, account: str) -> int:
        self.sync()
        return self.owed_scaled(token, account) // INDEX_SCALE

    def claim(self, token: str, account: str) -> int:
        """Settle `account` and take its whole payout out of the model; return it."""
        self.sync()
        self._settle(token, account)
        payout = self.accrued[token, account] // INDEX_SCALE
        self.accrued[token, account] -= payout * INDEX_SCALE
        return payout


_deposit_yield, _claim = YieldVault.deposit_yield, YieldVault.claim  # unpatched


def check_claimable(model: IndexModel, vault, composite: str):
    """Every account that has held `composite` can claim what `model` says it is owed."""
    model.sync()
    for account in model.balances.get(composite, ()):
        assert vault.claimable(composite, account) == model.claimable(composite, account)


def modelled_deposit(model: IndexModel, vault, composite: str, amount: int, payer: str):
    """`YieldVault.deposit_yield`, then the same deposit in `model`, checked with
    `check_claimable`."""
    _deposit_yield(vault, composite, amount, payer)
    model.deposit(composite, amount)
    check_claimable(model, vault, composite)


def modelled_claim(model: IndexModel, vault, composite: str, *accounts: str) -> int:
    """`YieldVault.claim`, whose payout to each account, in order, must be `model`'s claim
    of that account, and which leaves every account's claimable as `model` says."""
    model.sync()
    events, start = vault.registry.events, len(vault.registry.events)
    paid = _claim(vault, composite, *accounts)
    payouts = [(account, model.claim(composite, account)) for account in accounts]
    pool = vault.get(composite).account
    assert events[start:] == [("transfer", vault.numeraire, (pool, account), payout, None)
                              for account, payout in payouts if payout]
    assert paid == sum(payout for _, payout in payouts)
    check_claimable(model, vault, composite)
    return paid


def credit_by_rows(oracle, element: str, rows: list[tuple[str, int]]):
    """Each (account, amount) credited and minted on its own: the reference for
    `OracleHub.credit_genesis`, which writes every row in one settle."""
    for account, amount in rows:
        oracle.record_verified_output(element, amount)
        oracle.mint_verified(element, account, amount)


def mint_by_rows(engine, asset_id: str, rows: list[tuple[str, int]]):
    """Each (caller, q) minted in a settle of its own, backing checked after each: the
    reference for `CompositeEngine.mint_composites`, which writes every row in one."""
    asset, reg = engine.get(asset_id), engine.registry
    for caller, q in rows:
        legs = []
        for element, deposit, fee in engine._mint_moves(asset, reg.total_supply(asset_id), q):
            legs.append((element, caller, asset.escrow, deposit))
            if fee:
                legs.append((element, caller, asset.fee_sink, fee))
        legs.append((asset_id, None, caller, q))
        reg.settle(legs, engine.authority_for(asset_id))
        engine._assert_backing(asset)


def scenario_gen():
    """The benchmark's seeded document generator, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenario_gen.py"
    spec = importlib.util.spec_from_file_location("scenario_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
