import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from twotier.amm import AmmVenues
from twotier.ledger import AccountRole, TokenKind, TokenMeta
from twotier.market import Market
from twotier.pricing import NavReport, nav_report
from twotier.yields import INDEX_SCALE

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


def reference_claim(vault, composite: str, account: str) -> int:
    """One account's claim, settled and paid on its own: the reference for the batched
    `YieldVault.claim(composite, *accounts)`."""
    pool = vault.get(composite)
    vault._settle(pool, account, vault.registry.balance_of(composite, account))
    payout = pool.accrued_scaled.get(account, 0) // INDEX_SCALE
    if payout == 0:
        return 0
    pool.accrued_scaled[account] -= payout * INDEX_SCALE
    vault.registry.transfer(vault.numeraire, pool.account, account, payout)
    pool.total_paid += payout
    return payout


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
