import random
from fractions import Fraction

import pytest
from hypothesis import settings

from twotier.ledger import AccountRole, TokenKind, TokenMeta
from twotier.market import Market
from twotier.yields import INDEX_SCALE

# `--hypothesis-profile=ci` runs the properties that take their example count from
# the profile (the arbitrage detection searches, batched yield claims) at 20 times
# the default 100
settings.register_profile("ci", max_examples=2000, deadline=None)

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
    vault._settle(composite, account)
    payout = pool.accrued_scaled.get(account, 0) // INDEX_SCALE
    if payout == 0:
        return 0
    pool.accrued_scaled[account] -= payout * INDEX_SCALE
    vault.registry.transfer(vault.numeraire, pool.account, account, payout)
    pool.total_paid += payout
    return payout


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
