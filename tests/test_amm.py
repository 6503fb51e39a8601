from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_element, grant_elements
from twotier.amm import BPS, SwapDirection, cp_in, cp_out
from twotier.errors import (AmmError, DrainedPool, DuplicatePool, InsufficientBalance,
                            UnknownAccount, ZeroInput)
from twotier.market import BOOTSTRAP_AUTHORITY, Market


def pool_market(seed_base=1_000_000, seed_num=1_000_000, fee_bps=0):
    market = Market(numeraire="NUM", numeraire_decimals=0)
    add_element(market, "energy")
    market.registry.ensure_account("lp")
    market.fund_numeraire("lp", 10 ** 15)
    grant_elements(market, "lp", {"energy": 10 ** 15})
    pool = market.venues.create_pool("energy", fee_bps, seed_base, seed_num, "lp")
    market.registry.ensure_account("trader")
    market.fund_numeraire("trader", 10 ** 15)
    grant_elements(market, "trader", {"energy": 10 ** 12})
    return market, pool


def oracle_out(x: int, y: int, d: int, fee_bps: int) -> int:
    # independent exact-rational evaluation of floor(y*e/(x+e))
    e = Fraction(d * (BPS - fee_bps), BPS)
    e = e.numerator // e.denominator
    out = Fraction(y * e, x + e)
    return out.numerator // out.denominator


def test_create_pool_lp_sqrt():
    market, pool = pool_market(1_000_000, 1_000_000)
    assert market.venues.lp_supply(pool.base) == 1_000_000


def test_create_pool_exact_sqrt():
    market, pool = pool_market(4, 9)
    assert market.venues.lp_supply(pool.base) == 6


def test_create_pool_zero_seed():
    market, _ = pool_market()
    add_element(market, "carbon")
    with pytest.raises(ZeroInput):
        market.venues.create_pool("carbon", 0, 0, 100, "lp")


def test_create_pool_duplicate_base():
    market, _ = pool_market()
    with pytest.raises(DuplicatePool):
        market.venues.create_pool("energy", 0, 10, 10, "lp")


# The rows below whose message is a key here short the provider by one unit of that
# token before the failing call, with a burn under the token's authority, and mint it
# back before the retry.
POOL_SHORTS = {"transfer 100 of energy, balance 99": "energy",
               "transfer 80 of NUM, balance 79": "NUM"}


@pytest.mark.parametrize("provider,error,message", [
    ("lp", InsufficientBalance, "transfer 100 of energy, balance 60"),
    ("poor", InsufficientBalance, "transfer 80 of NUM, balance 30"),
    ("nobody", UnknownAccount, "nobody"),
    pytest.param("rich", InsufficientBalance, "transfer 100 of energy, balance 99",
                 id="rich-short-base"),
    pytest.param("rich", InsufficientBalance, "transfer 80 of NUM, balance 79",
                 id="rich-short-NUM"),
])
def test_a_failed_create_pool_registers_nothing_and_a_retry_succeeds(provider, error, message):
    market = Market(numeraire="NUM", numeraire_decimals=0)
    add_element(market, "energy")
    grant_elements(market, "lp", {"energy": 60})
    market.fund_numeraire("lp", 1000)
    grant_elements(market, "poor", {"energy": 500})
    market.fund_numeraire("poor", 30)
    grant_elements(market, "rich", {"energy": 100})
    market.fund_numeraire("rich", 80)
    reg = market.registry
    short = POOL_SHORTS.get(message)
    authority = {"energy": market.oracle.AUTHORITY, "NUM": BOOTSTRAP_AUTHORITY}.get(short)
    if short:
        reg.burn(short, provider, 1, authority)
    before = (dict(reg.tokens), dict(reg.accounts), list(reg.events), reg.state_hash())
    # the ledger's own error, and the rollback removes the pool's token and account
    for _ in range(2):
        with pytest.raises(error) as raised:
            market.venues.create_pool("energy", 30, 100, 80, provider)
        assert str(raised.value).strip("'") == message
        assert (dict(reg.tokens), dict(reg.accounts), list(reg.events),
                reg.state_hash()) == before
        assert market.venues.pools == {}
    if short:
        reg.mint(short, provider, 1, authority)
    grant_elements(market, provider, {"energy": 100})
    market.fund_numeraire(provider, 80)
    pool = market.venues.create_pool("energy", 30, 100, 80, provider)
    assert market.venues.reserves(pool.base) == (100, 80)
    assert market.venues.lp_supply(pool.base) == 89  # isqrt(100 * 80)
    market.audit()


def test_swap_no_fee_closed_form():
    market, pool = pool_market(1_000_000, 1_000_000, fee_bps=0)
    quote = market.venues.swap_exact_in(pool.base, SwapDirection.BASE_IN,
                                        100_000, "trader")
    assert quote.amount_out == 90_909 == oracle_out(1_000_000, 1_000_000, 100_000, 0)


def test_swap_30bps_closed_form():
    market, pool = pool_market(1_000_000, 1_000_000, fee_bps=30)
    quote = market.venues.swap_exact_in(pool.base, SwapDirection.BASE_IN,
                                        100_000, "trader")
    assert quote.amount_out == oracle_out(1_000_000, 1_000_000, 100_000, 30)
    assert quote.fee_paid == 100_000 - 100_000 * (BPS - 30) // BPS


def test_swap_zero_input():
    market, pool = pool_market()
    with pytest.raises(ZeroInput):
        market.venues.swap_exact_in(pool.base, SwapDirection.BASE_IN, 0, "trader")


def spot(market, base) -> Fraction:
    rb, rn = market.venues.reserves(base)
    return Fraction(rn, rb)


def test_spot_price_examples():
    market, pool = pool_market(1000, 2000)
    assert spot(market, pool.base) == 2
    market2, pool2 = pool_market(5000, 5000)
    assert spot(market2, pool2.base) == 1


def test_spot_price_decreases_on_base_in():
    market, pool = pool_market(1_000_000, 1_000_000, fee_bps=30)
    before = spot(market, pool.base)
    market.venues.swap_exact_in(pool.base, SwapDirection.BASE_IN, 1000, "trader")
    assert spot(market, pool.base) < before


def test_required_in_for_out_is_sufficient_and_tight():
    market, pool = pool_market(1_000_000, 2_000_000, fee_bps=30)
    for want in (1, 17, 999, 123_456):
        d = market.venues.required_in_for_out(pool.base,
                                              SwapDirection.NUMERAIRE_IN, want)
        got = market.venues.quote_exact_in(pool.base,
                                           SwapDirection.NUMERAIRE_IN, d).amount_out
        assert got >= want
        if d > 1:
            less = market.venues.quote_exact_in(
                pool.base, SwapDirection.NUMERAIRE_IN, d - 1).amount_out
            assert less <= got


@given(x=st.integers(1, 10 ** 12), y=st.integers(1, 10 ** 12),
       fee=st.integers(0, BPS - 1), want=st.integers(1, 10 ** 12))
@settings(max_examples=500, deadline=None)
def test_cp_in_is_the_smallest_sufficient_input(x, y, fee, want):
    d = cp_in(x, y, fee, want)
    if d is None:
        assert want >= y
        return
    assert cp_out(x, y, fee, d) >= want
    assert cp_out(x, y, fee, d - 1) < want


def test_cp_out_drains_only_an_empty_input_reserve():
    assert cp_out(0, 5, 0, 3) is None
    assert cp_out(1, 5, 0, 10 ** 12) == 4


@given(x=st.integers(1, 10 ** 9), y=st.integers(1, 10 ** 9), fee=st.integers(0, 100),
       direction=st.sampled_from(SwapDirection), amount=st.integers(1, 2 * 10 ** 9))
@settings(max_examples=200, deadline=None)
def test_venue_quotes_are_the_pure_formulas(x, y, fee, direction, amount):
    market, pool = pool_market(x, y, fee_bps=fee)
    venues = market.venues
    _, r_in, r_out = venues._oriented(pool.base, direction)
    assert venues.quote_exact_in(pool.base, direction, amount).amount_out == cp_out(
        r_in, r_out, fee, amount)
    need = cp_in(r_in, r_out, fee, amount)
    if need is None:
        with pytest.raises(DrainedPool, match="energy"):
            venues.required_in_for_out(pool.base, direction, amount)
    else:
        assert venues.required_in_for_out(pool.base, direction, amount) == need


def test_emptied_pool_raises_amm_errors():
    # all LP removed leaves reserves (0, 0): every venue call names the pool's base
    market, pool = pool_market(fee_bps=30)
    venues = market.venues
    venues.remove_liquidity(pool.base, market.registry.balance_of(pool.lp_token, "lp"), "lp")
    assert venues.reserves(pool.base) == (0, 0)
    for direction in SwapDirection:
        for amount in (1, 10 ** 6):   # 1 at 30 bps is 0 after the fee
            with pytest.raises(AmmError, match="energy"):
                venues.quote_exact_in(pool.base, direction, amount)
        with pytest.raises(AmmError, match="energy"):
            venues.required_in_for_out(pool.base, direction, 1)
    with pytest.raises(AmmError, match="energy"):
        venues.add_liquidity(pool.base, 10 ** 6, 10 ** 6, "trader")
    with pytest.raises(AmmError, match="energy"):
        venues.remove_liquidity(pool.base, 1, "lp")
    assert cp_out(0, 0, 30, 1) is None


def test_add_liquidity_doubling_doubles_lp():
    market, pool = pool_market(1_000_000, 3_000_000)
    lp0 = market.venues.lp_supply(pool.base)
    minted = market.venues.add_liquidity(pool.base, 1_000_000, 3_000_000, "trader")
    assert minted == lp0
    rb, rn = market.venues.reserves(pool.base)
    assert (rb, rn) == (2_000_000, 6_000_000)


def test_remove_all_liquidity_residue_bound():
    market, pool = pool_market(999_983, 1_000_003)  # primes: forced rounding
    lp = market.venues.lp_supply(pool.base)
    held = market.registry.balance_of(pool.lp_token, "lp")
    base_out, num_out = market.venues.remove_liquidity(pool.base, held, "lp")
    assert held == lp
    assert 999_983 - base_out <= 1 and base_out <= 999_983
    assert 1_000_003 - num_out <= 1 and num_out <= 1_000_003


def test_remove_zero_liquidity():
    market, pool = pool_market()
    assert market.venues.remove_liquidity(pool.base, 0, "lp") == (0, 0)


def test_no_free_lp_value():
    market, pool = pool_market(1_000_000, 2_000_000)
    reg = market.registry
    b0 = reg.balance_of("energy", "trader")
    n0 = reg.balance_of("NUM", "trader")
    minted = market.venues.add_liquidity(pool.base, 33_333, 77_777, "trader")
    market.venues.remove_liquidity(pool.base, minted, "trader")
    assert reg.balance_of("energy", "trader") <= b0
    assert reg.balance_of("NUM", "trader") <= n0


@given(x=st.integers(10, 10 ** 12), y=st.integers(10, 10 ** 12),
       d=st.integers(1, 10 ** 10), fee=st.integers(0, 100))
@settings(max_examples=300, deadline=None)
def test_swap_oracle_equivalence_and_k(x, y, d, fee):
    market, pool = pool_market(x, y, fee_bps=fee)
    quote = market.venues.swap_exact_in(pool.base, SwapDirection.BASE_IN,
                                        d, "trader")
    assert quote.amount_out == oracle_out(x, y, d, fee)
    rb, rn = market.venues.reserves(pool.base)
    assert rb * rn >= x * y


@given(x=st.integers(1000, 10 ** 9), y=st.integers(1000, 10 ** 9),
       d=st.integers(1, 10 ** 6), fee=st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_round_trip_loss(x, y, d, fee):
    market, pool = pool_market(x, y, fee_bps=fee)
    q1 = market.venues.swap_exact_in(pool.base, SwapDirection.BASE_IN, d, "trader")
    if q1.amount_out == 0:
        return
    q2 = market.venues.swap_exact_in(pool.base, SwapDirection.NUMERAIRE_IN,
                                     q1.amount_out, "trader")
    assert q2.amount_out <= d
    if fee > 0:
        assert q2.amount_out < d


@given(x=st.integers(1000, 10 ** 9), y=st.integers(1000, 10 ** 9),
       d=st.integers(2, 10 ** 6), split=st.integers(1, 99), fee=st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_split_swap_never_beats_single(x, y, d, split, fee):
    d1 = max(1, d * split // 100)
    d2 = d - d1
    if d2 <= 0:
        return
    single_market, pool = pool_market(x, y, fee_bps=fee)
    single = single_market.venues.swap_exact_in(
        pool.base, SwapDirection.BASE_IN, d, "trader").amount_out
    split_market, pool2 = pool_market(x, y, fee_bps=fee)
    out1 = split_market.venues.swap_exact_in(
        pool2.base, SwapDirection.BASE_IN, d1, "trader").amount_out
    out2 = split_market.venues.swap_exact_in(
        pool2.base, SwapDirection.BASE_IN, d2, "trader").amount_out
    assert out1 + out2 <= single