from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SOLAR_COMPOSITION, add_element, examples, grant_elements, make_solar_market
from twotier.composite import CompositeEngine, MintReceipt, ceil_div
from twotier.errors import (
    CompositeAlreadyBound,
    DuplicateAccount,
    EmptyComposition,
    EngineError,
    InsufficientBalance,
    InvariantViolation,
    Overflow,
    TokenPaused,
    UnknownAccount,
    UnknownElement,
    ZeroQuantity,
)
from twotier.ledger import TokenKind, TokenMeta
from twotier.market import Market


def exact_fee(per_unit: int, q: int, fee_bps: int, unit: int = 1) -> int:
    # independent oracle: exact rational, then ceil
    x = Fraction(per_unit * q * fee_bps, 10_000 * unit)
    return -(-x.numerator // x.denominator)


def exact_payout(per_unit: int, q: int, fee_bps: int) -> int:
    # independent oracle for aligned (decimals 0) assets
    x = Fraction(per_unit * q * (10_000 - fee_bps), 10_000)
    return x.numerator // x.denominator


def test_define_solar_asset():
    market, cid = make_solar_market()
    asset = market.composites.get(cid)
    assert asset.composition == SOLAR_COMPOSITION
    assert market.registry.meta(cid).kind == TokenKind.COMPOSITE


def test_duplicate_element_rejected():
    market = Market()
    add_element(market, "energy")
    with pytest.raises(UnknownElement):
        market.composites.define_asset(
            TokenMeta(token="W_X", kind=TokenKind.COMPOSITE),
            [("energy", 1), ("energy", 2)])


def test_single_element_wrapper_valid():
    market = Market()
    add_element(market, "carbon")
    asset = market.composites.define_asset(
        TokenMeta(token="W_WRAP", kind=TokenKind.COMPOSITE), [("carbon", 1)])
    assert asset.composition == [("carbon", 1)]


def test_empty_composition_rejected():
    market = Market()
    with pytest.raises(EmptyComposition):
        market.composites.define_asset(
            TokenMeta(token="W_EMPTY", kind=TokenKind.COMPOSITE), [])


def test_composite_already_bound():
    market, cid = make_solar_market()
    with pytest.raises(CompositeAlreadyBound):
        market.composites.define_asset(
            TokenMeta(token=cid, kind=TokenKind.COMPOSITE), [("energy", 1)])


@pytest.mark.parametrize("taken", ["escrow:W", "fee_sink:W"])
def test_a_failed_define_asset_registers_nothing_and_a_retry_succeeds(taken):
    market = Market()
    add_element(market, "energy")
    reg = market.registry
    reg.create_account(taken)
    before = (reg.state_hash(), list(reg.events), dict(reg.tokens), dict(market.composites.assets))
    for _ in range(2):  # the retry meets the same error, not CompositeAlreadyBound
        with pytest.raises(DuplicateAccount):
            market.composites.define_asset(
                TokenMeta(token="W", kind=TokenKind.COMPOSITE), [("energy", 1)])
        assert (reg.state_hash(), list(reg.events), dict(reg.tokens),
                dict(market.composites.assets)) == before
    # the same with fees out of range, which the asset record refuses
    with pytest.raises(ValueError):
        market.composites.define_asset(
            TokenMeta(token="W2", kind=TokenKind.COMPOSITE), [("energy", 1)], 10_001)
    assert (reg.state_hash(), list(reg.events)) == before[:2]
    market.composites.define_asset(TokenMeta(token="W3", kind=TokenKind.COMPOSITE),
                                   [("energy", 1)])
    assert list(market.composites.assets) == ["W3"]


def test_an_asset_the_vault_refuses_is_defined_in_neither_engine():
    market = Market()
    add_element(market, "energy")
    reg = market.registry
    reg.create_account("yield:W")
    n_events = len(reg.events)
    with pytest.raises(DuplicateAccount):
        market.define_asset(TokenMeta(token="W", kind=TokenKind.COMPOSITE), [("energy", 1)])
    assert "W" not in reg.tokens and "escrow:W" not in reg.accounts
    assert "fee_sink:W" not in reg.accounts
    assert market.composites.assets == {} and market.yields.pools == {}
    assert len(reg.events) == n_events
    asset = market.define_asset(TokenMeta(token="W2", kind=TokenKind.COMPOSITE),
                                [("energy", 1)])
    assert list(market.composites.assets) == list(market.yields.pools) == [asset.composite]


def test_mint_zero_fee_exact_ratios():
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 100, "land": 1000, "carbon": 100})
    receipt = market.composites.mint_composite(cid, "ap", 1)
    assert receipt.deposits == [("energy", 100), ("land", 1000), ("carbon", 100)]
    assert receipt.fees == [("energy", 0), ("land", 0), ("carbon", 0)]
    assert market.registry.balance_of(cid, "ap") == 1


def test_mint_fee_10bps_q10():
    market, cid = make_solar_market(mint_fee_bps=10)
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    receipt = market.composites.mint_composite(cid, "ap", 10)
    assert receipt.deposits == [("energy", 1000), ("land", 10000), ("carbon", 1000)]
    expected_fees = [(e, exact_fee(a, 10, 10)) for e, a in SOLAR_COMPOSITION]
    assert receipt.fees == expected_fees == [("energy", 1), ("land", 10), ("carbon", 1)]


def test_mint_zero_quantity():
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 100, "land": 1000, "carbon": 100})
    with pytest.raises(ZeroQuantity):
        market.composites.mint_composite(cid, "ap", 0)


def test_mint_insufficient_reports_shortfall():
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 100, "land": 999, "carbon": 100})
    with pytest.raises(InsufficientBalance) as exc:
        market.composites.mint_composite(cid, "ap", 1)
    assert exc.value.token == "land"
    assert exc.value.shortfall == 1


# (granted elements, pause energy, error, message, shortfall) of a refused 10-unit mint with
# a 10 bps fee, which owes 1000 + 1 energy, 10000 + 10 land and 1000 + 1 carbon
MINT_REFUSALS = {
    # the deposit leg itself is short: the shortfall leaves out the fee
    "deposit-short": ({"energy": 999, "land": 10010, "carbon": 1001}, False, InsufficientBalance,
                      "transfer 1000 of energy, balance 999", 1),
    "fee-short": ({"energy": 1000, "land": 10010, "carbon": 1001}, False, InsufficientBalance,
                  "transfer 1 of energy, balance 0", 1),
    "later-element-short": ({"energy": 1001, "land": 10009, "carbon": 1001}, False,
                            InsufficientBalance, "transfer 10 of land, balance 9", 1),
    # the first failing leg raises: a paused first element wins over a later shortfall
    "paused-first-element": ({"energy": 1001, "land": 5, "carbon": 1001}, True, TokenPaused,
                             "energy", None),
}


@pytest.mark.parametrize("case", MINT_REFUSALS)
def test_a_refused_mint_raises_its_first_failing_legs_ledger_error(case):
    granted, pause, error, message, shortfall = MINT_REFUSALS[case]
    market, cid = make_solar_market(mint_fee_bps=10)
    grant_elements(market, "ap", granted)
    reg = market.registry
    if pause:
        reg.set_paused("energy", True)
    before = (reg.state_hash(), list(reg.events), dict(reg.balances("energy")))
    with pytest.raises(error) as raised:
        market.composites.mint_composite(cid, "ap", 10)
    assert str(raised.value).strip("'") == message
    assert getattr(raised.value, "shortfall", None) == shortfall
    assert (reg.state_hash(), list(reg.events), dict(reg.balances("energy"))) == before


def test_a_mint_by_an_unknown_caller_raises_unknown_account():
    market, cid = make_solar_market()
    before = list(market.registry.events)
    with pytest.raises(UnknownAccount, match="nobody"):
        market.composites.mint_composite(cid, "nobody", 1)
    assert market.registry.events == before


# (caller, units of W moved to it first or None, pause W, q, error, message, shortfall) of a
# refused redeem at supply 10, held by "ap"
REDEEM_REFUSALS = {
    # past the supply there is no schedule to price, and the engine says so itself
    "beyond-supply": ("ap", None, False, 11, InsufficientBalance,
                      "redeem W_SOLAR: need 11 composite, supply 10", 1),
    # otherwise the burn leg raises the ledger's own error, with its own cause
    "unknown-caller": ("nobody", None, False, 1, UnknownAccount, "nobody", None),
    "paused-short-caller": ("bob", 1, True, 3, TokenPaused, "W_SOLAR", None),
    "short-caller": ("bob", 1, False, 3, InsufficientBalance, "burn 3 of W_SOLAR, balance 1", 2),
}


@pytest.mark.parametrize("case", REDEEM_REFUSALS)
def test_a_refused_redeem_raises_its_burn_legs_ledger_error(case):
    caller, held, pause, q, error, message, shortfall = REDEEM_REFUSALS[case]
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 1000, "land": 10000, "carbon": 1000})
    market.composites.mint_composite(cid, "ap", 10)
    reg = market.registry
    if held is not None:
        reg.create_account(caller)
        reg.transfer(cid, "ap", caller, held)
    if pause:
        reg.set_paused(cid, True)
    before = (reg.state_hash(), list(reg.events), dict(reg.balances(cid)))
    with pytest.raises(error) as raised:
        market.composites.redeem_composite(cid, caller, q)
    assert str(raised.value).strip("'") == message
    assert getattr(raised.value, "shortfall", None) == shortfall
    assert (reg.state_hash(), list(reg.events), dict(reg.balances(cid))) == before


def test_a_refused_fund_numeraire_leaves_no_account_and_no_event():
    market = Market()
    before = (dict(market.registry.accounts), list(market.registry.events))
    with pytest.raises(Overflow):
        market.fund_numeraire("new", -1)
    assert (dict(market.registry.accounts), list(market.registry.events)) == before
    assert market.numeraire_minted == 0
    market.fund_numeraire("new", 5)  # the name is free, and a funded account is created
    assert market.registry.balance_of(market.numeraire, "new") == 5


def test_redeem_zero_fee_returns_basket():
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 100, "land": 1000, "carbon": 100})
    market.composites.mint_composite(cid, "ap", 1)
    receipt = market.composites.redeem_composite(cid, "ap", 1)
    assert receipt.basket_out == [("energy", 100), ("land", 1000), ("carbon", 100)]


def test_redeem_fee_10bps_q10():
    market, cid = make_solar_market(redeem_fee_bps=10)
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    market.composites.mint_composite(cid, "ap", 10)
    receipt = market.composites.redeem_composite(cid, "ap", 10)
    expected = [(e, exact_payout(a, 10, 10)) for e, a in SOLAR_COMPOSITION]
    assert receipt.basket_out == expected == [("energy", 999), ("land", 9990),
                                              ("carbon", 999)]


def test_round_trip_identity_zero_fees():
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    before = market.registry.state_hash()
    market.composites.mint_composite(cid, "ap", 37)
    market.composites.redeem_composite(cid, "ap", 37)
    assert market.registry.state_hash() == before


def test_quotes_match_both_ways_zero_fee():
    market, cid = make_solar_market()
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    market.composites.mint_composite(cid, "ap", 5)  # supply > 0 for redemption quote
    assert market.composites.required_deposit(cid, 1) == \
        [("energy", 100), ("land", 1000), ("carbon", 100)]
    assert market.composites.redemption_value(cid, 1) == \
        [("energy", 100), ("land", 1000), ("carbon", 100)]


def test_quote_linearity_zero_fee():
    market, cid = make_solar_market()
    one = dict(market.composites.required_deposit(cid, 7))
    two = dict(market.composites.required_deposit(cid, 14))
    assert all(two[e] == 2 * one[e] for e in one)


def test_fee_makes_deposit_exceed_redemption():
    market, cid = make_solar_market(mint_fee_bps=25, redeem_fee_bps=25)
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    market.composites.mint_composite(cid, "ap", 3)
    dep = dict(market.composites.required_deposit(cid, 3))
    red = dict(market.composites.redemption_value(cid, 3))
    assert all(dep[e] >= red[e] for e in dep)


def test_scaling_subadditivity_rounding_bound():
    market, cid = make_solar_market(composite_decimals=2)
    for q1, q2 in [(1, 1), (7, 13), (99, 101), (50, 250)]:
        split = {}
        for q in (q1, q2):
            for e, v in market.composites.required_deposit(cid, q):
                split[e] = split.get(e, 0) + v
        joint = dict(market.composites.required_deposit(cid, q1 + q2))
        for e in joint:
            assert 0 <= split[e] - joint[e] <= 1


def test_fees_route_to_fee_sink_not_escrow():
    market, cid = make_solar_market(mint_fee_bps=100, redeem_fee_bps=100)
    asset = market.composites.get(cid)
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    market.composites.mint_composite(cid, "ap", 10)
    reg = market.registry
    s = reg.total_supply(cid)
    for e, a in SOLAR_COMPOSITION:
        assert reg.balance_of(e, asset.escrow) == a * s
        assert reg.balance_of(e, asset.fee_sink) == exact_fee(a, 10, 100)


@pytest.mark.parametrize("element", ["energy", "carbon"])  # the basket's first and last
@pytest.mark.parametrize("side", ["under", "over"])
def test_a_one_unit_escrow_corruption_fails_the_next_mint_and_redeem(side, element):
    market, cid = make_solar_market(mint_fee_bps=100, redeem_fee_bps=100)
    escrow = market.composites.get(cid).escrow
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    market.composites.mint_composite(cid, "ap", 10)
    # an unchecked double-entry write, as a bug that bypasses the ledger would make:
    # every sum stays right, the escrow is one unit off its exact backing
    reg = market.registry
    frm, to = (escrow, "ap") if side == "under" else ("ap", escrow)
    reg._write(reg._balances[element], frm, to, 1)
    for op in (market.composites.mint_composite, market.composites.redeem_composite):
        with pytest.raises(InvariantViolation, match=f"^full backing broken for {cid}$"):
            op(cid, "ap", 3)


def _ledger_state(reg):
    return (list(reg.events), reg.state_hash(),
            [dict(reg.balances(e)) for e, _ in SOLAR_COMPOSITION])


# "bp" can pay for a few units only, and "nobody" has no account
@given(rows=st.lists(st.tuples(st.sampled_from(["ap", "ap", "bp", "nobody"]),
                               st.one_of(st.integers(1, 8), st.integers(0, 400))), max_size=6),
       mint_fee=st.integers(0, 200), decimals=st.integers(0, 3),
       pause=st.sampled_from([False, False, False, True]))
@settings(max_examples=examples(150), deadline=None)
def test_mint_composites_matches_a_loop_of_one_row_mints(rows, mint_fee, decimals, pause):
    markets = [make_solar_market(mint_fee, composite_decimals=decimals)[0] for _ in range(2)]
    for market in markets:
        grant_elements(market, "ap", {"energy": 10 ** 9, "land": 10 ** 10, "carbon": 10 ** 9})
        grant_elements(market, "bp", {"energy": 500, "land": 5000, "carbon": 500})
        market.composites.mint_composite("W_SOLAR", "ap", 3)  # a batch starts at any supply
        if pause:
            market.registry.set_paused("land", True)
    batched, looped = markets
    error, receipts = None, []
    try:
        if any(q == 0 for _, q in rows):  # every row's moves are built before any leg
            raise ZeroQuantity("W_SOLAR")
        for caller, q in rows:
            receipts.append(looped.composites.mint_composite("W_SOLAR", caller, q))
    except EngineError as exc:
        error = exc
    reg = batched.registry
    before = _ledger_state(reg)
    if error is None:
        moves = batched.composites.mint_composites("W_SOLAR", rows)
        assert [MintReceipt.of("W_SOLAR", q, m) for (_, q), m in zip(rows, moves)] == receipts
        assert _ledger_state(reg) == _ledger_state(looped.registry)
    else:  # the failing row's own error, and nothing written
        with pytest.raises(type(error)) as raised:
            batched.composites.mint_composites("W_SOLAR", rows)
        assert str(raised.value) == str(error)
        assert getattr(raised.value, "shortfall", None) == getattr(error, "shortfall", None)
        assert _ledger_state(reg) == before
    batched.audit()


def test_a_deposit_one_unit_short_on_a_middle_row_fails_the_batch_backing_check(monkeypatch):
    market, cid = make_solar_market(mint_fee_bps=10)
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    rows = [("ap", q) for q in (5, 7, 11, 13, 17)]
    moves_of, built = CompositeEngine._mint_moves, []

    def short_on_the_middle_row(engine, asset, s, q):
        (element, deposit, fee), *rest = moves_of(engine, asset, s, q)
        built.append(q)
        return [(element, deposit - (len(built) == 3), fee), *rest]

    monkeypatch.setattr(CompositeEngine, "_mint_moves", short_on_the_middle_row)
    with pytest.raises(InvariantViolation, match=f"^full backing broken for {cid}$"):
        market.composites.mint_composites(cid, rows)
    assert built == [q for _, q in rows]  # one check, after every row was built
    monkeypatch.undo()
    market, cid = make_solar_market(mint_fee_bps=10)  # and the unmutated batch passes it
    grant_elements(market, "ap", {"energy": 10 ** 6, "land": 10 ** 7, "carbon": 10 ** 6})
    market.composites.mint_composites(cid, rows)


@given(qs=st.lists(st.integers(1, 500), min_size=1, max_size=20),
       mint_fee=st.integers(0, 200), redeem_fee=st.integers(0, 200),
       decimals=st.integers(0, 3))
@settings(max_examples=examples(150), deadline=None)
def test_full_backing_invariant_fuzz(qs, mint_fee, redeem_fee, decimals):
    market, cid = make_solar_market(mint_fee, redeem_fee, composite_decimals=decimals)
    asset = market.composites.get(cid)
    reg = market.registry
    grant_elements(market, "ap", {"energy": 10 ** 9, "land": 10 ** 10, "carbon": 10 ** 9})
    held = 0
    for i, q in enumerate(qs):
        # quotes taken before each operation match what it then moves
        if i % 3 == 2 and held > 0:
            q = min(q, held)
            quoted = market.composites.redemption_value(cid, q)
            receipt = market.composites.redeem_composite(cid, "ap", q)
            assert receipt.basket_out == quoted
            held -= q
        else:
            quoted = market.composites.required_deposit(cid, q)
            receipt = market.composites.mint_composite(cid, "ap", q)
            assert quoted == [(e, d + f) for (e, d), (_, f)
                              in zip(receipt.deposits, receipt.fees)]
            held += q
        s = reg.total_supply(cid)
        for e, a in SOLAR_COMPOSITION:
            assert reg.balance_of(e, asset.escrow) == ceil_div(a * s, asset.unit)
