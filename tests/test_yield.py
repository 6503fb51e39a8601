import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IndexModel, make_solar_market, modelled_claim, modelled_deposit
from twotier.errors import (
    NotAllowlisted,
    TokenPaused,
    UnknownAccount,
    UnknownAsset,
    UnknownToken,
    ZeroSupply,
)
from twotier.yields import INDEX_SCALE


def yield_market(holdings: dict[str, int]):
    """Solar market with composite distributed per `holdings` and a funded payer."""
    market, cid = make_solar_market()
    market.yields.register_asset(cid)
    market.registry.ensure_account("payer")
    market.fund_numeraire("payer", 10 ** 15)
    total = sum(holdings.values())
    market.registry.ensure_account("seed-holder")
    from conftest import grant_elements
    grant_elements(market, "seed-holder",
                   {"energy": total * 100, "land": total * 1000,
                    "carbon": total * 100})
    market.composites.mint_composite(cid, "seed-holder", total)
    for acct, qty in holdings.items():
        market.registry.ensure_account(acct)
        market.registry.transfer(cid, "seed-holder", acct, qty)
    # register_asset already ran in make_solar_market via Market helpers
    return market, cid


def test_even_split():
    market, cid = yield_market({"a": 50, "b": 50})
    market.yields.deposit_yield(cid, 1000, "payer")
    assert market.yields.claimable(cid, "a") == 500
    assert market.yields.claimable(cid, "b") == 500
    assert market.yields.claim(cid, "a") == 500
    assert market.yields.claim(cid, "b") == 500


def test_indivisible_deposit_keeps_dust():
    market, cid = yield_market({"a": 1, "b": 1, "c": 1})
    market.yields.deposit_yield(cid, 100, "payer")
    paid = sum(market.yields.claim(cid, acct) for acct in ("a", "b", "c"))
    assert paid == 99  # 1 unit of dust retained at index resolution
    pool = market.yields.get(cid)
    assert pool.total_deposited - pool.total_paid == 1


def test_sole_holder_gets_divisible_deposit_in_full():
    market, cid = yield_market({"a": 123})
    market.yields.deposit_yield(cid, 123 * 7, "payer")
    assert market.yields.claim(cid, "a") == 123 * 7
    # non-divisible deposits floor at index resolution: at most supply-1 dust
    market.yields.deposit_yield(cid, 777, "payer")
    assert 777 - market.yields.claim(cid, "a") <= 122


def test_claim_is_idempotent():
    market, cid = yield_market({"a": 10, "b": 30})
    market.yields.deposit_yield(cid, 100, "payer")
    first = market.yields.claim(cid, "a")
    assert first == 25
    assert market.yields.claim(cid, "a") == 0
    assert market.yields.claimable(cid, "a") == 0


def vault_and_ledger(market, cid):
    pool = market.yields.get(cid)
    return (dict(pool.accrued_scaled), pool.total_paid,
            market.yields.undistributed_scaled(cid), market.registry.state_hash(),
            list(market.registry.export_events()))


@pytest.mark.parametrize("accounts", [("a",), ("a", "b"), ("b", "nobody", "a", "a")])
def test_a_failed_claim_keeps_every_entitlement(accounts):
    market, cid = yield_market({"a": 50, "b": 50})
    market.registry.ensure_account("nobody")
    market.yields.deposit_yield(cid, 1000, "payer")
    market.registry.set_paused(market.numeraire, True)
    before = vault_and_ledger(market, cid)
    with pytest.raises(TokenPaused):
        market.yields.claim(cid, *accounts)
    assert vault_and_ledger(market, cid) == before
    market.registry.set_paused(market.numeraire, False)
    assert market.yields.claimable(cid, "a") == 500
    market.audit()
    assert market.yields.claim(cid, *accounts) == 500 * len({"a", "b"} & set(accounts))
    market.audit()


def test_a_claim_for_an_unknown_account_writes_nothing():
    market, cid = yield_market({"a": 50, "b": 50})
    market.yields.deposit_yield(cid, 1000, "payer")
    before = vault_and_ledger(market, cid)
    with pytest.raises(UnknownAccount) as raised:
        market.yields.claim(cid, "a", "typo", "b", "typo2")
    assert raised.value.args == ("typo",)  # the first unknown claimant
    assert vault_and_ledger(market, cid) == before
    with pytest.raises(UnknownAsset):  # an unknown asset is named first
        market.yields.claim("W_MOON", "typo")
    market.audit()
    assert market.yields.claim(cid, "a", "b") == 1000


def test_a_failed_register_asset_registers_nothing_and_a_retry_succeeds():
    market, cid = make_solar_market()
    reg = market.registry
    before = (reg.state_hash(), list(reg.events), dict(reg.accounts))
    with pytest.raises(UnknownToken):
        market.yields.register_asset("W_MOON")
    assert (reg.state_hash(), list(reg.events), dict(reg.accounts)) == before
    assert market.yields.pools == {}
    assert market.yields.register_asset(cid).account == f"yield:{cid}"


def test_deposit_with_zero_supply_rejected():
    market, cid = make_solar_market()
    market.yields.register_asset(cid)
    market.registry.ensure_account("payer")
    market.fund_numeraire("payer", 1000)
    with pytest.raises(ZeroSupply):
        market.yields.deposit_yield(cid, 100, "payer")


def test_transfer_checkpoints_accrual():
    # a holds through deposit 1, then sends everything to b before deposit 2
    market, cid = yield_market({"a": 100})
    market.registry.ensure_account("b")
    market.yields.deposit_yield(cid, 400, "payer")
    market.registry.transfer(cid, "a", "b", 100)
    market.yields.deposit_yield(cid, 600, "payer")
    assert market.yields.claim(cid, "a") == 400
    assert market.yields.claim(cid, "b") == 600


def test_buying_after_deposit_earns_nothing_retroactively():
    market, cid = yield_market({"a": 60, "b": 40})
    market.yields.deposit_yield(cid, 1000, "payer")
    market.registry.ensure_account("late")
    market.registry.transfer(cid, "a", "late", 60)
    assert market.yields.claimable(cid, "late") == 0
    assert market.yields.claim(cid, "a") == 600


def test_random_history_matches_replay_oracle(rng):
    accounts = ["a", "b", "c", "d"]
    market, cid = yield_market({acct: 1000 for acct in accounts})
    model = IndexModel(market.registry)  # settles each account from the ledger's log
    for _ in range(300):
        if rng.random() < 0.3:
            modelled_deposit(model, market.yields, cid, rng.randint(1, 10 ** 6), "payer")
        else:
            src, dst = rng.sample(accounts, 2)
            bal = market.registry.balance_of(cid, src)
            if bal == 0:
                continue
            market.registry.transfer(cid, src, dst, rng.randint(1, bal))
    for acct in accounts:
        assert market.yields.claimable(cid, acct) == model.claimable(cid, acct)


def test_solvency_and_exact_scaled_conservation(rng):
    accounts = [f"h{i}" for i in range(6)]
    market, cid = yield_market({acct: 500 for acct in accounts})
    pool = market.yields.get(cid)
    for step in range(2000):
        roll = rng.random()
        if roll < 0.25:
            market.yields.deposit_yield(cid, rng.randint(1, 10 ** 9), "payer")
        elif roll < 0.5:
            market.yields.claim(cid, rng.choice(accounts))
        else:
            src, dst = rng.sample(accounts, 2)
            bal = market.registry.balance_of(cid, src)
            if bal:
                market.registry.transfer(cid, src, dst, rng.randint(1, bal))
        held = market.registry.balance_of(market.numeraire, pool.account)
        # vault always holds what it owes, and the scaled books balance exactly
        assert held == pool.total_deposited - pool.total_paid
        assert (market.yields.undistributed_scaled(cid)
                == held * INDEX_SCALE)
    # drain: after everyone claims, the residue is bounded dust
    for acct in accounts:
        market.yields.claim(cid, acct)
    residue = market.registry.balance_of(market.numeraire, pool.account)
    assert residue * INDEX_SCALE == market.yields.undistributed_scaled(cid)
    assert residue <= pool.total_deposited  # sanity
    assert market.yields.undistributed_scaled(cid) < INDEX_SCALE * 10 ** 6

CLAIMANTS = ["a", "b", "c", "d", "e"]       # "e" holds nothing
STEP = st.one_of(
    st.tuples(st.just("deposit"), st.integers(1, 10 ** 6)),
    st.tuples(st.just("move"), st.sampled_from(CLAIMANTS), st.sampled_from(CLAIMANTS),
              st.integers(0, 100)),
    st.tuples(st.just("claim"), st.lists(st.sampled_from(CLAIMANTS), max_size=6)),
    # the numeraire allowlist on, every account but one on it
    st.tuples(st.just("claim_off_list"), st.lists(st.sampled_from(CLAIMANTS), max_size=6),
              st.sampled_from(CLAIMANTS)),
)


@given(holdings=st.tuples(st.integers(1, 1000), st.integers(0, 1000), st.integers(0, 1000),
                          st.integers(0, 1000)),
       steps=st.lists(STEP, max_size=12))
@settings(deadline=None)  # max_examples from the hypothesis profile (tests/conftest.py)
def test_batched_claim_matches_sequential_claims(holdings, steps):
    markets = []
    for _ in range(2):
        market, cid = yield_market(dict(zip(CLAIMANTS, holdings)))
        market.registry.ensure_account("e")
        markets.append(market)
    batched, looped = markets
    # each market's payouts and claimables are checked against an index model of its own
    models = [IndexModel(market.registry) for market in markets]
    num = batched.numeraire
    for step in steps:
        if step[0] == "deposit":
            for market, model in zip(markets, models):
                modelled_deposit(model, market.yields, cid, step[1], "payer")
            continue
        if step[0] == "move":
            _, src, dst, pct = step
            qty = batched.registry.balance_of(cid, src) * pct // 100
            for market in markets:
                market.registry.transfer(cid, src, dst, qty)
            continue
        accounts = step[1]
        if step[0] == "claim_off_list":
            off = step[2]
            for market in markets:
                market.registry.set_allowlist_enabled(num, True)
                for account in sorted(market.registry.accounts):
                    market.registry.set_allowlist(num, account, account != off)
        if step[0] == "claim_off_list" and off in accounts and batched.yields.claimable(cid, off):
            before = vault_and_ledger(batched, cid)
            with pytest.raises(NotAllowlisted):
                batched.yields.claim(cid, *accounts)
            assert vault_and_ledger(batched, cid) == before
        else:
            paid = modelled_claim(models[0], batched.yields, cid, *accounts)
            assert paid == sum(modelled_claim(models[1], looped.yields, cid, acct)
                               for acct in accounts)
        if step[0] == "claim_off_list":
            for market in markets:
                market.registry.set_allowlist_enabled(num, False)
        assert list(batched.registry.export_events()) == list(looped.registry.export_events())
        assert batched.registry.state_hash() == looped.registry.state_hash()
        assert (batched.yields.undistributed_scaled(cid)
                == looped.yields.undistributed_scaled(cid))
        assert batched.yields.get(cid).total_paid == looped.yields.get(cid).total_paid
    batched.audit()
    looped.audit()
