import gc
import json
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples
from twotier.errors import (
    DuplicateToken,
    InsufficientBalance,
    InvariantViolation,
    LedgerError,
    Overflow,
    Unauthorized,
    UnknownAccount,
    UnknownToken,
)
from twotier.ledger import (
    MAX_DECIMALS,
    AccountRole,
    Registry,
    TokenKind,
    TokenMeta,
    replay_events,
)

MINTER = "minter"


def fresh() -> Registry:
    reg = Registry()
    reg.create_token(TokenMeta(token="MWh", kind=TokenKind.ELEMENT,
                               unit_label="MWh", decimals=0), authority=MINTER)
    reg.create_account("alice")
    reg.create_account("bob")
    return reg


def test_create_token_fresh():
    reg = fresh()
    assert reg.total_supply("MWh") == 0


def test_create_token_duplicate():
    reg = fresh()
    with pytest.raises(DuplicateToken):
        reg.create_token(TokenMeta(token="MWh", kind=TokenKind.ELEMENT), authority=MINTER)


def test_create_composite_kind():
    reg = fresh()
    reg.create_token(TokenMeta(token="W_Solar", kind=TokenKind.COMPOSITE), authority="x")
    assert reg.meta("W_Solar").kind == TokenKind.COMPOSITE
    with pytest.raises(UnknownToken):
        reg.meta("W_Wind")


def test_token_meta_flags_are_not_constructor_arguments():
    # a description is its four fields, and a token has no flags
    for flag in ({"paused": True}, {"allowlist_enabled": True}, {"allowlist": {"alice"}}):
        with pytest.raises(TypeError):
            TokenMeta(token="MWh", kind=TokenKind.ELEMENT, **flag)
    assert [f.name for f in fields(TokenMeta)] == ["token", "kind", "unit_label", "decimals"]


def create_kwh(reg: Registry, authority=MINTER, **fields):
    reg.create_token(TokenMeta(**{"token": "kWh", "kind": TokenKind.ELEMENT, **fields}),
                     authority=authority)


# an input of the wrong type for one event field: (the field, the call that passes it)
REFUSED = {
    "bool-decimals": ("decimals", lambda reg: create_kwh(reg, decimals=True)),
    "float-decimals": ("decimals", lambda reg: create_kwh(reg, decimals=2.0)),
    "int-unit_label": ("unit_label", lambda reg: create_kwh(reg, unit_label=7)),
    "str-kind": ("kind", lambda reg: create_kwh(reg, kind="element")),
    "int-authority": ("authority", lambda reg: create_kwh(reg, authority=7)),
    "str-role": ("role", lambda reg: reg.create_account("carol", "user")),
    # an id that the JSON export could not render, refused where it enters
    "int-account": ("account", lambda reg: reg.create_account(7)),
    "list-account": ("account", lambda reg: reg.create_account(["carol"])),
    "int-opened-account": ("account", lambda reg: reg.open_accounts(
        "MWh", [("carol", 1), (5, 1)], MINTER)),
    "int-token": ("token", lambda reg: create_kwh(reg, token=5)),
    # only a frozen description, whose fields were checked when it was built
    "tuple-meta": ("meta", lambda reg: reg.create_token(("kWh", TokenKind.ELEMENT), MINTER)),
    "subclass-meta": ("meta", lambda reg: reg.create_token(
        Described(token="kWh", kind=TokenKind.ELEMENT), MINTER)),
}


class Described(TokenMeta):
    """A TokenMeta subclass: `create_token` registers only exact descriptions."""


def ledger_state(reg: Registry):
    return (list(reg.events), dict(reg.tokens), dict(reg.accounts), reg.state_hash())


@pytest.mark.parametrize("case", REFUSED)
def test_a_field_of_the_wrong_type_is_refused_before_anything_is_written(case):
    name, call = REFUSED[case]
    reg = fresh()
    before = ledger_state(reg)
    with pytest.raises(ValueError, match=f"^{name} ") as raised:
        call(reg)
    assert type(raised.value) is ValueError
    assert ledger_state(reg) == before


def test_each_registry_keeps_its_own_books_of_a_shared_description():
    meta = TokenMeta(token="kWh", kind=TokenKind.ELEMENT, unit_label="kWh", decimals=3)
    first, second = Registry(), Registry()
    for reg in (first, second):
        reg.create_token(meta, MINTER)
        reg.create_account("alice")
        reg.create_account("bob")
        assert reg.meta("kWh") is meta  # the description itself, which holds no state
    second.mint("kWh", "bob", 5, MINTER)
    first.mint("kWh", "alice", 2, MINTER)
    assert dict(first.balances("kWh")) == {"alice": 2} and first.total_supply("kWh") == 2
    assert dict(second.balances("kWh")) == {"bob": 5} and second.total_supply("kWh") == 5
    for reg in (first, second):
        assert replay_events(reg.events).state_hash() == reg.state_hash()


def test_a_description_changed_after_create_token_changes_nothing_in_the_registry():
    # a description is frozen, so `meta()`, the caller's own description, changes no token
    reg = Registry()
    reg.create_token(TokenMeta(token="kWh", kind=TokenKind.ELEMENT), MINTER)
    reg.create_account("alice")
    before = ledger_state(reg)
    changes = {"token": "MWh", "kind": TokenKind.COMPOSITE, "unit_label": "Wh", "decimals": 3}
    for name, value in changes.items():
        with pytest.raises(FrozenInstanceError):
            setattr(reg.meta("kWh"), name, value)
    assert ledger_state(reg) == before
    reg.mint("kWh", "alice", 5, MINTER)
    assert replay_events(reg.events).state_hash() == reg.state_hash()


def test_mint_additivity():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    assert reg.balance_of("MWh", "alice") == 100
    assert reg.total_supply("MWh") == 100


def test_mint_wrong_authority():
    reg = fresh()
    with pytest.raises(Unauthorized):
        reg.mint("MWh", "alice", 100, "impostor")


def test_burn_additivity():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.burn("MWh", "alice", 50, MINTER)
    assert reg.total_supply("MWh") == 50


def test_burn_insufficient():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    with pytest.raises(InsufficientBalance):
        reg.burn("MWh", "alice", 101, MINTER)


def test_burn_then_mint_inverse():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.burn("MWh", "alice", 40, MINTER)
    reg.mint("MWh", "alice", 40, MINTER)
    assert reg.total_supply("MWh") == 100


def test_transfer_conserves_supply():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.transfer("MWh", "alice", "bob", 10)
    assert reg.balance_of("MWh", "alice") == 90
    assert reg.balance_of("MWh", "bob") == 10
    assert reg.total_supply("MWh") == 100


def test_zero_transfer_is_noop_with_event():
    reg = fresh()
    n_events = len(reg.events)
    reg.transfer("MWh", "alice", "bob", 0)
    assert reg.balance_of("MWh", "bob") == 0
    assert len(reg.events) == n_events + 1
    assert reg.events[-1][0] == "transfer"


def test_balance_of_examples():
    reg = fresh()
    assert reg.balance_of("MWh", "alice") == 0
    reg.mint("MWh", "alice", 100, MINTER)
    assert reg.balance_of("MWh", "alice") == 100
    reg.transfer("MWh", "alice", "bob", 30)
    assert reg.balance_of("MWh", "alice") == 70


def test_negative_amount_rejected():
    reg = fresh()
    with pytest.raises(Overflow):
        reg.mint("MWh", "alice", -1, MINTER)
    with pytest.raises(Overflow):
        reg.transfer("MWh", "alice", "bob", -5)


def test_failed_op_leaves_no_partial_state():
    reg = fresh()
    reg.mint("MWh", "alice", 5, MINTER)
    before = reg.state_hash()
    with pytest.raises(InsufficientBalance):
        reg.transfer("MWh", "alice", "bob", 6)
    assert reg.state_hash() == before


def test_event_log_replay_reproduces_state(rng):
    reg = fresh()
    reg.create_account("carol")
    accounts = ["alice", "bob", "carol"]
    for _ in range(300):
        op = rng.randrange(3)
        a, b = rng.choice(accounts), rng.choice(accounts)
        qty = rng.randrange(0, 50)
        try:
            if op == 0:
                reg.mint("MWh", a, qty, MINTER)
            elif op == 1:
                reg.burn("MWh", a, qty, MINTER)
            else:
                reg.transfer("MWh", a, b, qty)
        except InsufficientBalance:
            pass
    events = [json.loads(line) for line in reg.export_events()]
    assert {"mint", "burn", "transfer"} <= {ev["op"] for ev in events}
    assert replay_events(events).state_hash() == reg.state_hash()


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1000)), max_size=60))
@settings(max_examples=examples(200), deadline=None)
def test_conservation_property(ops):
    reg = fresh()
    for kind, qty in ops:
        try:
            if kind == 0:
                reg.mint("MWh", "alice", qty, MINTER)
            elif kind == 1:
                reg.burn("MWh", "alice", qty, MINTER)
            else:
                reg.transfer("MWh", "alice", "bob", qty)
        except InsufficientBalance:
            pass
        total = reg.balance_of("MWh", "alice") + reg.balance_of("MWh", "bob")
        assert total == reg.total_supply("MWh")


def _payer_registry(alice: int = 60):
    """alice (`alice` units) and bob funded, carol empty; `zed` is never created."""
    reg = fresh()
    reg.create_account("carol")
    reg.mint("MWh", "alice", alice, MINTER)
    reg.mint("MWh", "bob", 5, MINTER)
    return reg


def _ledger_state(reg):
    return reg.state_hash(), reg.total_supply("MWh"), list(reg.export_events())


@given(token=st.sampled_from(["MWh", "MWh", "MWh", "kWh"]),
       frm=st.sampled_from(["alice", "alice", "bob", "zed"]),
       legs=st.lists(st.tuples(st.sampled_from(["alice", "bob", "carol", "zed"]),
                               st.one_of(st.integers(-2, 40), st.just(True))), max_size=6),
       alice=st.sampled_from([60, 60, 10 ** 6]))
# a batch the batched branch writes: legs to the payer itself, repeated payees, zero amounts
@example(token="MWh", frm="alice", legs=[("bob", 0), ("alice", 40), ("bob", 7), ("carol", 0),
                                         ("bob", 3), ("alice", 1)], alice=10 ** 6)
@settings(max_examples=examples(300), deadline=None)
def test_transfers_matches_a_loop_of_transfer(token, frm, legs, alice):
    _check_transfers_against_a_loop(token, frm, legs, alice)


# Batches aimed at the batched branch: two or more legs, mostly known
# accounts and valid amounts, and a failed check in a share of them.
@given(frm=st.sampled_from(["alice", "alice", "bob", "zed"]),
       legs=st.lists(st.tuples(st.sampled_from(["alice", "bob", "carol", "carol", "zed"]),
                               st.one_of(st.integers(0, 40), st.integers(0, 40),
                                         st.sampled_from([0, -1, True]))),
                     min_size=2, max_size=6),
       alice=st.sampled_from([60, 10 ** 6]))
@settings(max_examples=examples(300), deadline=None)
def test_unlistened_batches_match_a_loop_of_transfer(frm, legs, alice):
    _check_transfers_against_a_loop("MWh", frm, legs, alice)


@pytest.mark.parametrize("frm,legs", [
    ("bob", [("carol", 3), ("carol", 3)]),      # sum over the balance
    ("alice", [("alice", 50), ("bob", 50)]),    # the same, but each leg passes
    ("alice", [("bob", 1), ("carol", -1)]),     # a negative amount
    ("alice", [("bob", 1), ("carol", True)]),   # an amount that is no int
    ("zed", [("bob", 0), ("carol", 0)]),        # unknown payer
    ("alice", [("bob", 1), ("zed", 1)]),        # unknown payee
], ids=["sum-over-balance", "each-leg-passes", "negative", "not-an-int", "unknown-payer",
        "unknown-payee"])
def test_a_batch_that_one_check_refuses_matches_a_loop_of_transfer(frm, legs):
    _check_transfers_against_a_loop("MWh", frm, legs, 60)


# a call with a None account, which `settle` would take for the supply
NONE_ACCOUNT = {
    "transfer-from-None": lambda reg: reg.transfer("MWh", None, "alice", 5),
    "transfer-to-None": lambda reg: reg.transfer("MWh", "alice", None, 5),
    "transfers-from-None": lambda reg: reg.transfers("MWh", None, [("bob", 5)]),
    "batch-from-None": lambda reg: reg.transfers("MWh", None, [("bob", 5), ("carol", 5)]),
    "batch-to-None": lambda reg: reg.transfers("MWh", "alice", [("bob", 5), (None, 5)]),
    # refused for the account before its amount, unlike a leg of `settle`
    "transfer-from-None-negative": lambda reg: reg.transfer("MWh", None, "alice", -1),
}


@pytest.mark.parametrize("case", NONE_ACCOUNT)
def test_a_none_account_in_a_transfer_is_refused_as_unknown(case):
    reg = _payer_registry()
    before = _ledger_state(reg)
    with pytest.raises(UnknownAccount):
        NONE_ACCOUNT[case](reg)
    assert _ledger_state(reg) == before


def _check_transfers_against_a_loop(token, frm, legs, alice):
    """`transfers` of `legs` writes, logs and raises what a loop of `transfer` does."""
    batched = _payer_registry(alice)
    looped = _payer_registry(alice)
    before = _ledger_state(batched)
    book_before = dict(batched.balances("MWh"))
    error = None
    for to, qty in legs:
        try:
            looped.transfer(token, frm, to, qty)
        except LedgerError as exc:
            error = exc
            break
    if error is None:
        batched.transfers(token, frm, legs)
        assert _ledger_state(batched) == _ledger_state(looped)
        assert dict(batched.balances("MWh")) == dict(looped.balances("MWh"))
        assert sorted(batched.holders("MWh")) == sorted(looped.holders("MWh"))
    else:
        # leg k fails as the k-th transfer would, and the earlier legs are undone
        with pytest.raises(type(error)) as raised:
            batched.transfers(token, frm, legs)
        assert str(raised.value) == str(error)
        assert getattr(raised.value, "shortfall", None) == getattr(error, "shortfall", None)
        assert _ledger_state(batched) == before
        # the same book: no entry is left for a payee the refused call credited
        assert dict(batched.balances("MWh")) == book_before


def test_a_checked_batch_shares_its_account_tuples():
    legs = [("bob", 7), ("carol", 0), ("bob", 3), ("alice", 2)]
    batched = _payer_registry()
    batched.transfers("MWh", "alice", legs)
    one, _, two, own = (accounts for _, _, accounts, _, _ in batched.events[-4:])
    assert one is two and one == ("alice", "bob") and own == ("alice", "alice")
    batched.transfers("MWh", "alice", legs)  # a later batch reuses the pair's tuple
    assert batched.events[-4][2] is one
    # a one-leg call takes the per-leg path, which logs its own tuple
    looped = _payer_registry()
    for to, qty in legs:
        looped.transfer("MWh", "alice", to, qty)
    assert looped.events[-4][2] is not looped.events[-2][2]
    assert looped.events == batched.events[:len(looped.events)]
    # a malformed leg raises before anything is written
    state = _ledger_state(batched)
    with pytest.raises(ValueError):
        batched.transfers("MWh", "alice", [("bob", 1), ("carol", 2, 3)])
    assert _ledger_state(batched) == state


def test_a_wide_batch_leaves_no_tuple_iterator_for_the_collector():
    # transposing the legs with zip(*legs) makes one tracked iterator per leg, all alive
    # until it ends, and the collections a 10k-leg batch runs promote them
    reg = fresh()
    payees = [f"payee{i:05d}" for i in range(10_000)]
    reg.open_accounts("MWh", [(payee, 0) for payee in payees], MINTER)
    reg.mint("MWh", "alice", len(payees), MINTER)
    tuple_iterator = type(iter(()))
    older = [o for o in gc.get_objects() if type(o) is tuple_iterator]  # kept alive: ids hold
    known = set(map(id, older))
    found = []  # per collection during the call: the new iterators in the generations it collects

    def count(phase, info):
        if phase == "start":
            found.append(sum(type(o) is tuple_iterator and id(o) not in known
                             for generation in range(info["generation"] + 1)
                             for o in gc.get_objects(generation)))

    gc.callbacks.append(count)
    try:
        reg.transfers("MWh", "alice", [(payee, 1) for payee in payees])
    finally:
        gc.callbacks.remove(count)
    assert found, "no collection ran during the batch"
    assert max(found) == 0
    assert reg.balance_of("MWh", "alice") == 0 and reg.balance_of("MWh", payees[-1]) == 1


# --- settle: one call per engine operation -------------------------------------

SETTLE_TOKENS = ("MWh", "kWh", "NUM", "W", "lp")


def _settle_registry(fault):
    """alice, pool and escrow hold every token but lp, alice and carol hold lp, sink
    holds nothing; `zed` is never created. `fault` is None or (token, account), whose
    whole balance of token is then burned, so a leg it pays falls short."""
    reg = Registry()
    for token in SETTLE_TOKENS:
        kind = TokenKind.COMPOSITE if token == "W" else TokenKind.ELEMENT
        reg.create_token(TokenMeta(token=token, kind=kind), authority=MINTER)
    for account in ("alice", "carol", "pool", "escrow", "sink"):
        reg.create_account(account)
    for token in ("MWh", "kWh", "NUM", "W"):
        for account, qty in (("alice", 50), ("pool", 30), ("escrow", 30)):
            reg.mint(token, account, qty, MINTER)
    reg.mint("lp", "alice", 20, MINTER)
    reg.mint("lp", "carol", 20, MINTER)
    if fault is not None:
        token, account = fault
        reg.burn(token, account, reg.balance_of(token, account), MINTER)
    return reg


def _engine_legs(op: str, base: str, who: str, q) -> list[tuple]:
    """The legs each engine operation settles: a swap and the pool's liquidity calls on
    `base` against NUM, and a composite W of MWh and kWh minted or redeemed with fees."""
    if op == "swap":
        return [(base, who, "pool", q[0]), ("NUM", "pool", who, q[1])]
    if op == "add_liquidity":
        return [(base, who, "pool", q[0]), ("NUM", who, "pool", q[1]), ("lp", None, who, q[2])]
    if op == "remove_liquidity":
        return [("lp", who, None, q[0]), (base, "pool", who, q[1]), ("NUM", "pool", who, q[2])]
    if op == "mint_composite":
        return [("MWh", who, "escrow", q[0]), ("MWh", who, "sink", q[1]),
                ("kWh", who, "escrow", q[2]), ("kWh", who, "sink", q[3]), ("W", None, who, q[4])]
    return [("W", who, None, q[0]), ("MWh", "escrow", who, q[1]), ("MWh", "escrow", "sink", q[2]),
            ("kWh", "escrow", who, q[3]), ("kWh", "escrow", "sink", q[4])]


def _books(reg):
    return {t: dict(reg.balances(t)) for t in SETTLE_TOKENS}


def _check_settle_against_calls(op, base, who, q, authority, fault):
    """One `settle` of an engine operation's legs writes, logs and raises what separate
    mint/burn/transfer calls inside one `transaction()` do, and a refused one leaves every
    book as it was, with no entry for an account it credited."""
    legs = _engine_legs(op, base, who, q)
    settled = _settle_registry(fault)
    called = _settle_registry(fault)
    books_before = _books(settled)
    error = None
    try:
        with called.transaction():
            for token, frm, to, qty in legs:
                if frm is None:
                    called.mint(token, to, qty, authority)
                elif to is None:
                    called.burn(token, frm, qty, authority)
                else:
                    called.transfer(token, frm, to, qty)
    except LedgerError as exc:
        error = exc
    if error is None:
        settled.settle(legs, authority)
    else:
        with pytest.raises(type(error)) as raised:
            settled.settle(legs, authority)
        assert str(raised.value) == str(error)
        assert getattr(raised.value, "shortfall", None) == getattr(error, "shortfall", None)
        assert _books(settled) == books_before
    assert _books(settled) == _books(called)
    assert settled.state_hash() == called.state_hash()
    assert settled.events == called.events


SETTLE_FAULT = st.one_of(
    st.none(), st.none(),
    st.tuples(st.sampled_from(SETTLE_TOKENS),
              st.sampled_from(["alice", "carol", "pool", "escrow", "sink"])))


@given(op=st.sampled_from(["swap", "add_liquidity", "remove_liquidity", "mint_composite",
                           "redeem_composite"]),
       base=st.sampled_from(["MWh", "W"]),
       who=st.sampled_from(["alice", "alice", "carol", "zed"]),
       q=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 40), st.sampled_from([-1, True])),
                  min_size=5, max_size=5),
       authority=st.sampled_from([MINTER, MINTER, "impostor"]),
       fault=SETTLE_FAULT)
@settings(max_examples=examples(300), deadline=None)
def test_settle_matches_separate_calls_in_a_transaction(op, base, who, q, authority, fault):
    _check_settle_against_calls(op, base, who, q, authority, fault)


# (op, base, who, amounts, authority, fault): refused calls whose failing leg is on a later
# token
REFUSED_LATER = {
    "swap-pool-short-of-NUM": ("swap", "MWh", "alice", [5, 31, 0, 0, 0], MINTER, None),
    # carol's new MWh entry, in the second book the call touched, must go again
    "remove-pool-emptied-of-NUM": ("remove_liquidity", "MWh", "carol", [5, 3, 2, 0, 0], MINTER,
                                   ("NUM", "pool")),
    # the transfer legs pass, and the W mint, the one leg that checks the key, fails
    "mint-W-wrong-authority": ("mint_composite", "MWh", "alice", [3, 1, 2, 1, 4], "impostor",
                               None),
    "redeem-kWh-escrow-short": ("redeem_composite", "MWh", "alice", [2, 3, 1, 31, 0], MINTER,
                                None),
}


@pytest.mark.parametrize("case", REFUSED_LATER)
def test_a_refused_settle_undoes_every_book_it_touched(case):
    _check_settle_against_calls(*REFUSED_LATER[case])


def test_a_rolled_back_block_leaves_no_entry_for_an_account_it_credited():
    reg = fresh()
    reg.mint("MWh", "alice", 5, MINTER)
    with pytest.raises(Abort):
        with reg.transaction():
            reg.create_account("g")
            reg.mint("MWh", "g", 3, MINTER)
            reg.transfer("MWh", "alice", "bob", 5)  # takes alice's entry to 0
            raise Abort
    assert "g" not in reg.accounts and dict(reg.balances("MWh")) == {"alice": 5}
    with pytest.raises(InsufficientBalance):  # bob is credited by the first leg only
        reg.settle([("MWh", "alice", "bob", 2), ("MWh", "bob", "alice", 3)])
    assert dict(reg.balances("MWh")) == {"alice": 5} and reg.holders("MWh") == ["alice"]


# --- open_accounts: genesis accounts in one checked pass --------------------------

NEW_IDS = ("carol", "dave", "erin", "ghost")  # ghost was created and credited, then rolled back


def _genesis_registry():
    """`fresh()` with alice holding 7 MWh, after a rolled-back block that created and
    credited `ghost`."""
    reg = fresh()
    reg.mint("MWh", "alice", 7, MINTER)
    with pytest.raises(Abort):
        with reg.transaction():
            reg.create_account("ghost")
            reg.mint("MWh", "ghost", 3, MINTER)
            raise Abort
    assert "ghost" not in reg.accounts and "ghost" not in reg.balances("MWh")
    return reg


def _open_by_loop(reg, token, rows, authority):
    """The reference: each row's `create_account`, then its `mint` unless qty is the int
    0, inside one `transaction()`."""
    with reg.transaction():
        for account, qty in rows:
            reg.create_account(account)
            if type(qty) is not int or qty:
                reg.mint(token, account, qty, authority)


def _counting_create_account(reg) -> list:
    """Count the registry's `create_account` calls, which only the per-row path makes."""
    calls, create_account = [], reg.create_account

    def counted(*args):
        calls.append(args)
        return create_account(*args)

    reg.create_account = counted
    return calls


def _check_open_accounts_against_a_loop(token, rows, authority):
    """`open_accounts` writes, logs, returns and raises what the reference loop does, and
    leaves the same book entries. Returns the number of `create_account` calls it made."""
    opened = _genesis_registry()
    looped = _genesis_registry()
    before = _ledger_state(opened), list(opened.accounts.items())
    calls = _counting_create_account(opened)
    error = None
    try:
        _open_by_loop(looped, token, rows, authority)
    except LedgerError as exc:
        error = exc
    if error is None:
        minted = opened.open_accounts(token, rows, authority)
        assert minted == sum(qty for _, qty in rows)
        assert type(minted) is int
        assert _ledger_state(opened) == _ledger_state(looped)
        assert list(opened.accounts.items()) == list(looped.accounts.items())
    else:
        with pytest.raises(type(error)) as raised:
            opened.open_accounts(token, rows, authority)
        assert str(raised.value) == str(error)
        assert getattr(raised.value, "shortfall", None) == getattr(error, "shortfall", None)
        assert (_ledger_state(opened), list(opened.accounts.items())) == before
    assert opened.events == looped.events
    assert dict(opened.balances("MWh")) == dict(looped.balances("MWh"))
    return len(calls)


@given(token=st.sampled_from(["MWh", "MWh", "MWh", "kWh"]),
       rows=st.lists(st.tuples(st.sampled_from(["alice", *NEW_IDS, *NEW_IDS]),
                               st.one_of(st.integers(0, 40), st.integers(0, 40),
                                         st.sampled_from([0, 0, -1, True]))), max_size=6),
       authority=st.sampled_from([MINTER, MINTER, "impostor"]))
@settings(max_examples=examples(300), deadline=None)
def test_open_accounts_matches_a_loop_of_create_account_and_mint(token, rows, authority):
    _check_open_accounts_against_a_loop(token, rows, authority)


# Batches aimed at the one-pass branch: new ids, plain amounts and the minter's key.
@given(rows=st.lists(st.tuples(st.sampled_from(NEW_IDS), st.integers(0, 40)), min_size=1,
                     max_size=4, unique_by=lambda row: row[0]))
@example(rows=[("ghost", 5), ("carol", 0), ("dave", 2)])
@settings(max_examples=examples(300), deadline=None)
def test_a_batch_that_passes_every_check_is_written_in_one_pass(rows):
    # a batch that passes every check never reaches the loop
    assert _check_open_accounts_against_a_loop("MWh", rows, MINTER) == 0


# batches the whole-batch check must leave to the per-row loop: (rows, token, authority),
# one per check
LEFT_TO_THE_LOOP = {
    "known-id": ([("carol", 1), ("alice", 1)], "MWh", MINTER),
    "repeated-id": ([("carol", 1), ("dave", 1), ("carol", 1)], "MWh", MINTER),
    "negative": ([("carol", 1), ("dave", -1)], "MWh", MINTER),
    "not-an-int": ([("carol", 1), ("dave", True)], "MWh", MINTER),
    "unknown-token": ([("carol", 1)], "kWh", MINTER),
    "wrong-authority": ([("carol", 0), ("dave", 1)], "MWh", "impostor"),
    # zero rows need no minting rights: the loop mints nothing and succeeds
    "zero-rows-wrong-authority": ([("carol", 0), ("dave", 0)], "MWh", "impostor"),
    "zero-rows-unknown-token": ([("carol", 0)], "kWh", MINTER),
}


@pytest.mark.parametrize("case", LEFT_TO_THE_LOOP)
def test_a_batch_that_one_check_refuses_matches_the_loop(case):
    rows, token, authority = LEFT_TO_THE_LOOP[case]
    assert _check_open_accounts_against_a_loop(token, rows, authority) > 0


def test_a_malformed_row_raises_before_anything_is_written():
    reg = _genesis_registry()
    state = _ledger_state(reg), list(reg.accounts.items())
    with pytest.raises(ValueError):
        reg.open_accounts("MWh", [("carol", 1), ("dave", 2, 3)], MINTER)
    assert (_ledger_state(reg), list(reg.accounts.items())) == state


def test_opened_accounts_replay_and_roll_back():
    reg = _genesis_registry()
    before = _ledger_state(reg), list(reg.accounts.items())
    with pytest.raises(Abort):
        with reg.transaction():
            reg.open_accounts("MWh", [("carol", 4), ("ghost", 0), ("dave", 9)], MINTER)
            raise Abort
    assert (_ledger_state(reg), list(reg.accounts.items())) == before
    assert reg.open_accounts("MWh", [("carol", 4), ("ghost", 0), ("dave", 9)], MINTER) == 13
    assert reg.accounts["carol"] is AccountRole.USER
    assert replay_events(reg.events).state_hash() == reg.state_hash()


class Abort(Exception):
    pass


TOKEN_ID = st.sampled_from(["MWh", "MWh", "kWh"])  # kWh exists once a step creates it
ACCOUNT_ID = st.sampled_from(["alice", "bob", "alice", "bob", "carol"])  # carol likewise
QTY_60 = st.integers(0, 60)
MOVE = st.one_of(st.tuples(st.sampled_from(["mint", "burn"]), TOKEN_ID, ACCOUNT_ID, QTY_60),
                 st.tuples(st.just("transfer"), TOKEN_ID, ACCOUNT_ID, ACCOUNT_ID, QTY_60))
ADMIN = st.one_of(
    st.tuples(st.just("create_account"), ACCOUNT_ID),
    st.tuples(st.just("create_token"), TOKEN_ID))
# a step is an op or ("block", steps, raise at the end, caught by the enclosing block)
STEP = st.recursive(MOVE | ADMIN, lambda step: st.tuples(
    st.just("block"), st.lists(step, max_size=4), st.booleans(), st.booleans()),
    max_leaves=16)


def _run(reg, step, committed):
    """Apply one step; `committed` mirrors the ops that should survive."""
    op, *args = step
    if op != "block":
        if op == "create_token":
            reg.create_token(TokenMeta(token=args[0], kind=TokenKind.ELEMENT), authority=MINTER)
        elif op in ("mint", "burn"):
            getattr(reg, op)(*args, MINTER)
        else:
            getattr(reg, op)(*args)
        committed.append(step)
        return
    steps, fail, caught = args
    mark = len(committed)
    try:
        with reg.transaction():
            for inner in steps:
                _run(reg, inner, committed)
            if fail:
                raise Abort
    except (Abort, LedgerError):
        del committed[mark:]
        if not caught:
            raise


@given(st.lists(STEP, max_size=8))
@settings(max_examples=examples(100), deadline=None)
def test_transaction_rollback_matches_replay_of_committed_moves(steps):
    reg, committed = fresh(), []
    for step in steps:
        try:
            _run(reg, step, committed)
        except (Abort, LedgerError):
            pass
        ref = fresh()
        for op in committed:
            _run(ref, op, [])
        replayed = replay_events(ref.events)
        assert reg.state_hash() == replayed.state_hash()
        assert list(reg.export_events()) == list(replayed.export_events())
        assert list(reg.accounts.items()) == list(replayed.accounts.items())
        assert list(reg.tokens.items()) == list(replayed.tokens.items())
        assert ([json.loads(line)["seq"] for line in reg.export_events()]
                == list(range(len(reg.events))))


def test_rollback_undoes_non_move_state_and_reraises():
    reg = fresh()
    reg.mint("MWh", "alice", 10, MINTER)
    before = (reg.state_hash(), list(reg.events), dict(reg.accounts), list(reg.tokens))
    with pytest.raises(Abort):
        with reg.transaction():
            reg.transfer("MWh", "alice", "bob", 4)
            reg.create_account("carol")
            reg.create_token(TokenMeta(token="kWh", kind=TokenKind.ELEMENT), authority=MINTER)
            reg.mint("kWh", "carol", 3, MINTER)
            reg.transfer("kWh", "carol", "bob", 1)
            raise Abort
    # every event of the block is gone, and with it the state it made
    assert (reg.state_hash(), list(reg.events), dict(reg.accounts), list(reg.tokens)) == before
    with pytest.raises(InsufficientBalance):  # alice holds 10 again, no more
        reg.transfer("MWh", "alice", "bob", 11)
    reg.create_account("carol")  # the names are free again
    reg.create_token(TokenMeta(token="kWh", kind=TokenKind.ELEMENT, decimals=2), authority="x")
    assert reg.total_supply("kWh") == 0 and dict(reg.balances("kWh")) == {}


def test_keyboard_interrupt_in_a_nested_transaction_undoes_the_block_and_reraises():
    reg = fresh()
    reg.mint("MWh", "alice", 10, MINTER)
    with reg.transaction():
        reg.transfer("MWh", "alice", "bob", 1)
        with pytest.raises(KeyboardInterrupt):
            with reg.transaction():
                reg.transfer("MWh", "alice", "bob", 2)
                raise KeyboardInterrupt
        assert reg.balance_of("MWh", "bob") == 1   # only the inner block was undone
    assert [qty for op, _, _, qty, _ in reg.events if op == "transfer"] == [1]
    hash_before, n_events = reg.state_hash(), len(reg.events)
    with pytest.raises(KeyboardInterrupt):
        with reg.transaction():
            reg.transfer("MWh", "alice", "bob", 3)
            with reg.transaction():
                reg.transfer("MWh", "bob", "alice", 4)
                raise KeyboardInterrupt
    assert (reg.state_hash(), len(reg.events)) == (hash_before, n_events)


def test_rolled_back_non_move_events_leave_the_log():
    reg = fresh()
    n_events = len(reg.events)
    with pytest.raises(Abort):
        with reg.transaction():
            reg.mint("MWh", "alice", 3, MINTER)
            reg.create_account("b")
            reg.create_token(TokenMeta(token="kWh", kind=TokenKind.ELEMENT), authority=MINTER)
            raise Abort
    assert len(reg.events) == n_events and "b" not in reg.accounts and "kWh" not in reg.tokens
    reg.create_account("b")  # the name is free again
    reg.mint("MWh", "b", 5, MINTER)
    assert replay_events(reg.events).state_hash() == reg.state_hash()
    assert ([json.loads(line)["seq"] for line in reg.export_events()]
            == list(range(len(reg.events))))


# --- events.jsonl encoding ------------------------------------------------------

def reference_line(seq: int, ev) -> str:
    """An event's line as json.dumps renders its dict form, the meta's pairs an object."""
    op, token, accounts, qty, meta = ev
    doc = {"seq": seq, "op": op, "token": token, "accounts": accounts, "qty": qty}
    if meta:
        doc["meta"] = dict(meta)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# quotes, backslashes, control and non-ASCII characters (astral and lone surrogates too)
NAME = st.text(st.one_of(st.sampled_from('"\\\n\x00é€中😀'), st.characters()),
               min_size=1, max_size=6)
IX = st.integers(0, 7)  # picks a token or account modulo how many exist
QTY = st.integers(0, 10 ** 20)
OP = st.one_of(
    st.tuples(st.sampled_from(["mint", "burn"]), IX, IX, QTY),
    st.tuples(st.just("transfer"), IX, IX, IX, QTY),
    st.tuples(st.just("create_account"), NAME, st.sampled_from(list(AccountRole))))
# ("block", ops, roll back)
LEDGER_STEP = st.one_of(OP, st.tuples(st.just("block"), st.lists(OP, max_size=5), st.booleans()))


def _apply(reg, op, authority):
    """Run one drawn op; its first index picks a token, the ones after it accounts."""
    kind, *args = op
    if kind == "create_account":
        reg.ensure_account(*args)
        return
    tokens, accounts = list(reg.tokens), list(reg.accounts)
    token = tokens[args[0] % len(tokens)]
    picked = [accounts[i % len(accounts)] for i in args[1:-1]]
    key = [authority[token]] if kind in ("mint", "burn") else []
    getattr(reg, kind)(token, *picked, args[-1], *key)


@given(tokens=st.lists(st.tuples(NAME, NAME, NAME, st.sampled_from(list(TokenKind)),
                                 st.integers(0, 18)),
                       min_size=1, max_size=3, unique_by=lambda t: t[0]),
       accounts=st.lists(NAME, min_size=1, max_size=4, unique=True),
       steps=st.lists(LEDGER_STEP, max_size=25))
@settings(max_examples=examples(150), deadline=None)
def test_export_matches_json_dumps_and_replays(tokens, accounts, steps):
    reg, authority = Registry(), {}
    for token, unit_label, key, kind, decimals in tokens:
        reg.create_token(TokenMeta(token=token, kind=kind, unit_label=unit_label,
                                   decimals=decimals), authority=key)
        authority[token] = key
    for account in accounts:
        reg.create_account(account)
    for step in steps:
        ops, roll_back = ([step], False) if step[0] != "block" else step[1:]
        try:
            with reg.transaction():
                for op in ops:
                    try:
                        _apply(reg, op, authority)
                    except InsufficientBalance:
                        pass
                if roll_back:
                    raise Abort
        except Abort:
            pass
    lines = list(reg.export_events())
    assert lines == [reference_line(seq, ev) for seq, ev in enumerate(reg.events)]
    replayed = replay_events([json.loads(line) for line in lines])
    assert replayed.state_hash() == reg.state_hash()
    assert list(replayed.export_events()) == lines


# per field of a create_token, values of a type the ledger refuses
WRONG = {"kind": st.sampled_from([kind.value for kind in TokenKind]),
         "unit_label": st.one_of(st.integers(), st.none()),
         "decimals": st.one_of(st.booleans(), st.floats(0, MAX_DECIMALS)),
         "authority": st.one_of(st.integers(), st.none())}
# a create_token's fields, half the time with one of them of a refused type
TOKEN_FIELDS = st.builds(
    lambda fields, wrong: {**fields, **wrong},
    st.fixed_dictionaries({"token": NAME, "kind": st.sampled_from(list(TokenKind)),
                           "unit_label": NAME, "decimals": st.integers(0, MAX_DECIMALS),
                           "authority": NAME}),
    st.one_of(st.just({}), st.sampled_from(list(WRONG)).flatmap(
        lambda key: st.fixed_dictionaries({key: WRONG[key]}))))
# each drawn role is an `AccountRole` or its value, a str the ledger refuses
ANY_ROLE = st.sampled_from([*AccountRole, *(role.value for role in AccountRole)])
CALL = st.one_of(
    st.tuples(st.just("create_token"), TOKEN_FIELDS),
    st.tuples(st.just("create_account"), NAME, ANY_ROLE),
    st.tuples(st.just("mint"), IX, IX, QTY))
META_TYPES = {"role": str, "kind": str, "decimals": int, "unit_label": str, "authority": str}


@given(st.lists(CALL, max_size=25))
@settings(max_examples=examples(150), deadline=None)
def test_every_logged_meta_value_has_its_keys_one_type_and_the_log_replays(calls):
    reg, authority = fresh(), {"MWh": MINTER}
    for call in calls:
        op, *args = call
        try:
            if op == "create_token":
                fields = dict(args[0])
                key = fields.pop("authority")
                reg.create_token(TokenMeta(**fields), authority=key)
                authority[fields["token"]] = key
            elif op == "create_account":
                reg.create_account(*args)
            else:
                _apply(reg, call, authority)
        except (ValueError, LedgerError):
            pass
    assert [type(value) for *_, meta in reg.events for _, value in meta or ()] == [
        META_TYPES[key] for *_, meta in reg.events for key, _ in meta or ()]
    lines = list(reg.export_events())
    assert lines == [reference_line(seq, ev) for seq, ev in enumerate(reg.events)]
    assert replay_events([json.loads(line) for line in lines]).state_hash() == reg.state_hash()


@pytest.mark.parametrize("field,values", [("unit_label", ([1],)), ("decimals", (-0.0, 0.0)),
                                          ("authority", ((1,), (True,)))],
                         ids=["unhashable", "signed-zeros", "equal-tuples"])
def test_meta_values_of_other_types_export_as_json_dumps_does(field, values):
    # a create_token meta value of a type its key does not hold is refused, so none is
    # logged
    reg = fresh()
    lines = list(reg.export_events())
    for value in values:
        with pytest.raises(ValueError, match=f"^{field} "):
            create_kwh(reg, **{field: value})
    assert list(reg.export_events()) == lines
    assert lines == [reference_line(seq, ev) for seq, ev in enumerate(reg.events)]


class Q(int):
    """An int subclass whose own formatting a ledger line must not pick up."""

    def __format__(self, spec):
        return "Q"

    __str__ = __repr__ = lambda self: "Q"


@pytest.mark.parametrize("op", ["mint", "transfer", "transfers", "burn"])
def test_int_subclass_amounts_are_logged_and_stored_as_plain_ints(op):
    reg = fresh()
    reg.mint("MWh", "alice", 10, MINTER)
    {"mint": lambda: reg.mint("MWh", "bob", Q(5), MINTER),
     "transfer": lambda: reg.transfer("MWh", "alice", "bob", Q(5)),
     "transfers": lambda: reg.transfers("MWh", "alice", [("bob", Q(5))]),
     "burn": lambda: reg.burn("MWh", "alice", Q(5), MINTER)}[op]()
    qty = reg.events[-1][3]
    assert type(qty) is int and qty == 5
    for account in ("alice", "bob"):
        assert type(reg.balance_of("MWh", account)) is int
    assert type(reg.total_supply("MWh")) is int
    lines = list(reg.export_events())
    assert lines == [reference_line(seq, ev) for seq, ev in enumerate(reg.events)]
    assert json.loads(lines[-1])["qty"] == 5


def parsed_log() -> list[dict]:
    """The parsed events.jsonl of a small ledger: 3 creations, 2 mints, 2 transfers."""
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.mint("MWh", "bob", 5, MINTER)
    reg.transfer("MWh", "alice", "bob", 30)
    reg.transfer("MWh", "bob", "alice", 7)
    events = [json.loads(line) for line in reg.export_events()]
    assert replay_events(events).state_hash() == reg.state_hash()
    return events


def without_transfer(events):
    first = next(i for i, ev in enumerate(events) if ev["op"] == "transfer")
    return events[:first] + events[first + 1:]


def seq_zeroed(events):
    return [dict(ev, seq=0) for ev in events]


def swapped(events):
    return events[:3] + [events[4], events[3]] + events[5:]


@pytest.mark.parametrize("edit,index", [(without_transfer, 5), (seq_zeroed, 1), (swapped, 3)])
def test_replay_rejects_a_log_with_a_line_missing_or_out_of_order(edit, index):
    with pytest.raises(ValueError, match=f"^event {index}: seq "):
        replay_events(edit(parsed_log()))


def small_log() -> list[str]:
    """The events.jsonl lines of: create_token MWh, create_account alice and bob,
    a mint, a transfer."""
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.transfer("MWh", "alice", "bob", 30)
    return list(reg.export_events())


# (line index, text in that line, its replacement)
MALFORMED = {
    "create_account-without-meta": (1, '"meta":{"role":"user"},', ""),
    "no-role": (1, '"role":"user"', ""),
    "no-authority": (0, '"authority":"minter",', ""),
    "no-unit_label": (0, ',"unit_label":"MWh"', ""),
    "no-op": (3, '"op":"mint",', ""),
    "str-decimals": (0, '"decimals":0', '"decimals":"x"'),
    "bool-decimals": (0, '"decimals":0', '"decimals":true'),
    "out-of-range-decimals": (0, '"decimals":0', '"decimals":19'),
    "no-accounts": (2, '"accounts":["bob"]', '"accounts":[]'),
    "unknown-role": (1, '"role":"user"', '"role":"bogus"'),
    "int-account": (4, '"accounts":["alice","bob"]', '"accounts":["alice",7]'),
    "list-meta": (1, '"meta":{"role":"user"}', '"meta":[["role","user"]]'),
    "list-line": (4, '{"accounts":["alice","bob"],"op":"transfer","qty":30,"seq":4,"token":"MWh"}',
                  '["transfer","MWh",["alice","bob"],30,null]'),
    # a field the op does not read, which its replay would log otherwise
    "accounts-on-mint": (3, '"accounts":["alice"]', '"accounts":["alice","bob"]'),
    "qty-on-create_account": (1, '"qty":0', '"qty":99'),
    "token-on-create_account": (1, '"token":""', '"token":"X"'),
    "accounts-on-create_account": (1, '"accounts":["alice"]', '"accounts":["alice","b"]'),
    "qty-on-create_token": (0, '"qty":0', '"qty":7'),
    "accounts-on-create_token": (0, '"accounts":[]', '"accounts":["z"]'),
    # equal as a value, of another type
    "bool-qty-on-create_account": (1, '"qty":0', '"qty":false'),
    "float-qty-on-create_token": (0, '"qty":0', '"qty":0.0'),
    "empty-meta-on-mint": (3, '"op":"mint"', '"meta":{},"op":"mint"'),
    # a seq equal to the index as a value, of another type, and a field no event has
    "bool-seq": (1, '"seq":1,', '"seq":true,'),
    "float-seq": (2, '"seq":2,', '"seq":2.0,'),
    "extra-field": (3, '"op":"mint"', '"extra":1,"op":"mint"'),
}


def replay_edited(index: int, old: str, new: str) -> Registry:
    lines = small_log()
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new)
    return replay_events([json.loads(line) for line in lines])


@pytest.mark.parametrize("case", MALFORMED)
def test_replay_rejects_a_malformed_line_naming_its_event(case):
    index, old, new = MALFORMED[case]
    replay_edited(index, old, old)  # the unedited log replays
    with pytest.raises(ValueError, match=f"^event {index}: ") as raised:
        replay_edited(index, old, new)
    assert type(raised.value) is ValueError


# a line of each op the ledger no longer has, as its log wrote it
RETIRED_OPS = {
    "set_paused": '{"accounts":[],"meta":{"flag":true},"op":"set_paused","qty":0,"seq":5,'
                  '"token":"MWh"}',
    "set_allowlist_enabled": '{"accounts":[],"meta":{"flag":true},'
                             '"op":"set_allowlist_enabled","qty":0,"seq":5,"token":"MWh"}',
    "set_allowlist": '{"accounts":["bob"],"meta":{"flag":false},"op":"set_allowlist","qty":0,'
                     '"seq":5,"token":"MWh"}',
}


def test_replay_rejects_an_unknown_op_naming_its_event():
    with pytest.raises(ValueError, match="^event 4: unknown event op 'teleport'$") as raised:
        replay_edited(4, '"op":"transfer"', '"op":"teleport"')
    assert type(raised.value) is ValueError
    for op, line in RETIRED_OPS.items():
        lines = [*small_log(), line]
        with pytest.raises(ValueError, match=f"^event 5: unknown event op '{op}'$") as raised:
            replay_events([json.loads(line) for line in lines])
        assert type(raised.value) is ValueError


def test_replay_keeps_the_error_of_a_well_formed_op_the_ledger_refuses():
    with pytest.raises(InsufficientBalance):
        replay_edited(4, '"qty":30', '"qty":300')


class Logged(tuple):
    """A tuple subclass: replay takes only the exact tuples a Registry logs."""


@pytest.mark.parametrize("wrong", [list, lambda ev: ev[:4], Logged],
                         ids=["list", "4-tuple", "tuple-subclass"])
def test_replay_rejects_a_live_record_that_is_not_an_exact_5_tuple(wrong):
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.transfer("MWh", "alice", "bob", 30)
    events = list(reg.events)
    assert replay_events(events).state_hash() == reg.state_hash()
    index = len(events) - 1
    events[index] = wrong(events[index])
    with pytest.raises(ValueError, match=f"^event {index}: ") as raised:
        replay_events(events)
    assert type(raised.value) is ValueError


@pytest.mark.parametrize("index,edited", [
    (1, ("create_account", "", ("alice",), False, (("role", "user"),))),  # qty 0 as a bool
    (3, ("mint", "MWh", ("alice",), 100, ())),  # an empty meta, which a mint logs as None
], ids=["bool-qty", "empty-meta"])
def test_replay_rejects_a_live_event_unlike_the_one_its_replay_logs(index, edited):
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    events = list(reg.events)
    events[index] = edited
    with pytest.raises(ValueError, match=f"^event {index}: replays as ") as raised:
        replay_events(events)
    assert type(raised.value) is ValueError


# --- the epoch-end audit -----------------------------------------------------------

def audited_registry() -> Registry:
    """Three tokens, each with a supply spread over two holders; "kWh" is the last book."""
    reg = fresh()
    for token in ("t", "kWh"):
        reg.create_token(TokenMeta(token=token, kind=TokenKind.ELEMENT), authority=MINTER)
    for token in ("MWh", "t", "kWh"):
        reg.mint(token, "alice", 7, MINTER)
        reg.mint(token, "bob", 3, MINTER)
    reg.audit()
    return reg


@pytest.mark.parametrize("token", ["MWh", "kWh"])  # the first book and the last
def test_audit_catches_a_negative_balance_offset_by_a_positive_one(token):
    reg = audited_registry()
    reg._balances[token]["bob"] -= 5    # bob -2, alice 12: the sum still matches
    reg._balances[token]["alice"] += 5
    with pytest.raises(InvariantViolation, match=f"^conservation: {token} "):
        reg.audit()


def test_audit_refuses_a_zero_entry_that_a_writer_keeps(monkeypatch):
    def keeping_zeros(reg, book, frm, to, qty):  # a writer that never deletes an entry
        if frm is None:
            book.supply += qty
        else:
            book[frm] = book.get(frm, 0) - qty
        if to is None:
            book.supply -= qty
        else:
            book[to] = book.get(to, 0) + qty

    reg = audited_registry()
    reg.transfer("kWh", "bob", "alice", 3)  # bob's whole balance
    reg.audit()
    monkeypatch.setattr(Registry, "_write", keeping_zeros)
    reg = audited_registry()
    reg.transfer("kWh", "bob", "alice", 3)
    assert reg.balances("kWh")["bob"] == 0
    with pytest.raises(InvariantViolation, match="^conservation: kWh "):
        reg.audit()


@pytest.mark.parametrize("token", ["MWh", "t", "kWh"])
def test_audit_names_the_book_whose_sum_is_off(token):
    reg = audited_registry()
    reg._balances[token]["alice"] += 1
    with pytest.raises(InvariantViolation, match=f"^conservation: {token} balances sum to 11"):
        reg.audit()
