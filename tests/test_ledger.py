import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotier.errors import (
    DuplicateToken,
    InsufficientBalance,
    LedgerError,
    NotAllowlisted,
    Overflow,
    TokenPaused,
    Unauthorized,
    UnknownToken,
)
from twotier.ledger import (
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


def test_mint_additivity():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    assert reg.balance_of("MWh", "alice") == 100
    assert reg.total_supply("MWh") == 100


def test_mint_wrong_authority():
    reg = fresh()
    with pytest.raises(Unauthorized):
        reg.mint("MWh", "alice", 100, "impostor")


def test_mint_paused():
    reg = fresh()
    reg.set_paused("MWh", True)
    with pytest.raises(TokenPaused):
        reg.mint("MWh", "alice", 100, MINTER)


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


def test_transfer_allowlist():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.set_allowlist_enabled("MWh", True)
    reg.set_allowlist("MWh", "alice", True)
    with pytest.raises(NotAllowlisted):
        reg.transfer("MWh", "alice", "bob", 10)
    reg.set_allowlist("MWh", "bob", True)
    reg.transfer("MWh", "alice", "bob", 10)


def test_allowlist_applies_to_mint_and_burn():
    reg = fresh()
    reg.set_allowlist_enabled("MWh", True)
    with pytest.raises(NotAllowlisted):
        reg.mint("MWh", "alice", 1, MINTER)
    reg.set_allowlist("MWh", "alice", True)
    reg.mint("MWh", "alice", 1, MINTER)
    reg.set_allowlist("MWh", "alice", False)
    with pytest.raises(NotAllowlisted):
        reg.burn("MWh", "alice", 1, MINTER)


def test_zero_transfer_is_noop_with_event():
    reg = fresh()
    n_events = len(reg.events)
    reg.transfer("MWh", "alice", "bob", 0)
    assert reg.balance_of("MWh", "bob") == 0
    assert len(reg.events) == n_events + 1
    assert reg.events[-1].op == "transfer"


def test_balance_of_examples():
    reg = fresh()
    assert reg.balance_of("MWh", "alice") == 0
    reg.mint("MWh", "alice", 100, MINTER)
    assert reg.balance_of("MWh", "alice") == 100
    reg.transfer("MWh", "alice", "bob", 30)
    assert reg.balance_of("MWh", "alice") == 70


def test_balance_listener_needs_a_known_token():
    reg, seen = fresh(), []
    with pytest.raises(UnknownToken):
        reg.add_balance_listener("kWh", seen.append)
    # the rejected listener does not fire for a token created later under that name
    reg.create_token(TokenMeta(token="kWh", kind=TokenKind.ELEMENT), authority=MINTER)
    reg.mint("kWh", "alice", 1, MINTER)
    reg.add_balance_listener("MWh", seen.append)
    reg.mint("MWh", "bob", 1, MINTER)
    assert seen == ["bob"]


def test_negative_amount_rejected():
    reg = fresh()
    with pytest.raises(Overflow):
        reg.mint("MWh", "alice", -1, MINTER)
    with pytest.raises(Overflow):
        reg.transfer("MWh", "alice", "bob", -5)


def test_pause_totality_state_unchanged():
    reg = fresh()
    reg.mint("MWh", "alice", 100, MINTER)
    reg.set_paused("MWh", True)
    before = reg.state_hash()
    for fn in (lambda: reg.mint("MWh", "alice", 1, MINTER),
               lambda: reg.burn("MWh", "alice", 1, MINTER),
               lambda: reg.transfer("MWh", "alice", "bob", 1)):
        with pytest.raises(TokenPaused):
            fn()
        assert reg.state_hash() == before


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
        op = rng.randrange(6)
        a, b = rng.choice(accounts), rng.choice(accounts)
        qty = rng.randrange(0, 50)
        try:
            if op == 0:
                reg.mint("MWh", a, qty, MINTER)
            elif op == 1:
                reg.burn("MWh", a, qty, MINTER)
            elif op == 2:
                reg.transfer("MWh", a, b, qty)
            elif op == 3:
                reg.set_paused("MWh", rng.random() < 0.2)
            elif op == 4:
                reg.set_allowlist_enabled("MWh", rng.random() < 0.3)
            else:
                reg.set_allowlist("MWh", a, rng.random() < 0.7)
        except (InsufficientBalance, TokenPaused, NotAllowlisted):
            pass
    events = [json.loads(line) for line in reg.export_events()]
    ops = {ev["op"] for ev in events}
    assert {"set_paused", "set_allowlist_enabled", "set_allowlist"} <= ops
    assert replay_events(events).state_hash() == reg.state_hash()


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1000)), max_size=60))
@settings(max_examples=200, deadline=None)
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


def _payer_registry(paused: bool, allowlisted):
    """alice and bob funded, carol empty, a listener logging accounts; `zed` is never created."""
    reg = fresh()
    reg.create_account("carol")
    reg.mint("MWh", "alice", 60, MINTER)
    reg.mint("MWh", "bob", 5, MINTER)
    seen = []
    reg.add_balance_listener("MWh", seen.append)
    if allowlisted is not None:
        reg.set_allowlist_enabled("MWh", True)
        for account in sorted(allowlisted):
            reg.set_allowlist("MWh", account, True)
    reg.set_paused("MWh", paused)
    return reg, seen


def _ledger_state(reg):
    return reg.state_hash(), reg.total_supply("MWh"), list(reg.export_events())


@given(token=st.sampled_from(["MWh", "MWh", "MWh", "kWh"]),
       frm=st.sampled_from(["alice", "alice", "bob", "zed"]),
       legs=st.lists(st.tuples(st.sampled_from(["alice", "bob", "carol", "zed"]),
                               st.one_of(st.integers(-2, 40), st.just(True))), max_size=6),
       paused=st.sampled_from([False, False, False, True]),
       allowlisted=st.none() | st.sets(st.sampled_from(["alice", "bob", "carol"])))
@settings(max_examples=300, deadline=None)
def test_transfers_matches_a_loop_of_transfer(token, frm, legs, paused, allowlisted):
    batched, seen = _payer_registry(paused, allowlisted)
    looped, seen_looped = _payer_registry(paused, allowlisted)
    before = _ledger_state(batched)
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
    else:
        # leg k fails as the k-th transfer would, and the earlier legs are undone
        with pytest.raises(type(error)) as raised:
            batched.transfers(token, frm, legs)
        assert str(raised.value) == str(error)
        assert getattr(raised.value, "shortfall", None) == getattr(error, "shortfall", None)
        assert _ledger_state(batched) == before
    assert seen == seen_looped


class Abort(Exception):
    pass


MOVE = st.tuples(st.sampled_from(["mint", "burn", "transfer"]),
                 st.sampled_from(["alice", "bob"]), st.sampled_from(["alice", "bob"]),
                 st.integers(0, 60))
# a step is a move or ("block", steps, raise at the end, caught by the enclosing block)
STEP = st.recursive(MOVE, lambda step: st.tuples(
    st.just("block"), st.lists(step, max_size=4), st.booleans(), st.booleans()),
    max_leaves=16)


def _run(reg, step, committed):
    """Apply one step; `committed` mirrors the moves that should survive."""
    if step[0] != "block":
        op, a, b, qty = step
        if op == "mint":
            reg.mint("MWh", a, qty, MINTER)
        elif op == "burn":
            reg.burn("MWh", a, qty, MINTER)
        else:
            reg.transfer("MWh", a, b, qty)
        committed.append(step)
        return
    _, steps, fail, caught = step
    mark = len(committed)
    try:
        with reg.transaction():
            for inner in steps:
                _run(reg, inner, committed)
            if fail:
                raise Abort
    except (Abort, InsufficientBalance):
        del committed[mark:]
        if not caught:
            raise


@given(st.lists(STEP, max_size=8))
@settings(max_examples=100, deadline=None)
def test_transaction_rollback_matches_replay_of_committed_moves(steps):
    reg, committed = fresh(), []
    for step in steps:
        try:
            _run(reg, step, committed)
        except (Abort, InsufficientBalance):
            pass
        ref = fresh()
        for op, a, b, qty in committed:
            _run(ref, (op, a, b, qty), [])
        replayed = replay_events(ref.events)
        assert reg.state_hash() == replayed.state_hash()
        assert list(reg.export_events()) == list(replayed.export_events())
        assert ([json.loads(line)["seq"] for line in reg.export_events()]
                == list(range(len(reg.events))))


def test_rollback_keeps_non_move_state_and_reraises():
    reg = fresh()
    reg.mint("MWh", "alice", 10, MINTER)
    n_events = len(reg.events)
    with pytest.raises(Abort):
        with reg.transaction():
            reg.transfer("MWh", "alice", "bob", 4)
            reg.create_account("carol")
            reg.set_paused("MWh", True)
            raise Abort
    assert (reg.balance_of("MWh", "alice"), reg.balance_of("MWh", "bob")) == (10, 0)
    assert "carol" in reg.accounts and reg.meta("MWh").paused   # state stays
    # and so do its events, numbered after the dropped transfer
    assert [(seq, ev.op) for seq, ev in enumerate(reg.events)][n_events:] == [
        (n_events, "create_account"), (n_events + 1, "set_paused")]


def test_rolled_back_non_move_events_still_replay():
    reg = fresh()
    with pytest.raises(Abort):
        with reg.transaction():
            reg.mint("MWh", "alice", 3, MINTER)
            reg.create_account("b")
            raise Abort
    reg.mint("MWh", "b", 5, MINTER)
    assert replay_events(reg.events).state_hash() == reg.state_hash()
    assert ([json.loads(line)["seq"] for line in reg.export_events()]
            == list(range(len(reg.events))))


# --- events.jsonl encoding ------------------------------------------------------

def reference_line(seq: int, ev) -> str:
    """An event's line as json.dumps renders its dict form."""
    doc = {"seq": seq, "op": ev.op, "token": ev.token, "accounts": ev.accounts, "qty": ev.qty}
    if ev.meta:
        doc["meta"] = ev.meta
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# quotes, backslashes, control and non-ASCII characters (astral and lone surrogates too)
NAME = st.text(st.one_of(st.sampled_from('"\\\n\x00é€中😀'), st.characters()),
               min_size=1, max_size=6)
IX = st.integers(0, 7)  # picks a token or account modulo how many exist
QTY = st.integers(0, 10 ** 20)
OP = st.one_of(
    st.tuples(st.sampled_from(["mint", "burn"]), IX, IX, QTY),
    st.tuples(st.just("transfer"), IX, IX, IX, QTY),
    st.tuples(st.sampled_from(["set_paused", "set_allowlist_enabled"]), IX, st.booleans()),
    st.tuples(st.just("set_allowlist"), IX, IX, st.booleans()),
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
@settings(max_examples=150, deadline=None)
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
                    except (InsufficientBalance, TokenPaused, NotAllowlisted):
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
