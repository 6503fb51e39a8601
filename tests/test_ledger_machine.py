"""A state machine over the public `Registry` API with hostile arguments.

Each step is one call (accounts, tokens, `settle`, `transfers`, mint, burn,
transfer, flags, `open_accounts`) or a block of them in nested transactions
that may fail. Ids, amounts, flags, roles, authorities and token descriptions
are drawn well-formed or of a type or value the ledger refuses. After every
step the machine checks that a refused call changed nothing, that a transfer
(which takes no authority) is never refused as unauthorized, that the live
log and its parsed export replay to the same ledger and the same bytes, that
`audit()` passes, that every book holds only positive balances of existing
accounts, and that every event is an exact tuple whose meta is None or a tuple
of (key, value) pairs.
"""

import json
from dataclasses import astuple

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from twotier.errors import EngineError, Unauthorized
from twotier.ledger import AccountRole, Registry, TokenKind, TokenMeta, replay_events


class Pick:
    """The i-th (modulo their count) of the registry's accounts or tokens at call time."""

    def __init__(self, i: int):
        self.i = i

    def __repr__(self):
        return f"Pick({self.i})"


class Q(int):
    """An int subclass amount, which the ledger logs and stores as a plain int."""


RIGHT = "<the token's own authority>"  # resolved at call time


def mostly(usual, *hostile):
    """`usual` three draws in four, else one of `hostile`."""
    hostile = st.one_of(*hostile)
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: usual if ok else hostile)


NAME = st.text(st.sampled_from('ab"\\é😀:'), min_size=1, max_size=3)
# None among them, which a transfer must refuse as an unknown account, not as the supply
HOSTILE_ID = st.one_of(st.integers(-2, 2), st.none(), st.just(b"a"), st.tuples(NAME))
ID = mostly(st.builds(Pick, st.integers(0, 7)), NAME, HOSTILE_ID)
AMOUNT = mostly(st.integers(0, 50), st.integers(-3, 10 ** 20), st.builds(Q, st.integers(0, 50)),
                st.booleans(), st.floats(0, 10), st.just("5"))
FLAG = mostly(st.booleans(), st.integers(0, 1), st.floats(0, 1))
ROLE = mostly(st.sampled_from(list(AccountRole)), st.just("user"), st.none())
AUTHORITY = mostly(st.just(RIGHT), NAME, st.integers(0, 1))
TOKEN = mostly(st.builds(Pick, st.integers(0, 3)), NAME, st.integers(0, 1))
LEG = st.tuples(TOKEN, st.one_of(st.none(), ID), st.one_of(st.none(), ID), AMOUNT)
# a description's fields and, half the time, one of them replaced by a hostile value
DESCRIPTION = st.tuples(
    NAME, st.sampled_from(list(TokenKind)), NAME, st.integers(0, 18),
    st.one_of(st.just({}), st.sampled_from([
        {"decimals": True}, {"decimals": 19}, {"token": 5}, {"kind": "element"},
        {"unit_label": None}])))

CALL = st.one_of(
    st.tuples(st.just("create_token"), DESCRIPTION, st.one_of(NAME, st.integers(0, 1))),
    st.tuples(st.just("create_account"), st.one_of(NAME, HOSTILE_ID), ROLE),
    st.tuples(st.just("ensure_account"), ID),
    st.tuples(st.just("open_accounts"), TOKEN,
              st.lists(st.tuples(st.one_of(NAME, ID), AMOUNT), max_size=4), AUTHORITY),
    st.tuples(st.sampled_from(["mint", "burn"]), TOKEN, ID, AMOUNT, AUTHORITY),
    st.tuples(st.just("transfer"), TOKEN, ID, ID, AMOUNT),
    st.tuples(st.just("transfers"), TOKEN, ID, st.lists(st.tuples(ID, AMOUNT), max_size=4)),
    st.tuples(st.just("settle"), st.lists(LEG, max_size=4), AUTHORITY),
    st.tuples(st.sampled_from(["set_paused", "set_allowlist_enabled"]), TOKEN, FLAG),
    st.tuples(st.just("set_allowlist"), TOKEN, ID, FLAG))


class Abort(Exception):
    pass


def snapshot(reg: Registry):
    return (list(reg.events), {t: astuple(m) for t, m in reg.tokens.items()},
            dict(reg.accounts), reg.state_hash())  # the hash holds each token's flags


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.reg = Registry()
        self.authority: dict[str, object] = {}  # token -> the authority it was created with

    @initialize()
    def a_token_and_two_funded_accounts(self):
        self.call(("create_token", ("T", TokenKind.ELEMENT, "", 0, {}), "minter"))
        self.call(("open_accounts", Pick(0), [("a", 100), ("b", 100)], RIGHT))

    def pick(self, value, names):
        if type(value) is not Pick:
            return value
        return names[value.i % len(names)] if names else "nobody"

    def account(self, value):
        return self.pick(value, list(self.reg.accounts))

    def key(self, authority, token):
        return self.authority.get(token, "none") if authority is RIGHT else authority

    def call(self, call):
        """Make one call; a refused one must leave the ledger as it was."""
        reg, op = self.reg, call[0]
        before = snapshot(reg)
        try:
            self.make(call)
        except (EngineError, ValueError) as exc:
            event(f"{op} refused: {type(exc).__name__}")  # --hypothesis-show-statistics
            assert snapshot(reg) == before
            assert not (op.startswith("transfer") and isinstance(exc, Unauthorized))
        else:
            event(f"{op} written")

    def make(self, call):
        reg, (op, *args) = self.reg, call
        if op == "create_token":
            (token, kind, unit_label, decimals, hostile), authority = args
            reg.create_token(TokenMeta(**{"token": token, "kind": kind, "unit_label": unit_label,
                                          "decimals": decimals, **hostile}), authority)
            self.authority[token] = authority
            return
        if op in ("create_account", "ensure_account"):
            getattr(reg, op)(self.account(args[0]), *args[1:])
            return
        if op == "settle":
            legs, authority = args
            legs = [(self.pick(t, list(reg.tokens)), self.account(frm), self.account(to), q)
                    for t, frm, to, q in legs]
            reg.settle(legs, self.key(authority, legs[0][0] if legs else None))
            return
        token = self.pick(args[0], list(reg.tokens))
        if op == "open_accounts":
            rows, authority = args[1:]
            reg.open_accounts(token, [(self.account(a), q) for a, q in rows],
                              self.key(authority, token))
        elif op in ("mint", "burn"):
            account, qty, authority = args[1:]
            getattr(reg, op)(token, self.account(account), qty, self.key(authority, token))
        elif op == "transfer":
            reg.transfer(token, self.account(args[1]), self.account(args[2]), args[3])
        elif op == "transfers":
            reg.transfers(token, self.account(args[1]),
                          [(self.account(a), q) for a, q in args[2]])
        elif op == "set_allowlist":
            reg.set_allowlist(token, self.account(args[1]), args[2])
        else:
            getattr(reg, op)(token, args[1])

    @rule(call=CALL)
    def one_call(self, call):
        self.call(call)

    @rule(outer=st.lists(CALL, max_size=4), inner=st.lists(CALL, max_size=4),
          inner_fails=st.booleans(), outer_fails=st.booleans())
    def nested_transactions(self, outer, inner, inner_fails, outer_fails):
        reg = self.reg
        before = snapshot(reg)
        try:
            with reg.transaction():
                for call in outer:
                    self.call(call)
                middle = snapshot(reg)
                try:
                    with reg.transaction():
                        for call in inner:
                            self.call(call)
                        if inner_fails:
                            raise Abort
                except Abort:
                    assert snapshot(reg) == middle
                if outer_fails:
                    raise Abort
        except Abort:
            assert snapshot(reg) == before

    @invariant()
    def the_ledger_audits(self):
        self.reg.audit()

    @invariant()
    def every_book_holds_only_positive_balances_of_existing_accounts(self):
        reg = self.reg
        for token in reg.tokens:
            for account, balance in reg.balances(token).items():
                assert account in reg.accounts and balance > 0

    @invariant()
    def every_event_is_an_exact_tuple_of_untracked_fields(self):
        for ev in self.reg.events:
            assert type(ev) is tuple and len(ev) == 5
            op, token, accounts, qty, meta = ev
            assert type(op) is str and type(token) is str and type(qty) is int
            assert type(accounts) is tuple and all(type(a) is str for a in accounts)
            assert meta is None or type(meta) is tuple and meta
            for pair in meta or ():
                assert type(pair) is tuple and len(pair) == 2 and type(pair[0]) is str
                assert type(pair[1]) in (str, int, bool)

    @invariant()
    def the_live_log_and_its_export_replay_alike(self):
        reg = self.reg
        lines = list(reg.export_events())
        live, parsed = replay_events(reg.events), replay_events(list(map(json.loads, lines)))
        assert live.state_hash() == parsed.state_hash() == reg.state_hash()
        assert list(parsed.export_events()) == list(live.export_events()) == lines


LedgerMachine.TestCase.settings = settings(stateful_step_count=12, deadline=None)
TestLedgerMachine = LedgerMachine.TestCase
