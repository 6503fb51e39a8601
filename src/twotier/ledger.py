"""Authoritative token ledger: balances, supplies, mint/burn controls.

All quantities are non-negative integers at each token's own decimal scale.
No floating point enters this module. Every write validates its preconditions
fully before touching state, and a multi-leg write undoes its earlier legs when
a later one fails, so a raised error never leaves a partial write behind.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    DuplicateAccount,
    DuplicateToken,
    InsufficientBalance,
    InvariantViolation,
    NotAllowlisted,
    Overflow,
    TokenPaused,
    Unauthorized,
    UnknownAccount,
    UnknownToken,
)


class TokenKind(str, Enum):
    ELEMENT = "element"
    COMPOSITE = "composite"
    NUMERAIRE = "numeraire"
    LP_SHARE = "lp_share"


class AccountRole(str, Enum):
    USER = "user"
    ESCROW_RESERVE = "escrow_reserve"
    FEE_SINK = "fee_sink"
    YIELD_POOL = "yield_pool"
    ISSUER = "issuer"


MAX_DECIMALS = 18
BPS = 10_000  # basis points per whole


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def check_amount(qty) -> int:
    """Validate a ledger quantity: a plain non-negative int."""
    if isinstance(qty, bool) or not isinstance(qty, int):
        raise Overflow(f"amount must be an int, got {type(qty).__name__}")
    if qty < 0:
        raise Overflow(f"amount must be non-negative, got {qty}")
    return qty


# move op -> (frm, to) from its logged accounts; None stands for the supply
_ENDS = {"mint": lambda acc: (None, acc[0]), "burn": lambda acc: (acc[0], None),
         "transfer": lambda acc: (acc[0], acc[1])}


class Event(NamedTuple):
    """One logged state transition. Its `seq` is its index in `Registry.events`."""
    op: str
    token: str
    accounts: list
    qty: int
    meta: dict | None = None


_new_event = tuple.__new__  # _move builds its Event without the Python-level Event.__new__

# one events.jsonl line: the keys "seq", "op", "token", "accounts", "qty" (and "meta",
# the second slot) in sorted order with compact separators, the JSON of an event's dict form
_LINE = '{"accounts":[%s],%s"op":%s,"qty":%d,"seq":%d,"token":%s}'
_json_meta = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class TokenMeta:
    token: str
    kind: TokenKind
    unit_label: str = ""
    decimals: int = 0
    paused: bool = False
    allowlist_enabled: bool = False
    allowlist: set = field(default_factory=set)

    def __post_init__(self):
        if not (0 <= self.decimals <= MAX_DECIMALS):
            raise ValueError(f"decimals out of range: {self.decimals}")


class _Book(dict):
    """One token's account -> balance map, carrying its meta, minting authority, supply
    and the fn(account) listeners that run just before any balance change."""
    __slots__ = ("meta", "authority", "supply", "listeners")

    def __init__(self, meta: TokenMeta, authority: str):
        self.meta, self.authority, self.supply, self.listeners = meta, authority, 0, []


class Registry:
    """Single-writer ledger for one simulation universe.

    Mint/burn are gated per token by a registered authority key (an opaque
    string handed out at token creation). An append-only event log records
    every state transition; replaying it from genesis reproduces the ledger
    exactly (see `replay_events`).
    """

    def __init__(self):
        self.tokens: dict[str, TokenMeta] = {}
        self.accounts: dict[str, AccountRole] = {}
        self._balances: dict[str, _Book] = {}
        self.events: list[Event] = []

    # --- accounts ---

    def create_account(self, account_id: str, role: AccountRole = AccountRole.USER) -> str:
        if account_id in self.accounts:
            raise DuplicateAccount(account_id)
        self.accounts[account_id] = role
        self._log("create_account", token="", accounts=[account_id], qty=0,
                  meta={"role": role.value})
        return account_id

    def ensure_account(self, account_id: str, role: AccountRole = AccountRole.USER) -> str:
        if account_id not in self.accounts:
            self.create_account(account_id, role)
        return account_id

    # --- token admin ---

    def create_token(self, meta: TokenMeta, authority: str) -> str:
        if meta.token in self.tokens:
            raise DuplicateToken(meta.token)
        self.tokens[meta.token] = meta
        self._balances[meta.token] = _Book(meta, authority)
        self._log("create_token", token=meta.token, accounts=[], qty=0,
                  meta={"kind": meta.kind.value, "decimals": meta.decimals,
                        "unit_label": meta.unit_label, "authority": authority})
        return meta.token

    def _book(self, token: str) -> _Book:
        try:
            return self._balances[token]
        except KeyError:
            raise UnknownToken(token) from None

    def meta(self, token: str) -> TokenMeta:
        return self._book(token).meta

    def set_paused(self, token: str, flag: bool):
        self.meta(token).paused = flag
        self._log("set_paused", token=token, accounts=[], qty=0, meta={"flag": flag})

    def set_allowlist_enabled(self, token: str, flag: bool):
        self.meta(token).allowlist_enabled = flag
        self._log("set_allowlist_enabled", token=token, accounts=[], qty=0,
                  meta={"flag": flag})

    def set_allowlist(self, token: str, account: str, flag: bool):
        meta = self.meta(token)
        if flag:
            meta.allowlist.add(account)
        else:
            meta.allowlist.discard(account)
        self._log("set_allowlist", token=token, accounts=[account], qty=0,
                  meta={"flag": flag})

    def add_balance_listener(self, token: str, fn):
        """Register fn(account) to run before any balance change of `token`."""
        self._book(token).listeners.append(fn)

    # --- queries ---

    def balance_of(self, token: str, account: str) -> int:
        return self._book(token).get(account, 0)

    def total_supply(self, token: str) -> int:
        return self._book(token).supply

    def holders(self, token: str) -> list[str]:
        return [a for a, v in self._book(token).items() if v > 0]

    def balances(self, token: str) -> Mapping[str, int]:
        """Read-only view of every balance entry of `token`, zero ones included."""
        return MappingProxyType(self._book(token))

    # --- mutations ---

    def mint(self, token: str, to: str, qty: int, authority: str):
        self._move("mint", token, None, [(to, qty)], authority)

    def burn(self, token: str, frm: str, qty: int, authority: str):
        self._move("burn", token, frm, [(None, qty)], authority)

    def transfer(self, token: str, frm: str, to: str, qty: int):
        self._move("transfer", token, frm, [(to, qty)])

    def transfers(self, token: str, frm: str, payouts: list[tuple[str, int]]):
        """Transfer each (to, qty) of `payouts` from `frm`, in order, all or none.

        Same checks, errors, events and listener calls as a loop of `transfer`;
        when a leg fails, the earlier legs are undone and the leg's error raised.
        """
        self._move("transfer", token, frm, payouts)

    def _move(self, op: str, token: str, frm: str | None, legs, authority: str | None = None):
        """The one write path: moves each (to, qty) of `legs` out of `frm`, all or none.

        `frm=None` mints and `to=None` burns. Each leg runs every check before its
        own write, in one order: amount, token, accounts, authority (mint/burn
        only), pause, allowlist, balance. A failed leg undoes the earlier ones.
        """
        events = self.events
        start = len(events)
        book = None
        try:
            for to, qty in legs:
                if type(qty) is not int or qty < 0:
                    check_amount(qty)
                if book is None:  # after the first leg's amount check, as the order says
                    book = self._book(token)
                    meta, listeners, known = book.meta, book.listeners, self.accounts
                # exact-size literals: a comprehension over-allocates every logged list
                accounts = [to] if frm is None else [frm] if to is None else [frm, to]
                for account in accounts:
                    if account not in known:
                        raise UnknownAccount(account)
                if (frm is None or to is None) and book.authority != authority:
                    raise Unauthorized(f"{authority!r} is not the minter of {token}")
                if meta.paused:
                    raise TokenPaused(token)
                if meta.allowlist_enabled:
                    for account in accounts:
                        if account not in meta.allowlist:
                            raise NotAllowlisted(f"{account} not allowlisted for {token}")
                if frm is not None:
                    bal = book.get(frm, 0)
                    if bal < qty:
                        raise InsufficientBalance(f"{op} {qty} of {token}, balance {bal}",
                                                  token=token, shortfall=qty - bal)
                if listeners:
                    for account in accounts:
                        for fn in listeners:
                            fn(account)
                self._write(book, frm, to, qty)
                events.append(_new_event(Event, (op, token, accounts, qty, None)))
        except BaseException:
            self._undo(start)
            raise

    # --- transactions ---

    @contextmanager
    def transaction(self):
        """Undo the block's moves on any exception, keeping multi-step operations atomic."""
        start = len(self.events)
        try:
            yield
        except BaseException:
            self._undo(start)
            raise

    # --- internals ---

    def _undo(self, start: int):
        """Reverse the moves logged since `start`, newest first, and drop them from the log.

        The event log is the undo journal. No balance listener runs. Other
        events (accounts, tokens, flags) keep their state, so they stay in the
        log, and the log still replays.
        """
        block = self.events[start:]
        for ev in reversed(block):
            if ev.op in _ENDS:
                frm, to = _ENDS[ev.op](ev.accounts)
                self._write(self._balances[ev.token], to, frm, ev.qty)
        self.events[start:] = [ev for ev in block if ev.op not in _ENDS]

    def _write(self, book: _Book, frm: str | None, to: str | None, qty: int):
        """Move qty of book's token from frm to to, unchecked; None on either side is the supply."""
        if frm is None:
            book.supply += qty
        else:
            book[frm] = book.get(frm, 0) - qty
        if to is None:
            book.supply -= qty
        else:
            book[to] = book.get(to, 0) + qty

    def _log(self, op: str, token: str, accounts: list, qty: int, meta: dict | None = None):
        self.events.append(Event(op, token, accounts, qty, meta))

    # --- snapshots / audit ---

    def audit(self):
        """Raise InvariantViolation unless each token's balances are >= 0 and sum to its supply."""
        for token, book in self._balances.items():
            total = sum(book.values())
            if total != book.supply or min(book.values(), default=0) < 0:
                raise InvariantViolation(f"conservation: {token} balances sum to {total}, "
                                         f"supply {book.supply}, or one is negative")

    def state_hash(self) -> str:
        """Deterministic digest of balances, supplies and token flags."""
        state = {
            "supply": {t: b.supply for t, b in self._balances.items()},
            "balances": {t: {a: v for a, v in b.items() if v} for t, b in self._balances.items()},
            "tokens": {t: [m.kind.value, m.decimals, m.paused, m.allowlist_enabled,
                           sorted(m.allowlist)]
                       for t, m in sorted(self.tokens.items())},
            "accounts": dict(sorted((a, r.value) for a, r in self.accounts.items())),
        }
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def export_events(self) -> Iterator[str]:
        """Event log as line-delimited JSON strings, yielded one at a time, keys
        sorted, `seq` the line index."""
        return (_LINE % (",".join(map(_json_str, accounts)),
                         '"meta":%s,' % _json_meta(meta) if meta else "",
                         _json_str(op), qty, seq, _json_str(token))
                for seq, (op, token, accounts, qty, meta) in enumerate(self.events))


def replay_events(events: list) -> Registry:
    """Rebuild a Registry from an event log produced by another Registry.

    Takes the live `Event` records or the dicts parsed from `events.jsonl`.
    A parsed line must carry its index as `seq`, so a log with a line
    missing, repeated or out of order is rejected. Replay applies raw state
    transitions; authority checks were already enforced when the log was
    written.
    """
    reg = Registry()
    for index, ev in enumerate(events):
        if isinstance(ev, dict):
            if ev.get("seq") != index:
                raise ValueError(f"event {index}: seq {ev.get('seq')!r}, expected {index}")
            ev = Event(ev["op"], ev["token"], ev["accounts"], ev["qty"], ev.get("meta"))
        op, token, accounts, qty, meta = ev
        meta = meta or {}
        if op == "create_account":
            reg.create_account(accounts[0], AccountRole(meta["role"]))
        elif op == "create_token":
            reg.create_token(
                TokenMeta(token=token, kind=TokenKind(meta["kind"]),
                          unit_label=meta.get("unit_label", ""),
                          decimals=meta["decimals"]),
                authority=meta["authority"])
        elif op in _ENDS:
            frm, to = _ENDS[op](accounts)
            reg._move(op, token, frm, [(to, qty)], reg._book(token).authority)
        elif op == "set_paused":
            reg.set_paused(token, meta["flag"])
        elif op == "set_allowlist_enabled":
            reg.set_allowlist_enabled(token, meta["flag"])
        elif op == "set_allowlist":
            reg.set_allowlist(token, accounts[0], meta["flag"])
        else:
            raise ValueError(f"event {index}: unknown event op {op!r}")
    return reg
