"""Authoritative token ledger: balances, supplies, mint/burn controls.

All quantities are non-negative integers at each token's own decimal scale.
No floating point enters this module. A token's book holds exactly its nonzero balances.
Every balance change is a leg of one `Registry.settle` call, which validates each leg
fully before writing it and undoes the call's earlier legs when one fails, so a raised
error never leaves a partial write behind. `transfers` and `open_accounts` write a batch
that passes every check as a whole in one pass, and leave any other batch to the per-leg
path.

`Registry.events` logs each state transition as a plain 5-tuple
`(op, token, accounts, qty, meta)`, whose `seq` is its index in the log and whose
`accounts` is a tuple of account ids (a list in `events.jsonl`). A `meta` is None
or a tuple of `(key, value)` pairs, e.g. `(("role", "user"),)` (an object in
`events.jsonl`), and every key and value is a str or int. An event is an exact
tuple, not a tuple subclass, because the cycle collector untracks only exact tuples
none of whose members it tracks: every event leaves the collector's lists once a
collection has found its accounts and meta untracked, so a full collection walks
neither the log nor the accounts it created.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from types import MappingProxyType

from .errors import (
    DuplicateAccount,
    DuplicateToken,
    InsufficientBalance,
    InvariantViolation,
    Overflow,
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
    """Validate a ledger quantity, a non-negative int, and return it as a plain int."""
    if isinstance(qty, bool) or not isinstance(qty, int):
        raise Overflow(f"amount must be an int, got {type(qty).__name__}")
    qty = int(qty)
    if qty < 0:
        raise Overflow(f"amount must be non-negative, got {qty}")
    return qty


# move op -> (frm, to) from its logged accounts; None stands for the supply
_ENDS = {"mint": lambda acc: (None, acc[0]), "burn": lambda acc: (acc[0], None),
         "transfer": lambda acc: (acc[0], acc[1])}
_ROLE_META = {role: (("role", role.value),) for role in AccountRole}  # create_account's metas
_INT_ONLY = frozenset((int,))  # the amount types a batched transfer writes unchecked
_STR_ONLY = frozenset((str,))  # the one account id type
_FIELDS = frozenset(("accounts", "meta", "op", "qty", "seq", "token"))  # of a parsed line

EXPORT_CHUNK = 1024  # events rendered per `Registry.export_chunks` list
_json_meta = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _typed(name: str, value, kind: type):
    """`value`, an event field `name` that must be exactly of type `kind`."""
    if type(value) is not kind:
        raise ValueError(f"{name} {value!r} is not {kind.__name__}")
    return value


def _pair(payer: str, payee: str) -> tuple[str, str]:
    return payer, payee


class _Memo(dict):
    """key -> the value `build(key)` makes on the key's first lookup, stored for later ones."""
    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


@dataclass(frozen=True)
class TokenMeta:
    """A token's description, fixed once constructed."""
    token: str
    kind: TokenKind
    unit_label: str = ""
    decimals: int = 0

    def __post_init__(self):
        """ValueError naming the first field of the wrong type or out of range."""
        _typed("token", self.token, str)
        _typed("kind", self.kind, TokenKind)
        _typed("unit_label", self.unit_label, str)
        if not 0 <= _typed("decimals", self.decimals, int) <= MAX_DECIMALS:
            raise ValueError(f"decimals out of range: {self.decimals}")


class _Book(dict):
    """One token's account -> nonzero balance map, carrying its minting authority and
    supply."""
    __slots__ = ("authority", "supply")

    def __init__(self, authority: str):
        self.authority, self.supply = authority, 0


class Registry:
    """Single-writer ledger for one simulation universe.

    Mint/burn are gated per token by a registered authority key (an opaque
    string handed out at token creation). An append-only event log records
    every state transition; replaying it from genesis reproduces the ledger
    exactly (see `replay_events`). Each field of a logged event has one type,
    checked where it enters and before anything is written: a str account id,
    a token's str name, `TokenKind`, int decimals and str unit label (by the
    frozen `TokenMeta`), its str authority and an account's `AccountRole`. Any other
    type is refused with a ValueError naming the field, and `meta()` returns the
    registered description.
    """

    def __init__(self):
        self.tokens: dict[str, TokenMeta] = {}
        self.accounts: dict[str, AccountRole] = {}
        self._balances: dict[str, _Book] = {}
        self.events: list[tuple] = []  # (op, token, accounts, qty, meta pairs or None) per event
        # payer -> payee -> the (payer, payee) accounts tuple its batched events share
        self._pairs: dict[str, _Memo] = {}

    # --- accounts ---

    def create_account(self, account_id: str, role: AccountRole = AccountRole.USER) -> str:
        if _typed("account", account_id, str) in self.accounts:
            raise DuplicateAccount(account_id)
        _typed("role", role, AccountRole)
        self.accounts[account_id] = role
        self._log("create_account", token="", accounts=(account_id,), qty=0,
                  meta=_ROLE_META[role])
        return account_id

    def ensure_account(self, account_id: str, role: AccountRole = AccountRole.USER) -> str:
        if account_id not in self.accounts:
            self.create_account(account_id, role)
        return account_id

    # --- token admin ---

    def create_token(self, meta: TokenMeta, authority: str) -> str:
        """Register the description `meta`, exactly a `TokenMeta`, as a new token minted
        by `authority`."""
        _typed("meta", meta, TokenMeta)
        if meta.token in self.tokens:
            raise DuplicateToken(meta.token)
        _typed("authority", authority, str)
        self.tokens[meta.token] = meta
        self._balances[meta.token] = _Book(authority)
        self._log("create_token", token=meta.token, accounts=(), qty=0,
                  meta=(("kind", meta.kind.value), ("decimals", meta.decimals),
                        ("unit_label", meta.unit_label), ("authority", authority)))
        return meta.token

    def _book(self, token: str) -> _Book:
        try:
            return self._balances[token]
        except KeyError:
            raise UnknownToken(token) from None

    def meta(self, token: str) -> TokenMeta:
        try:
            return self.tokens[token]
        except KeyError:
            raise UnknownToken(token) from None

    # --- queries ---

    def balance_of(self, token: str, account: str) -> int:
        return self._book(token).get(account, 0)

    def total_supply(self, token: str) -> int:
        return self._book(token).supply

    def holders(self, token: str) -> list[str]:
        return list(self._book(token))

    def balances(self, token: str) -> Mapping[str, int]:
        """Read-only view of every nonzero balance of `token`."""
        return MappingProxyType(self._book(token))

    # --- mutations ---

    def mint(self, token: str, to: str, qty: int, authority: str):
        self.settle(((token, None, to, qty),), authority)

    def burn(self, token: str, frm: str, qty: int, authority: str):
        self.settle(((token, frm, None, qty),), authority)

    def transfer(self, token: str, frm: str, to: str, qty: int):
        self.transfers(token, frm, [(to, qty)])

    def transfers(self, token: str, frm: str, payouts: list[tuple[str, int]]):
        """Transfer each (to, qty) of `payouts` from `frm`, in order, all or none, as one
        `settle` of the legs. A batch of two or more legs that passes every check as a
        whole is written by `_transfer_batch` instead; any other batch is refused as
        UnknownAccount when a leg has a None account (the supply to `settle`), else left
        to `settle`, which raises the failing leg's error."""
        if len(payouts) > 1 and self._transfer_batch(token, frm, payouts):
            return
        if any(frm is None or to is None for to, _ in payouts):
            raise UnknownAccount(None)
        self.settle([(token, frm, *leg) for leg in payouts])

    def settle(self, legs, authority: str | None = None):
        """The one write path: applies each (token, frm, to, qty) of `legs`, all or none.

        `frm=None` mints and `to=None` burns, under `authority`. Each leg runs its
        checks in one order (amount, token, accounts, authority for a mint or burn,
        balance), then writes and logs. A failed leg undoes the earlier ones.
        """
        events, books, known = self.events, self._balances, self.accounts
        start = len(events)
        try:
            for token, frm, to, qty in legs:
                if type(qty) is not int or qty < 0:
                    qty = check_amount(qty)
                book = books.get(token)
                if book is None:
                    raise UnknownToken(token)
                accounts, op = (((to,), "mint") if frm is None else ((frm,), "burn") if to is None
                                else ((frm, to), "transfer"))
                for account in accounts:
                    if account not in known:
                        raise UnknownAccount(account)
                if op != "transfer" and book.authority != authority:
                    raise Unauthorized(f"{authority!r} is not the minter of {token}")
                if frm is not None:
                    bal = book.get(frm, 0)
                    if bal < qty:
                        raise InsufficientBalance(f"{op} {qty} of {token}, balance {bal}",
                                                  token=token, shortfall=qty - bal)
                self._write(book, frm, to, qty)
                events.append((op, token, accounts, qty, None))
        except BaseException:
            self._undo(start)
            raise

    def _transfer_batch(self, token: str, frm, legs) -> bool:
        """Write a transfer of `legs` out of `frm` in one pass, or return False having
        changed nothing when the batch as a whole fails a check.

        The checks are the per-leg ones over the whole batch: every amount a plain int
        >= 0, a known token, `frm` and every payee known, and the sum of the amounts
        within `frm`'s balance. Each leg's own balance check would then pass, since the
        legs before it took out at most their sum, payees equal to `frm` included.
        `frm` is debited once and the payees credited in leg order, and each event's
        accounts tuple is shared per pair.
        """
        book = self._balances.get(token)
        if book is None:
            return False
        tos = [to for to, _ in legs]  # no per-leg iterator, unlike zip(*legs)
        qtys = [qty for _, qty in legs]
        known = self.accounts
        total = sum(qtys) if _INT_ONLY.issuperset(map(type, qtys)) else -1
        balance = book.get(frm, 0)
        if (total < 0 or min(qtys) < 0 or total > balance
                or frm not in known or not all(map(known.__contains__, tos))):
            return False
        pairs = self._pairs.get(frm)
        if pairs is None:
            pairs = self._pairs[frm] = _Memo(partial(_pair, frm))
        # built before any write: it unpacks every leg, as the per-leg path would
        logged = [("transfer", token, pairs[to], qty, None) for to, qty in legs]
        book[frm] = balance - total
        get = book.get
        for to, qty in legs:
            if qty:
                book[to] = get(to, 0) + qty
        if not book[frm]:  # debited to 0 and not paid back by a leg of its own
            del book[frm]
        self.events.extend(logged)
        return True

    def open_accounts(self, token: str, rows, authority: str) -> int:
        """Create each (account, qty) of `rows` as a new USER account and mint it qty of
        `token` under `authority`, in order, all or none; return the amount minted.

        The log is that of a loop of `create_account` and, for a nonzero qty, `mint`
        inside one `transaction()`: a zero row logs its `create_account` only. A batch
        that passes every check as a whole is written in one pass: every id new and
        none repeated, every amount a plain int >= 0, and a known token minted by
        `authority`. Any failed check leaves the batch to that loop, which raises
        the failing row's error and undoes the rows before it.
        An id that is not a str is refused first, with `create_account`'s ValueError.
        """
        ids = [account for account, _ in rows]  # unpacks every row before any write
        qtys = [qty for _, qty in rows]
        if not _STR_ONLY.issuperset(map(type, ids)):  # refused before any write
            for account in ids:
                _typed("account", account, str)
        book, known = self._balances.get(token), self.accounts
        total = sum(qtys) if _INT_ONLY.issuperset(map(type, qtys)) else -1
        if (book is None or book.authority != authority
                or total < 0 or min(qtys, default=0) < 0
                or len(set(ids)) < len(ids) or not known.keys().isdisjoint(ids)):
            with self.transaction():
                for account, qty in rows:
                    self.create_account(account)
                    if type(qty) is not int or qty:
                        self.mint(token, account, qty, authority)
            return sum(qtys)
        events, user = self.events, AccountRole.USER
        role = _ROLE_META[user]
        for account, qty in rows:
            accounts = (account,)
            known[account] = user
            events.append(("create_account", "", accounts, 0, role))
            if qty:
                book[account] = qty  # a new account has no entry
                events.append(("mint", token, accounts, qty, None))
        book.supply += total
        return total

    # --- transactions ---

    def transaction(self) -> _Transaction:
        """A `with` block whose every event is undone on any exception, which then
        propagates, keeping multi-step operations atomic (see `_undo`)."""
        return _Transaction(self)

    # --- internals ---

    def _undo(self, start: int):
        """Invert every event logged since `start`, newest first, then drop them from the log.

        The event log is the whole undo journal. A move is written back; a created
        account or token is deleted, after every later event that used it.
        """
        events = self.events
        for i in range(len(events) - 1, start - 1, -1):
            op, token, accounts, qty, _ = events[i]
            if op in _ENDS:
                frm, to = _ENDS[op](accounts)
                self._write(self._balances[token], to, frm, qty)
            elif op == "create_account":
                del self.accounts[accounts[0]]
            else:  # create_token
                del self.tokens[token], self._balances[token]
        del events[start:]

    def _write(self, book: _Book, frm: str | None, to: str | None, qty: int):
        """Move qty of book's token from frm to to, unchecked; None on either side is the supply.
        An entry the write leaves at 0 is deleted, and a credit of 0 creates none."""
        if frm is None:
            book.supply += qty
        elif left := book.get(frm, 0) - qty:
            book[frm] = left
        else:
            book.pop(frm, None)
        if to is None:
            book.supply -= qty
        elif qty:
            book[to] = book.get(to, 0) + qty

    def _log(self, op: str, token: str, accounts: tuple, qty: int, meta: tuple | None = None):
        self.events.append((op, token, accounts, qty, meta))

    # --- snapshots / audit ---

    def audit(self):
        """Raise InvariantViolation unless each token's balances are > 0 and sum to its supply."""
        for token, book in self._balances.items():
            total = sum(book.values())
            if total != book.supply or min(book.values(), default=1) <= 0:
                raise InvariantViolation(f"conservation: {token} balances sum to {total}, "
                                         f"supply {book.supply}, or one is not positive")

    def state_hash(self) -> str:
        """Deterministic digest of balances, supplies, token kinds and decimals, and
        account roles."""
        state = {
            "supply": {t: b.supply for t, b in self._balances.items()},
            "balances": {t: dict(b) for t, b in self._balances.items()},
            "tokens": {t: [m.kind.value, m.decimals] for t, m in self.tokens.items()},
            "accounts": dict(sorted((a, r.value) for a, r in self.accounts.items())),
        }
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def export_events(self) -> Iterator[str]:
        """Event log as line-delimited JSON strings, one per event with no newline,
        keys sorted, `seq` the line index."""
        return chain.from_iterable(self.export_chunks())

    def export_chunks(self) -> Iterator[list[str]]:
        """The lines of `export_events`, `EXPORT_CHUNK` at a time.

        Each line is the JSON of the event's dict form: keys "accounts", "meta"
        (when non-empty), "op", "qty", "seq", "token" in sorted order with compact
        separators. Op, token, accounts and meta texts are rendered once per export.
        A meta's pairs are its own key, since each of its keys holds values of one
        type only (see `Registry`), so equal pairs render alike.
        """
        texts = _Memo(_json_str)  # ops and tokens
        accounts = _Memo(lambda acc: ",".join(map(_json_str, acc)))
        metas = _Memo(lambda meta: f'"meta":{_json_meta(dict(meta))},')
        events = self.events
        for start in range(0, len(events), EXPORT_CHUNK):
            yield [f'{{"accounts":[{accounts[a]}],{metas[m] if m else ""}'
                   f'"op":{texts[o]},"qty":{q},"seq":{s},"token":{texts[t]}}}'
                   for s, (o, t, a, q, m) in enumerate(events[start:start + EXPORT_CHUNK], start)]


class _Transaction:
    """The block of one `Registry.transaction()`: notes where the log stood on entry
    and, when an exception leaves the block, undoes every event logged since."""
    __slots__ = ("registry", "start")

    def __init__(self, registry: Registry):
        self.registry = registry

    def __enter__(self):
        self.start = len(self.registry.events)

    def __exit__(self, exc_type, exc, tb):  # returns None: the exception propagates
        if exc_type is not None:
            self.registry._undo(self.start)


def replay_events(events: list) -> Registry:
    """Rebuild a Registry from an event log produced by another Registry.

    Takes the live event tuples of `Registry.events`, whose meta is a tuple of
    (key, value) pairs, or the dicts parsed from `events.jsonl`, whose meta is an
    object. A parsed line must carry its index as `seq`, an int, so a log with a line
    missing, repeated or out of order is rejected, and no field but `accounts`,
    `meta`, `op`, `qty`, `seq` and `token`. Replay applies raw state transitions;
    authority checks were already enforced when the log was written. A malformed
    line (not an object, a field missing, a value of the wrong type or out of range,
    a field or type unlike the event its replay logs) raises ValueError("event <i>:
    ..."); a well-formed op that the ledger refuses raises its EngineError.
    """
    reg = Registry()
    for index, ev in enumerate(events):
        try:
            if isinstance(ev, dict):
                if type(ev.get("seq")) is not int or ev["seq"] != index:
                    raise ValueError(f"seq {ev.get('seq')!r}, expected {index}")
                if not ev.keys() <= _FIELDS:
                    raise ValueError(f"unknown field {min(map(repr, ev.keys() - _FIELDS))}")
                op, token, accounts, qty, meta = (ev["op"], ev["token"], ev["accounts"],
                                                  ev["qty"], ev.get("meta"))
                if type(accounts) is not list or not all(
                        type(name) is str for name in (op, token, *accounts)):
                    raise ValueError("op and token must be str, accounts a list of str")
                if meta is not None and type(meta) is not dict:
                    raise ValueError(f"meta {meta!r} is not an object")
            elif type(ev) is tuple:
                op, token, accounts, qty, meta = ev
            else:
                raise ValueError(f"{type(ev).__name__} is not an event")
            pairs = dict(meta or ())  # a logged tuple of (key, value) pairs, or a parsed object
            if op == "create_account":
                reg.create_account(accounts[0], AccountRole(pairs["role"]))
            elif op == "create_token":
                reg.create_token(TokenMeta(token=token, kind=TokenKind(pairs["kind"]),
                                           unit_label=pairs["unit_label"],
                                           decimals=pairs["decimals"]),
                                 authority=pairs["authority"])
            elif op in _ENDS:
                frm, to = _ENDS[op](accounts)
                reg.settle(((token, frm, to, qty),), reg._book(token).authority)
            else:
                raise ValueError(f"unknown event op {op!r}")
            logged = reg.events[-1]  # compared as text, where 1, 1.0 and True differ
            if repr((*logged[:4], logged[4] and sorted(logged[4]))) != repr(
                    (op, token, tuple(accounts), qty, meta and sorted(dict(meta).items()))):
                raise ValueError(f"replays as {logged}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # a malformed line; an EngineError (an op the ledger refuses) propagates as is
            reason = f"no {exc}" if type(exc) is KeyError else exc
            raise ValueError(f"event {index}: {reason}") from exc
    return reg
