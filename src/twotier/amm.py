"""Constant-product pools pairing a token against the numeraire.

Reserves live in a registry account per pool, so ledger conservation covers
them automatically. Swap output uses the closed form floor(y*e/(x+e)) with
the fee taken from the input side; the fee stays in the pool, so the
reserve product never decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DrainedPool, DuplicatePool, UnknownPool, ZeroInput
from .ledger import BPS, AccountRole, Registry, TokenKind, TokenMeta, ceil_div, check_amount


def cp_out(x: int, y: int, fee_bps: int, amount_in: int) -> int | None:
    """Output of a constant-product swap of amount_in into reserves (x in, y out).

    The fee, ceil(amount_in * fee_bps / BPS), is taken from the input and
    stays in the pool. None if the output would drain y, or if a reserve is
    empty (a pool whose liquidity was all removed).
    """
    if x == 0 or y == 0:
        return None
    e = amount_in * (BPS - fee_bps) // BPS
    out = y * e // (x + e)
    return out if out < y else None


def cp_in(x: int, y: int, fee_bps: int, amount_out: int) -> int | None:
    """Smallest input whose cp_out is at least amount_out, or None if y cannot cover it."""
    if amount_out >= y:
        return None
    e_min = ceil_div(amount_out * x, y - amount_out)
    return ceil_div(e_min * BPS, BPS - fee_bps)


class SwapDirection(str, Enum):
    BASE_IN = "base_in"
    NUMERAIRE_IN = "numeraire_in"


@dataclass
class SwapQuote:
    base: str                    # the pool's base token
    direction: SwapDirection
    amount_in: int
    amount_out: int
    fee_paid: int


@dataclass
class Pool:
    base: str
    fee_bps: int
    lp_token: str
    account: str


class AmmVenues:
    """All pools of one market, keyed by base token; each quotes base against the numeraire."""

    AUTHORITY = "amm-venues"

    def __init__(self, registry: Registry, numeraire: str):
        self.registry = registry
        self.numeraire = numeraire
        self.pools: dict[str, Pool] = {}

    # --- admin ---

    def create_pool(self, base: str, fee_bps: int, seed_base: int, seed_numeraire: int,
                    provider: str) -> Pool:
        if base in self.pools:
            raise DuplicatePool(base)
        if not (0 <= fee_bps < BPS):
            raise ValueError(f"fee_bps out of range: {fee_bps}")
        if check_amount(seed_base) == 0 or check_amount(seed_numeraire) == 0:
            raise ZeroInput("pool seeds must be positive")
        reg = self.registry
        # all or none: a seed transfer the ledger refuses also removes the token and account
        with reg.transaction():
            lp_token = reg.create_token(
                TokenMeta(token=f"lp:{base}", kind=TokenKind.LP_SHARE, decimals=0),
                authority=self.AUTHORITY)
            account = reg.create_account(f"pool_account:{base}", AccountRole.USER)
            reg.settle([(base, provider, account, seed_base),
                        (self.numeraire, provider, account, seed_numeraire),
                        (lp_token, None, provider, math.isqrt(seed_base * seed_numeraire))],
                       self.AUTHORITY)
        pool = self.pools[base] = Pool(base, fee_bps, lp_token, account)
        return pool

    def get(self, base: str) -> Pool:
        try:
            return self.pools[base]
        except KeyError:
            raise UnknownPool(base) from None

    # --- views ---

    def reserves(self, base: str) -> tuple[int, int]:
        return self._oriented(base, SwapDirection.BASE_IN)[1:]

    def snapshot(self, bases) -> list[tuple[int, int, int]]:
        """(rb, rn, fee_bps) of the pool of each of `bases`, in order, read once.

        A base with no pool reads as (0, 0, 0), as a pool whose liquidity was
        all removed reads as (0, 0, fee_bps).
        """
        pools, balance_of = self.pools, self.registry.balance_of
        numeraire = self.registry.balances(self.numeraire)
        return [(0, 0, 0) if (pool := pools.get(base)) is None
                else (balance_of(base, pool.account), numeraire.get(pool.account, 0),
                      pool.fee_bps)
                for base in bases]

    def lp_supply(self, base: str) -> int:
        return self.registry.total_supply(self.get(base).lp_token)

    # --- swaps ---

    def _oriented(self, base: str, direction: SwapDirection) -> tuple[Pool, int, int]:
        """The pool and its reserves (x, y) of the token going in and coming out."""
        pool = self.get(base)
        rb = self.registry.balance_of(pool.base, pool.account)
        rn = self.registry.balance_of(self.numeraire, pool.account)
        x, y = (rb, rn) if direction == SwapDirection.BASE_IN else (rn, rb)
        return pool, x, y

    def quote_exact_in(self, base: str, direction: SwapDirection,
                       amount_in: int) -> SwapQuote:
        pool, x, y = self._oriented(base, direction)
        if check_amount(amount_in) == 0:
            raise ZeroInput(base)
        out = cp_out(x, y, pool.fee_bps, amount_in)
        if out is None:
            raise DrainedPool(base)
        return SwapQuote(base=base, direction=direction, amount_in=amount_in,
                         amount_out=out, fee_paid=ceil_div(amount_in * pool.fee_bps, BPS))

    def swap_exact_in(self, base: str, direction: SwapDirection, amount_in: int,
                      trader: str) -> SwapQuote:
        quote = self.quote_exact_in(base, direction, amount_in)
        pool = self.pools[base]
        tok_in, tok_out = ((pool.base, self.numeraire)
                           if direction == SwapDirection.BASE_IN
                           else (self.numeraire, pool.base))
        self.registry.settle([(tok_in, trader, pool.account, amount_in),
                              (tok_out, pool.account, trader, quote.amount_out)])
        return quote

    def required_in_for_out(self, base: str, direction: SwapDirection,
                            amount_out: int) -> int:
        """Smallest input such that swap_exact_in delivers >= amount_out."""
        pool, x, y = self._oriented(base, direction)
        if check_amount(amount_out) == 0:
            raise ZeroInput(base)
        amount_in = cp_in(x, y, pool.fee_bps, amount_out)
        if amount_in is None:
            raise DrainedPool(base)
        return amount_in

    # --- liquidity ---

    def add_liquidity(self, base: str, max_base: int, max_numeraire: int,
                      provider: str) -> int:
        pool = self.get(base)
        check_amount(max_base)
        check_amount(max_numeraire)
        rb, rn = self.reserves(base)
        if rb == 0 or rn == 0:
            raise DrainedPool(base)
        supply = self.lp_supply(base)
        minted = min(max_base * supply // rb, max_numeraire * supply // rn)
        if minted == 0:
            return 0
        need_base = ceil_div(minted * rb, supply)
        need_num = ceil_div(minted * rn, supply)
        self.registry.settle([(pool.base, provider, pool.account, need_base),
                              (self.numeraire, provider, pool.account, need_num),
                              (pool.lp_token, None, provider, minted)], self.AUTHORITY)
        return minted

    def remove_liquidity(self, base: str, lp_burned: int,
                         provider: str) -> tuple[int, int]:
        pool = self.get(base)
        check_amount(lp_burned)
        if lp_burned == 0:
            return (0, 0)
        rb, rn = self.reserves(base)
        supply = self.lp_supply(base)
        if supply == 0:
            raise DrainedPool(base)
        base_out = lp_burned * rb // supply
        num_out = lp_burned * rn // supply
        self.registry.settle([(pool.lp_token, provider, None, lp_burned),
                              (pool.base, pool.account, provider, base_out),
                              (self.numeraire, pool.account, provider, num_out)], self.AUTHORITY)
        return (base_out, num_out)
