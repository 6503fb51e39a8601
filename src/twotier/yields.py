"""Pro-rata yield distribution to composite holders via a cumulative index.

Deposits bump a global per-unit index; holders accrue entitlement lazily and
claim on demand (pull-based). A balance listener on the composite token
settles accrual before any balance change, so transferring tokens never
moves already-earned yield between accounts. All accrual is tracked at
INDEX_SCALE resolution, making the accounting exactly conservative: every
deposited unit is either paid out, still claimable, or dust.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownAsset, ZeroSupply
from .ledger import AccountRole, Registry, check_amount

INDEX_SCALE = 10 ** 18


@dataclass
class YieldPool:
    composite: str
    account: str                      # registry account holding the numeraire
    index: int = 0                    # cumulative numeraire per base unit, scaled
    dust_scaled: int = 0
    total_deposited: int = 0
    total_paid: int = 0
    accrued_scaled: dict[str, int] = field(default_factory=dict)
    last_index: dict[str, int] = field(default_factory=dict)


class YieldVault:
    def __init__(self, registry: Registry, numeraire: str):
        self.registry = registry
        self.numeraire = numeraire
        self.pools: dict[str, YieldPool] = {}

    def register_asset(self, composite: str) -> YieldPool:
        account = self.registry.create_account(f"yield:{composite}",
                                               AccountRole.YIELD_POOL)
        pool = YieldPool(composite=composite, account=account)
        self.pools[composite] = pool
        self.registry.add_balance_listener(
            composite, lambda acct, c=composite: self._settle(c, acct))
        return pool

    def get(self, composite: str) -> YieldPool:
        try:
            return self.pools[composite]
        except KeyError:
            raise UnknownAsset(composite) from None

    def _entitlement_scaled(self, pool: YieldPool, account: str) -> int:
        """Settled accrual plus what the account's balance earned since."""
        bal = self.registry.balance_of(pool.composite, account)
        return (pool.accrued_scaled.get(account, 0)
                + bal * (pool.index - pool.last_index.get(account, 0)))

    def _settle(self, composite: str, account: str):
        pool = self.pools[composite]
        if pool.index != pool.last_index.get(account, 0):
            pool.accrued_scaled[account] = self._entitlement_scaled(pool, account)
        pool.last_index[account] = pool.index

    # --- operations ---

    def deposit_yield(self, composite: str, amount: int, payer: str):
        pool = self.get(composite)
        check_amount(amount)
        supply = self.registry.total_supply(composite)
        if supply == 0:
            raise ZeroSupply(composite)
        self.registry.transfer(self.numeraire, payer, pool.account, amount)
        increment = amount * INDEX_SCALE // supply
        pool.index += increment
        pool.dust_scaled += amount * INDEX_SCALE - increment * supply
        pool.total_deposited += amount

    def claimable(self, composite: str, account: str) -> int:
        return self._entitlement_scaled(self.get(composite), account) // INDEX_SCALE

    def claim(self, composite: str, account: str) -> int:
        pool = self.get(composite)
        self._settle(composite, account)
        payout = pool.accrued_scaled.get(account, 0) // INDEX_SCALE
        if payout == 0:
            return 0
        pool.accrued_scaled[account] -= payout * INDEX_SCALE
        self.registry.transfer(self.numeraire, pool.account, account, payout)
        pool.total_paid += payout
        return payout

    # --- audit ---

    def undistributed_scaled(self, composite: str) -> int:
        """Every account's unpaid entitlement, settled or not, plus dust.

        Equals (total_deposited - total_paid) * INDEX_SCALE when the
        accounting is conservative; `Market.audit` checks this.
        """
        pool = self.get(composite)
        index, last = pool.index, pool.last_index
        # an entitlement's settled part is in accrued_scaled and its unsettled part
        # needs a balance, so each part is summed over the entries that can hold it
        total = pool.dust_scaled + sum(pool.accrued_scaled.values())
        for acct, bal in self.registry.balances(composite).items():
            total += bal * (index - last.get(acct, 0))
        return total
