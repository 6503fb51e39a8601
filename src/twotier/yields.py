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
from functools import partial

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
        with self.registry.transaction():  # an unknown composite also removes the account
            account = self.registry.create_account(f"yield:{composite}", AccountRole.YIELD_POOL)
            pool = YieldPool(composite=composite, account=account)
            # the listener holds the pool record alone, not the vault or the registry, so
            # a dropped market holds no reference cycle and refcounting frees it
            self.registry.add_balance_listener(composite, partial(YieldVault._settle, pool))
        self.pools[composite] = pool
        return pool

    def get(self, composite: str) -> YieldPool:
        try:
            return self.pools[composite]
        except KeyError:
            raise UnknownAsset(composite) from None

    @staticmethod
    def _entitlement_scaled(pool: YieldPool, account: str, bal: int) -> int:
        """Settled accrual plus what the account's composite balance `bal` earned since."""
        return (pool.accrued_scaled.get(account, 0)
                + bal * (pool.index - pool.last_index.get(account, 0)))

    @staticmethod
    def _settle(pool: YieldPool, account: str, balance: int):
        """Settle what `account`'s composite `balance` earned, before that balance changes."""
        if pool.index != pool.last_index.get(account, 0):
            pool.accrued_scaled[account] = YieldVault._entitlement_scaled(pool, account, balance)
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
        pool = self.get(composite)
        bal = self.registry.balance_of(composite, account)
        return self._entitlement_scaled(pool, account, bal) // INDEX_SCALE

    def claim(self, composite: str, *accounts: str) -> int:
        """Pay each account its whole claimable numeraire, in order; returns the total paid.

        All or none: every account is settled against one read of the index and
        the composite's balances, the non-zero payouts go out in one
        `Registry.transfers`, and the vault changes only once that succeeded. A
        repeated account is paid 0 the second time, as it would be in sequence:
        after its first claim it is owed less than one unit.
        """
        pool = self.get(composite)
        index = pool.index
        balance = self.registry.balances(composite).get
        accrued, last = pool.accrued_scaled.get, pool.last_index.get
        claimants = dict.fromkeys(accounts)
        payouts = []
        left = []                        # each claimant's accrued_scaled after its claim
        paid = 0
        for account in claimants:
            # _entitlement_scaled, inlined
            owed = accrued(account, 0) + balance(account, 0) * (index - last(account, 0))
            payout = owed // INDEX_SCALE
            if payout:
                payouts.append((account, payout))
                owed -= payout * INDEX_SCALE
                paid += payout
            left.append(owed)
        self.registry.transfers(self.numeraire, pool.account, payouts)
        pool.accrued_scaled.update(zip(claimants, left))
        pool.last_index.update(dict.fromkeys(claimants, index))
        pool.total_paid += paid
        return paid

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
