"""Pro-rata yield distribution to composite holders, credited at each deposit.

A deposit credits every current holder `balance * increment` of scaled entitlement,
where the increment is the deposit's floor share per unit of supply; holders claim on
demand (pull-based). Each account's entitlement is therefore a stored integer at every
moment, and transferring tokens never moves already-earned yield between accounts. All
accrual is tracked at INDEX_SCALE resolution, making the accounting exactly
conservative: every deposited unit is either paid out, still claimable, or dust.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Unauthorized, UnknownAccount, UnknownAsset, ZeroSupply
from .ledger import AccountRole, Registry, check_amount

INDEX_SCALE = 10 ** 18


@dataclass
class YieldPool:
    composite: str
    account: str                      # registry account holding the numeraire
    dust_scaled: int = 0
    total_deposited: int = 0
    total_paid: int = 0
    accrued_scaled: dict[str, int] = field(default_factory=dict)  # unpaid, per account


class YieldVault:
    def __init__(self, registry: Registry, numeraire: str):
        self.registry = registry
        self.numeraire = numeraire
        self.pools: dict[str, YieldPool] = {}

    def register_asset(self, composite: str) -> YieldPool:
        self.registry.meta(composite)  # UnknownToken before the account is created
        account = self.registry.create_account(f"yield:{composite}", AccountRole.YIELD_POOL)
        pool = self.pools[composite] = YieldPool(composite=composite, account=account)
        return pool

    def get(self, composite: str) -> YieldPool:
        try:
            return self.pools[composite]
        except KeyError:
            raise UnknownAsset(composite) from None

    # --- operations ---

    def deposit_yield(self, composite: str, amount: int, payer: str):
        """Move `amount` numeraire from `payer` into the pool and credit every holder.

        A yield pool's account, this pool's or another's, cannot pay: it holds what
        its own holders are owed. It is refused as Unauthorized before anything is
        written."""
        pool = self.get(composite)
        check_amount(amount)
        supply = self.registry.total_supply(composite)
        if supply == 0:
            raise ZeroSupply(composite)
        if self.registry.accounts.get(payer) is AccountRole.YIELD_POOL:
            raise Unauthorized(f"{payer!r} is a yield pool's account and cannot pay yield")
        self.registry.transfer(self.numeraire, payer, pool.account, amount)
        increment = amount * INDEX_SCALE // supply
        if increment:
            accrued = pool.accrued_scaled
            for account, balance in self.registry.balances(composite).items():
                accrued[account] = accrued.get(account, 0) + balance * increment
        pool.dust_scaled += amount * INDEX_SCALE - increment * supply
        pool.total_deposited += amount

    def claimable(self, composite: str, account: str) -> int:
        return self.get(composite).accrued_scaled.get(account, 0) // INDEX_SCALE

    def claim(self, composite: str, *accounts: str) -> int:
        """Pay each account its whole claimable numeraire, in order; returns the total paid.

        All or none: an account the registry does not know raises UnknownAccount
        before anything is written, the non-zero payouts go out in one
        `Registry.transfers`, and the vault changes only once that succeeded. A
        repeated account is paid 0 the second time, as it would be in sequence:
        after its first claim it is owed less than one unit.
        """
        pool = self.get(composite)
        claimants, known = dict.fromkeys(accounts), self.registry.accounts
        if not known.keys() >= claimants.keys():
            raise UnknownAccount(next(a for a in claimants if a not in known))
        accrued = pool.accrued_scaled.get
        payouts = []
        left = []                        # each claimant's accrued_scaled after its claim
        paid = 0
        for account in claimants:
            owed = accrued(account, 0)
            payout = owed // INDEX_SCALE
            if payout:
                payouts.append((account, payout))
                owed -= payout * INDEX_SCALE
                paid += payout
            left.append(owed)
        self.registry.transfers(self.numeraire, pool.account, payouts)
        pool.accrued_scaled.update(zip(claimants, left))
        pool.total_paid += paid
        return paid

    # --- audit ---

    def undistributed_scaled(self, composite: str) -> int:
        """Every account's unpaid entitlement plus dust.

        Equals (total_deposited - total_paid) * INDEX_SCALE when the
        accounting is conservative; `Market.audit` checks this.
        """
        pool = self.get(composite)
        return pool.dust_scaled + sum(pool.accrued_scaled.values())
