"""Aggregate wiring of one market universe: ledger + engines over it.

A Market owns a single Registry plus the composite, oracle, AMM and yield
engines bound to it, and `audit` checks the invariants that span them.
"""

from __future__ import annotations

from .amm import AmmVenues
from .composite import AssetDefinition, CompositeEngine
from .errors import InvariantViolation
from .ledger import Registry, TokenKind, TokenMeta
from .oracle import OracleHub
from .yields import INDEX_SCALE, YieldVault

BOOTSTRAP_AUTHORITY = "scenario-bootstrap"


class Market:
    def __init__(self, numeraire: str = "NUM", numeraire_decimals: int = 6):
        self.registry = Registry()
        self.numeraire = numeraire
        self.registry.create_token(
            TokenMeta(token=numeraire, kind=TokenKind.NUMERAIRE,
                      unit_label="numeraire", decimals=numeraire_decimals),
            authority=BOOTSTRAP_AUTHORITY)
        self.composites = CompositeEngine(self.registry)
        self.oracle = OracleHub(self.registry)
        self.venues = AmmVenues(self.registry, numeraire)
        self.yields = YieldVault(self.registry, numeraire)
        self.numeraire_minted = 0  # by fund_numeraire and open_accounts, the only mint paths

    def define_asset(self, composite_meta: TokenMeta, composition: list[tuple[str, int]],
                     mint_fee_bps: int = 0, redeem_fee_bps: int = 0) -> AssetDefinition:
        """Define a composite in the composite engine and register it in the yield vault,
        all or none: a refused registration also removes the composite's token, its
        escrow and fee-sink accounts and its asset record."""
        with self.registry.transaction():
            asset = self.composites.define_asset(composite_meta, composition,
                                                 mint_fee_bps, redeem_fee_bps)
            try:
                self.yields.register_asset(asset.composite)
            except BaseException:
                del self.composites.assets[asset.composite]
                raise
        return asset

    def fund_numeraire(self, account: str, qty: int):
        """Scenario bootstrap: conjure numeraire for an account, creating it if new."""
        with self.registry.transaction():  # a refused mint also removes a new account
            self.registry.ensure_account(account)
            self.registry.mint(self.numeraire, account, qty, BOOTSTRAP_AUTHORITY)
        self.numeraire_minted += qty

    def open_accounts(self, rows: list[tuple[str, int]]):
        """Scenario bootstrap: open each (account, qty) of `rows` as a new account holding
        qty conjured numeraire, all or none (see `Registry.open_accounts`)."""
        self.numeraire_minted += self.registry.open_accounts(self.numeraire, rows,
                                                             BOOTSTRAP_AUTHORITY)

    def audit(self):
        """Raise InvariantViolation unless conservation, exact backing, minted <= accepted,
        vault solvency and numeraire supply == `numeraire_minted` all hold."""
        self.registry.audit()
        for asset in self.composites.assets.values():
            self.composites._assert_backing(asset)
        for element, prod in self.oracle.production.items():
            if prod.cumulative_minted > prod.cumulative_accepted:
                raise InvariantViolation(f"minted > accepted for {element}: {prod}")
        for cid, pool in self.yields.pools.items():
            held = self.registry.balance_of(self.numeraire, pool.account)
            owed = (pool.total_deposited - pool.total_paid, self.yields.undistributed_scaled(cid))
            if owed != (held, held * INDEX_SCALE):
                raise InvariantViolation(f"vault solvency: {cid} holds {held}, "
                                         f"(deposited - paid, undistributed_scaled) = {owed}")
        supply = self.registry.total_supply(self.numeraire)
        if supply != self.numeraire_minted:
            raise InvariantViolation(f"numeraire supply {supply} != minted {self.numeraire_minted}")
