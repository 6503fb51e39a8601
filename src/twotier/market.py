"""Aggregate wiring of one market universe: ledger + engines over it.

A Market owns a single Registry plus the composite, oracle, AMM and yield
engines bound to it.
"""

from __future__ import annotations

from .amm import AmmVenues
from .composite import CompositeEngine
from .ledger import AccountRole, Registry, TokenKind, TokenMeta
from .oracle import OracleHub
from .yields import YieldVault

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

    def fund_numeraire(self, account: str, qty: int):
        """Scenario bootstrap: conjure numeraire for an account."""
        self.registry.ensure_account(account)
        self.registry.mint(self.numeraire, account, qty, BOOTSTRAP_AUTHORITY)
