"""Composite token creation/redemption at fixed element ratios.

One composite unit is backed by a fixed basket of element tokens held in a
per-asset escrow account. Rounding always favors the escrow: deposits are
rounded up against the caller, payouts rounded down, and every residue is
routed to the asset's fee sink, so the escrow balance equals the exact
backing requirement after every operation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from .errors import (
    CompositeAlreadyBound,
    EmptyComposition,
    InsufficientBalance,
    InvariantViolation,
    UnknownAsset,
    UnknownElement,
    ZeroQuantity,
)
from .ledger import BPS, AccountRole, Registry, TokenKind, TokenMeta, ceil_div, check_amount


@dataclass
class AssetDefinition:
    composite: str
    # ordered (element token id, amount per 1.0 composite unit)
    composition: list[tuple[str, int]]
    mint_fee_bps: int
    redeem_fee_bps: int
    escrow: str
    fee_sink: str
    unit: int  # 10**decimals of the composite token
    # the pools NAV reads, in `AmmVenues.snapshot` order: each element's, then the composite's
    bases: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.mint_fee_bps <= BPS and 0 <= self.redeem_fee_bps <= BPS):
            raise ValueError("fee bps out of range")
        self.bases = (*(element for element, _ in self.composition), self.composite)


class _Receipt:
    @classmethod
    def of(cls, asset: str, q: int, moves: list[tuple[str, int, int]]):
        """The receipt of q units of asset from its schedule's (element, amount, fee) moves."""
        return cls(asset, q, [(e, a) for e, a, _ in moves], [(e, f) for e, _, f in moves])


@dataclass
class MintReceipt(_Receipt):
    asset: str
    minted: int
    deposits: list[tuple[str, int]]
    fees: list[tuple[str, int]]


@dataclass
class RedeemReceipt(_Receipt):
    asset: str
    burned: int
    basket_out: list[tuple[str, int]]
    fees: list[tuple[str, int]]


class CompositeEngine:
    """Per-registry engine holding all asset definitions and their escrows.

    A mint, a batch of mints and a redeem each write their legs in one
    `Registry.settle` and then check full backing once.
    """

    def __init__(self, registry: Registry):
        self.registry = registry
        self.assets: dict[str, AssetDefinition] = {}

    def authority_for(self, composite_id: str) -> str:
        return f"composite-engine:{composite_id}"

    def define_asset(self, composite_meta: TokenMeta, composition: list[tuple[str, int]],
                     mint_fee_bps: int = 0, redeem_fee_bps: int = 0) -> AssetDefinition:
        if not composition:
            raise EmptyComposition(composite_meta.token)
        seen = set()
        for element, per_unit in composition:
            if element not in self.registry.tokens:
                raise UnknownElement(element)
            if self.registry.meta(element).kind != TokenKind.ELEMENT:
                raise UnknownElement(f"{element} is not an element token")
            if element in seen:
                raise UnknownElement(f"duplicate element {element} in composition")
            seen.add(element)
            if check_amount(per_unit) == 0:
                raise EmptyComposition(f"zero ratio for {element}")
        cid = composite_meta.token
        if cid in self.assets or cid in self.registry.tokens:
            raise CompositeAlreadyBound(cid)
        if composite_meta.kind != TokenKind.COMPOSITE:
            raise CompositeAlreadyBound(f"{cid} must have composite kind")

        with self.registry.transaction():  # all or none, and only then the asset's record
            self.registry.create_token(composite_meta, authority=self.authority_for(cid))
            escrow = self.registry.create_account(f"escrow:{cid}", AccountRole.ESCROW_RESERVE)
            fee_sink = self.registry.create_account(f"fee_sink:{cid}", AccountRole.FEE_SINK)
            asset = AssetDefinition(
                composite=cid, composition=[(e, a) for e, a in composition],
                mint_fee_bps=mint_fee_bps, redeem_fee_bps=redeem_fee_bps,
                escrow=escrow, fee_sink=fee_sink, unit=10 ** composite_meta.decimals)
        self.assets[cid] = asset
        return asset

    def get(self, asset_id: str) -> AssetDefinition:
        try:
            return self.assets[asset_id]
        except KeyError:
            raise UnknownAsset(asset_id) from None

    # --- per-element moves (shared by quotes and execution) ---

    def _backing(self, asset: AssetDefinition, supply: int, per_unit: int) -> int:
        # exact escrow requirement for a given composite supply
        return ceil_div(per_unit * supply, asset.unit)

    def _mint_terms(self, asset: AssetDefinition, s: int) -> list[tuple[str, int, int, int]]:
        """(element, per-unit amount, amount times the mint fee bps, backing at s) per
        element: what `_mint_owed` needs at supply s that does not depend on q."""
        return [(element, a, a * asset.mint_fee_bps, self._backing(asset, s, a))
                for element, a in asset.composition]

    def _mint_owed(self, asset: AssetDefinition, s: int, terms: list[tuple[str, int, int, int]],
                   q: int) -> list[tuple[str, int, int]]:
        """(element, deposit, fee) owed to create q units at composite supply s, from
        `_mint_terms(asset, s)`: the one home of the deposit and fee formula."""
        fee_den = BPS * asset.unit
        return [(element, self._backing(asset, s + q, a) - backing, ceil_div(q * a_fee, fee_den))
                for element, a, a_fee, backing in terms]

    def _mint_schedule(self, asset: AssetDefinition,
                       s: int) -> Callable[[int], list[tuple[str, int, int]]]:
        """`moves(q)`: `_mint_owed` at composite supply s, for sizing many q.

        The backing at s is computed once, so each q pays only the terms that depend on it.
        """
        return partial(self._mint_owed, asset, s, self._mint_terms(asset, s))

    def _redeem_schedule(self, asset: AssetDefinition,
                         s: int) -> Callable[[int], list[tuple[str, int, int]]]:
        """`moves(q)`: (element, payout, fee + residue) released by burning q <= s units.

        The backing at s is computed once, as in `_mint_schedule`.
        """
        kept_bps = BPS - asset.redeem_fee_bps
        terms = [(element, a, self._backing(asset, s, a)) for element, a in asset.composition]

        def moves(q: int) -> list[tuple[str, int, int]]:
            out = []
            for element, a, backing in terms:
                released = backing - self._backing(asset, s - q, a)
                payout = released * kept_bps // BPS
                out.append((element, payout, released - payout))
            return out

        return moves

    def _mint_moves(self, asset: AssetDefinition, s: int,
                    q: int) -> list[tuple[str, int, int]]:
        """(element, deposit, fee) owed to create q units at composite supply s."""
        if check_amount(q) == 0:
            raise ZeroQuantity(asset.composite)
        return self._mint_owed(asset, s, self._mint_terms(asset, s), q)

    def _redeem_moves(self, asset: AssetDefinition, s: int, q: int) -> list[tuple[str, int, int]]:
        """(element, payout, fee + residue) released by burning q units of supply s.

        Burning more than the supply raises InsufficientBalance; a holder's own
        balance is left to the ledger's burn.
        """
        if check_amount(q) == 0:
            raise ZeroQuantity(asset.composite)
        if s < q:
            raise InsufficientBalance(
                f"redeem {asset.composite}: need {q} composite, supply {s}",
                token=asset.composite, shortfall=q - s)
        return self._redeem_schedule(asset, s)(q)

    # --- quotes ---

    def required_deposit(self, asset_id: str, q: int) -> list[tuple[str, int]]:
        """Element amounts owed (deposit + mint fee) to create q composite units."""
        asset = self.get(asset_id)
        s = self.registry.total_supply(asset.composite)
        return [(e, deposit + fee) for e, deposit, fee in self._mint_moves(asset, s, q)]

    def redemption_value(self, asset_id: str, q: int) -> list[tuple[str, int]]:
        """Element amounts paid out (net of redeem fee) for burning q units.

        Raises InsufficientBalance if q exceeds the supply, as redeeming would.
        """
        asset = self.get(asset_id)
        s = self.registry.total_supply(asset.composite)
        return [(e, payout) for e, payout, _ in self._redeem_moves(asset, s, q)]

    # --- state transitions ---

    def mint_composite(self, asset_id: str, caller: str, q: int) -> MintReceipt:
        (moves,) = self.mint_composites(asset_id, [(caller, q)])
        return MintReceipt.of(asset_id, q, moves)

    def mint_composites(self, asset_id: str,
                        rows: list[tuple[str, int]]) -> list[tuple[tuple[str, int, int], ...]]:
        """Mint each (caller, q) of `rows` in order, all or none; return each row's
        (element, deposit, fee) moves, which `MintReceipt.of` makes its receipt.

        Each row's moves are owed at the supply the rows before it leave, so the
        legs and events are those of a loop of `mint_composite`, in one
        `Registry.settle`: a failing row raises its leg's own ledger error and
        nothing is written. Full backing is checked once, after the last row.
        Each row's moves are kept as an exact tuple, which the cycle collector
        untracks, so a genesis of many rows leaves no tracked container per row
        for the collections during the settle to promote.
        """
        asset = self.get(asset_id)
        s = self.registry.total_supply(asset.composite)
        escrow, fee_sink, composite = asset.escrow, asset.fee_sink, asset.composite
        legs, done = [], []
        for caller, q in rows:
            moves = tuple(self._mint_moves(asset, s, q))
            for element, deposit, fee in moves:
                legs.append((element, caller, escrow, deposit))
                if fee:
                    legs.append((element, caller, fee_sink, fee))
            legs.append((composite, None, caller, q))
            done.append(moves)
            s += q
        self.registry.settle(legs, self.authority_for(composite))
        self._assert_backing(asset)
        return done

    def redeem_composite(self, asset_id: str, caller: str, q: int) -> RedeemReceipt:
        asset = self.get(asset_id)
        reg = self.registry
        moves = self._redeem_moves(asset, reg.total_supply(asset.composite), q)
        legs = [(asset.composite, caller, None, q)]
        for element, payout, fee in moves:
            legs.append((element, asset.escrow, caller, payout))
            if fee:
                legs.append((element, asset.escrow, asset.fee_sink, fee))
        reg.settle(legs, self.authority_for(asset.composite))
        self._assert_backing(asset)
        return RedeemReceipt.of(asset_id, q, moves)

    # --- audit ---

    def _assert_backing(self, asset: AssetDefinition):
        """InvariantViolation unless every escrow balance is the exact backing of the supply."""
        s = self.registry.total_supply(asset.composite)
        balance_of = self.registry.balance_of
        for element, a in asset.composition:
            if balance_of(element, asset.escrow) != self._backing(asset, s, a):
                raise InvariantViolation(f"full backing broken for {asset.composite}")
