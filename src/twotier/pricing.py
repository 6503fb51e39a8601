"""NAV and premium/discount computation in exact rational arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amm import AmmVenues
from .composite import AssetDefinition
from .errors import MissingPrice


def nav(asset: AssetDefinition, prices: dict[str, Fraction]) -> Fraction:
    """Basket value of one whole composite unit: sum of ratio * element price."""
    total = Fraction(0)
    for element, per_unit in asset.composition:
        if element not in prices:
            raise MissingPrice(element)
        total += per_unit * prices[element]
    return total


def premium_bps(composite_spot: Fraction, nav_value: Fraction) -> int:
    """Signed deviation of spot from NAV in basis points, rounded half away from zero."""
    if nav_value <= 0:
        raise MissingPrice("nav must be positive to express a premium")
    ratio = (composite_spot - nav_value) / nav_value * 10_000
    sign = 1 if ratio >= 0 else -1
    num, den = abs(ratio).numerator, abs(ratio).denominator
    return sign * ((2 * num + den) // (2 * den))


@dataclass
class NavReport:
    asset: str
    nav: Fraction                 # per 1.0 composite unit
    composite_spot: Fraction      # per 1.0 composite unit
    premium_bps: int


def pool_prices(asset: AssetDefinition, venues: AmmVenues) -> dict[str, Fraction]:
    """Spot price per element base unit, read from each element's pool."""
    prices = {}
    for element, _ in asset.composition:
        if element not in venues.pools:
            raise MissingPrice(f"no pool for {element}")
        prices[element] = venues.spot_price(element)
    return prices


def nav_report(asset: AssetDefinition, venues: AmmVenues) -> NavReport:
    """Read pool spot prices for every element and the composite, compare to NAV.

    Composition ratios are ledger amounts (element base units per whole
    composite unit) and pool spots are per base unit, so their dot product is
    already the NAV of one whole composite; the composite pool spot is scaled
    by the composite's unit to match.
    """
    nav_value = nav(asset, pool_prices(asset, venues))
    if asset.composite not in venues.pools:
        raise MissingPrice(f"no pool for {asset.composite}")
    spot = venues.spot_price(asset.composite) * asset.unit
    return NavReport(asset=asset.composite, nav=nav_value, composite_spot=spot,
                     premium_bps=premium_bps(spot, nav_value))
