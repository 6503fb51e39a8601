"""NAV and premium/discount computation in exact integer arithmetic.

A price is an integer ratio `(num, den)` with `den > 0`, never reduced:
every result below (the premium's rounding, `frac_str`'s digits) depends
only on the ratio's value, so no gcd is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amm import AmmVenues
from .composite import AssetDefinition
from .errors import MissingPrice

Price = tuple[int, int]   # (num, den), den > 0: the value num / den


def nav(asset: AssetDefinition, prices: dict[str, Price]) -> Price:
    """Basket value of one whole composite unit: sum of ratio * element price.

    The terms are summed over the product of the price denominators.
    """
    num, den = 0, 1
    for element, per_unit in asset.composition:
        if element not in prices:
            raise MissingPrice(element)
        pn, pd = prices[element]
        num, den = num * pd + per_unit * pn * den, den * pd
    return num, den


def premium_bps(composite_spot: Price, nav_value: Price) -> int:
    """Signed deviation of spot from NAV in basis points, rounded half away from zero."""
    sn, sd = composite_spot
    nn, nd = nav_value
    if nn <= 0:
        raise MissingPrice("nav must be positive to express a premium")
    # (spot - nav) / nav * 10_000 as num / den, den > 0
    num, den = (sn * nd - nn * sd) * 10_000, nn * sd
    sign = 1 if num >= 0 else -1
    return sign * ((2 * abs(num) + den) // (2 * den))


@dataclass
class NavReport:
    asset: str
    nav: Price                    # per 1.0 composite unit
    composite_spot: Price         # per 1.0 composite unit
    premium_bps: int


def pool_price(venues: AmmVenues, token: str) -> Price:
    """Spot price per base unit of token's pool; MissingPrice if it has no pool or is empty."""
    if token not in venues.pools:
        raise MissingPrice(f"no pool for {token}")
    rn, rb = venues.spot_price(token)
    if rn == 0 or rb == 0:
        raise MissingPrice(f"empty pool for {token}")
    return rn, rb


def nav_report(asset: AssetDefinition, venues: AmmVenues) -> NavReport:
    """Read pool spot prices for every element and the composite, compare to NAV.

    Composition ratios are ledger amounts (element base units per whole
    composite unit) and pool spots are per base unit, so their dot product is
    already the NAV of one whole composite; the composite pool spot is scaled
    by the composite's unit to match.
    """
    nav_value = nav(asset, {element: pool_price(venues, element)
                            for element, _ in asset.composition})
    rn, rb = pool_price(venues, asset.composite)
    spot = (rn * asset.unit, rb)
    return NavReport(asset=asset.composite, nav=nav_value, composite_spot=spot,
                     premium_bps=premium_bps(spot, nav_value))
