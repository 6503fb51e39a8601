"""NAV and premium/discount computation in exact integer arithmetic.

A price is an integer ratio `(num, den)` with `den > 0`, never reduced:
every result below (the premium's rounding, `frac_str`'s digits) depends
only on the ratio's value, so no gcd is ever taken.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .composite import AssetDefinition
from .errors import MissingPrice

Price = tuple[int, int]   # (num, den), den > 0: the value num / den
Pools = list[tuple[int, int, int]]   # (rb, rn, fee_bps) per pool: `AmmVenues.snapshot`


def basket(terms: Iterable[tuple[int, Price]]) -> Price:
    """Sum of weight * price over (weight, price) terms, over the product of the
    price denominators: the one basket formula of NAV and of the no-trade band."""
    num, den = 0, 1
    for weight, (pn, pd) in terms:
        num, den = num * pd + weight * pn * den, den * pd
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


def nav_report(asset: AssetDefinition, snapshot: Pools) -> NavReport:
    """Compare the composite's pool spot to its NAV at `snapshot`, the venues'
    `snapshot(asset.bases)`; MissingPrice if a pool is missing or empty.

    A pool's spot is rn / rb, numeraire per base unit. Composition ratios are
    ledger amounts (element base units per whole composite unit), so their
    dot product with the element spots is already the NAV of one whole
    composite; the composite pool spot is scaled by the composite's unit to
    match.
    """
    for base, (rb, rn, _) in zip(asset.bases, snapshot):
        if rb == 0 or rn == 0:
            raise MissingPrice(f"no pool, or an empty one, for {base}")
    nav_value = basket([(per_unit, (rn, rb))
                        for (_, per_unit), (rb, rn, _) in zip(asset.composition, snapshot)])
    rb, rn, _ = snapshot[-1]
    spot = (rn * asset.unit, rb)
    return NavReport(asset=asset.composite, nav=nav_value, composite_spot=spot,
                     premium_bps=premium_bps(spot, nav_value))
