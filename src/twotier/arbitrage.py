"""Execution routing and NAV arbitrage.

The router prices three ways of moving in or out of a composite position:
trading it directly against its pool, redeeming and selling the elements, or
buying elements and minting. The arbitrage planner chains the element-side
route with the opposite direct trade to monetize premium or discount, sizing
the trade on the unimodal profit curve that constant-product impact creates.
A cycle sized q earns at most q times the gap between its marginal proceeds
and cost at q -> 0, so inside that no-trade band the planner returns None
without sizing anything.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .amm import SwapDirection, SwapQuote, cp_in, cp_out
from .composite import AssetDefinition
from .errors import CompositeError, InvariantViolation, MissingPrice, NoExecutablePath, StalePlan
from .ledger import BPS, check_amount
from .market import Market
from .pricing import Price, nav_report


class RouteKind(str, Enum):
    DIRECT_W = "direct_w"
    REDEEM_THEN_SELL_ELEMENTS = "redeem_then_sell_elements"
    BUY_ELEMENTS_THEN_MINT_W = "buy_elements_then_mint_w"


class Side(str, Enum):
    ACQUIRE_W = "acquire"
    DISPOSE_W = "dispose"


@dataclass
class MintLeg:
    asset: str
    q: int


@dataclass
class RedeemLeg:
    asset: str
    q: int
    basket_out: list[tuple[str, int]]


# a swap leg is the quote it executes
Leg = SwapQuote | MintLeg | RedeemLeg


@dataclass
class Route:
    kind: RouteKind
    legs: list[Leg]


@dataclass
class ExecutionPlan:
    route: Route
    side: Side
    quantity_w: int
    simulated_cost_or_proceeds: int   # numeraire: cost for acquire, proceeds for dispose
    expected_profit: int | None = None


@dataclass
class ExecutionResult:
    realized_profit: int
    legs_executed: int


# --- routes, priced over one read of their pools ---

_Flows = Callable[[int], list[int] | None]
_Legs = Callable[[int, list[int]], list[Leg]]

_BUY, _SELL = SwapDirection.NUMERAIRE_IN, SwapDirection.BASE_IN
_ELEMENT_ROUTE = {Side.ACQUIRE_W: RouteKind.BUY_ELEMENTS_THEN_MINT_W,
                  Side.DISPOSE_W: RouteKind.REDEEM_THEN_SELL_ELEMENTS}


def _costs(pools: list[tuple[int, int, int]], amounts: list[int]) -> list[int] | None:
    """Numeraire into the buy of each amount from its (rb, rn, fee) pool, or None."""
    paid = []
    for (rb, rn, fee), amount in zip(pools, amounts):
        if amount == 0:  # nothing owed is not bought
            paid.append(0)
            continue
        d = cp_in(rn, rb, fee, amount)
        if not d:  # more than the pool holds, or an empty numeraire reserve: no quote
            return None
        paid.append(d)
    return paid


def _proceeds(pools: list[tuple[int, int, int]], amounts: list[int]) -> list[int] | None:
    """Numeraire out of the sale of each nonzero amount into its (rb, rn, fee) pool, or None."""
    got = []
    for (rb, rn, fee), amount in zip(pools, amounts):
        if amount:  # a zero payout is not sold
            out = cp_out(rb, rn, fee, amount)
            if out is None:
                return None
            got.append(out)
    return got


# The no-trade band. Constant-product output is concave and input convex in
# the amount moved, and every floor and ceiling rounds against the trader:
# cp_out(x, y, f, a) <= y·e/x with e = floor(a·(BPS-f)/BPS), and
# cp_in(x, y, f, o) >= x·o/y · BPS/(BPS-f). At composite unit 1 a mint of q
# deposits exactly q·a_i of element i and its fee, rounded up, is at least
# q·a_i·mint_fee/BPS; a redeem's payout, rounded down, is at most
# q·a_i·(BPS-redeem_fee)/BPS. So at every size q an acquire route costs at
# least q times its marginal cost at q -> 0, and a dispose route yields at
# most q times its marginal proceeds: a cycle's profit is at most
# q·(mp0 - mc0), which is below 1 for every q once mp0 <= mc0. This is the
# fee band of CFMM price oracles (Angeris et al., arXiv:1911.03380) taken
# over the mint/redeem basket.

def _marginal(pools: list[tuple[int, int, int]], weights: list[int],
              buy: bool) -> Price | None:
    """Numeraire per unit of q at q -> 0 for weight_i/BPS of base i per unit, or None.

    A pool's marginal price is rn·BPS / (rb·(BPS-f)) to buy from it and
    rn·(BPS-f) / (rb·BPS) to sell into it. None if a pool is empty or missing.
    """
    num, den = 0, 1
    for (rb, rn, fee), weight in zip(pools, weights):
        if rb == 0:
            return None
        pn, pd = (rn * BPS, rb * (BPS - fee)) if buy else (rn * (BPS - fee), rb * BPS)
        num, den = num * pd + weight * pn * den, den * pd
    return num, den * BPS


def _route(market: Market, asset: AssetDefinition, kind: RouteKind,
           side: Side) -> tuple[_Flows, _Legs, Price | None]:
    """`(flows, legs, marginal)` of one route, over one read of its pools (and the supply).

    `flows(q)` is the numeraire into each buy (acquire) or out of each sale
    (dispose) of the route sized q, or None where it has no quote. It is
    integer arithmetic alone, so a size search can score many sizes.
    `legs(q, flows(q))` quotes that route's swaps at the unchanged state and
    adds its mint or redeem leg, for the one size a caller keeps. A missing
    pool reads as an emptied one, which quotes nothing.

    `marginal` is the numeraire flow per unit of q at q -> 0, a lower bound
    on the cost (acquire) or an upper bound on the proceeds (dispose) per
    unit at every size (the no-trade band above). It is None where that bound
    is not exact: an element route of a composite with unit > 1, or a route
    through an empty or missing pool.
    """
    venues, cid = market.venues, asset.composite
    direct = kind == RouteKind.DIRECT_W
    buy = side == Side.ACQUIRE_W
    bases = [cid] if direct else [element for element, _ in asset.composition]
    pools = [(*venues.reserves(base), venues.pools[base].fee_bps) if base in venues.pools
             else (0, 0, 0) for base in bases]
    if direct:
        price = _costs if buy else _proceeds

        def flows(q: int) -> list[int] | None:
            return price(pools, [q])

        weights = [BPS]
    else:
        supply = market.registry.total_supply(cid)
        if buy:
            mint = market.composites._mint_schedule(asset, supply)
            fee_factor = BPS + asset.mint_fee_bps

            def flows(q: int) -> list[int] | None:
                return _costs(pools, [deposit + fee for _, deposit, fee in mint(q)])
        else:
            redeem = market.composites._redeem_schedule(asset, supply)
            fee_factor = BPS - asset.redeem_fee_bps

            def flows(q: int) -> list[int] | None:  # redeeming q > supply has no quote
                return None if q > supply else _proceeds(
                    pools, [payout for _, payout, _ in redeem(q)])

        weights = [a * fee_factor for _, a in asset.composition]
    marginal = _marginal(pools, weights, buy) if direct or asset.unit == 1 else None

    def legs(q: int, numeraire: list[int]) -> list[Leg]:
        quote = venues.quote_exact_in
        if buy:
            swaps = [quote(base, _BUY, d) for base, d in zip(bases, numeraire) if d]
            return swaps if direct else swaps + [MintLeg(cid, q)]
        if direct:
            return [quote(cid, _SELL, q)]
        basket = [(element, payout) for element, payout, _ in redeem(q)]
        return [RedeemLeg(cid, q, basket)] + [quote(element, _SELL, payout)
                                              for element, payout in basket if payout]

    return flows, legs, marginal


def simulate_routes(market: Market, asset_id: str, side: Side,
                    quantity_w: int) -> list[ExecutionPlan]:
    """All executable route plans for the request, in route-kind order; none for a
    size of 0 or for a dispose of more units than are held outside the composite pool."""
    asset = market.composites.get(asset_id)
    cid = asset.composite
    pooled = market.venues.reserves(cid)[0] if cid in market.venues.pools else 0
    if check_amount(quantity_w) == 0 or (
            side == Side.DISPOSE_W and quantity_w > market.registry.total_supply(cid) - pooled):
        return []
    plans = []
    for kind in (RouteKind.DIRECT_W, _ELEMENT_ROUTE[side]):
        flows, legs, _ = _route(market, asset, kind, side)
        moved = flows(quantity_w)
        if moved is not None:
            plans.append(ExecutionPlan(Route(kind, legs(quantity_w, moved)), side,
                                       quantity_w, sum(moved)))
    return plans


def best_route(market: Market, asset_id: str, side: Side,
               quantity_w: int) -> ExecutionPlan:
    """Cheapest acquisition or richest disposal among executable routes.

    Ties go to the earlier route kind (direct trade first).
    """
    plans = simulate_routes(market, asset_id, side, quantity_w)
    if not plans:
        raise NoExecutablePath(f"{side.value} {quantity_w} of {asset_id}")
    if side == Side.ACQUIRE_W:
        return min(plans, key=lambda p: p.simulated_cost_or_proceeds)
    return max(plans, key=lambda p: p.simulated_cost_or_proceeds)


# --- arbitrage ---

def detect_arbitrage(market: Market, asset_id: str, min_profit: int = 1,
                     max_size: int = 1 << 30,
                     budget: int | None = None) -> ExecutionPlan | None:
    """Best profitable premium/discount round trip, or None.

    A round trip sized q acquires q through the element route and sells it
    directly (premium), or buys it directly and redeems it into the elements
    (discount). Only cycles whose numeraire cost (bought before anything is
    sold) is at most `budget` are sized; None means unbounded capital.

    No-trade band gate: a cycle sized q earns at most q·(mp0 - mc0), its
    marginal proceeds less its marginal cost at q -> 0 (`_route`). When both
    exist, mp0 <= mc0 and `min_profit >= 1`, no size can pay, and the result
    is None without scoring any size. A `min_profit` of 0 or less can be met
    by a losing cycle, so it is always searched.

    Size search: geometric sweep to bracket the unimodal profit curve, then
    ternary refinement on the bracket. Each size is scored from the two
    routes' flows; legs are quoted only for the winning size.
    """
    try:
        asset = market.composites.get(asset_id)
        report = nav_report(asset, market.venues)
    except (MissingPrice, CompositeError):
        return None
    if report.premium_bps == 0:
        return None
    positive = report.premium_bps > 0
    element_kind = _ELEMENT_ROUTE[Side.ACQUIRE_W if positive else Side.DISPOSE_W]
    costs, buy_legs, mc0 = _route(
        market, asset, element_kind if positive else RouteKind.DIRECT_W, Side.ACQUIRE_W)
    gains, sell_legs, mp0 = _route(
        market, asset, RouteKind.DIRECT_W if positive else element_kind, Side.DISPOSE_W)
    if (min_profit >= 1 and mc0 is not None and mp0 is not None
            and mp0[0] * mc0[1] <= mc0[0] * mp0[1]):
        return None  # inside the no-trade band: no size earns a positive profit

    def cycle_profit(q: int) -> int | None:
        paid = costs(q)
        if paid is None or (budget is not None and sum(paid) > budget):
            return None
        got = gains(q)
        return None if got is None else sum(got) - sum(paid)

    scores: dict[int, int] = {}  # each size is scored once

    def profit(q: int) -> int:
        if q not in scores:
            p = cycle_profit(q)
            scores[q] = -(1 << 62) if p is None else p
        return scores[q]

    best_q, best_p = 0, -(1 << 62)
    q = 1
    while q <= max_size:
        p = profit(q)
        if p > best_p:
            best_q, best_p = q, p
        q *= 2
    if best_q == 0:
        return None

    lo, hi = max(1, best_q // 2), min(max_size, best_q * 2)
    while hi - lo > 3:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if profit(m1) < profit(m2):
            lo = m1 + 1
        else:
            hi = m2
    for q in range(lo, hi + 1):
        p = profit(q)
        if p > best_p:
            best_q, best_p = q, p

    if best_p < min_profit:
        return None
    paid, got = costs(best_q), gains(best_q)
    legs = buy_legs(best_q, paid) + sell_legs(best_q, got)
    return ExecutionPlan(Route(element_kind, legs), Side.DISPOSE_W, best_q, sum(got),
                         expected_profit=best_p)


# --- execution ---

def _execute_leg(market: Market, leg: Leg, account: str) -> Leg:
    """Run one leg for account and return it as executed."""
    if isinstance(leg, SwapQuote):
        return market.venues.swap_exact_in(leg.base, leg.direction, leg.amount_in, account)
    if isinstance(leg, MintLeg):
        receipt = market.composites.mint_composite(leg.asset, account, leg.q)
        return MintLeg(receipt.asset, receipt.minted)
    receipt = market.composites.redeem_composite(leg.asset, account, leg.q)
    return RedeemLeg(receipt.asset, receipt.burned, receipt.basket_out)


def execute_plan(market: Market, plan: ExecutionPlan | None, account: str) -> ExecutionResult:
    """Run every leg atomically; any deviation from the simulation aborts.

    The caller's numeraire delta is the realized profit (meaningful for
    arbitrage cycle plans; for one-sided plans it is the signed cash flow).
    """
    if plan is None or not plan.route.legs:
        return ExecutionResult(realized_profit=0, legs_executed=0)
    reg = market.registry
    before = reg.balance_of(market.numeraire, account)
    with reg.transaction():
        for leg in plan.route.legs:
            try:
                done = _execute_leg(market, leg, account)
            except InvariantViolation:
                raise
            except Exception as exc:
                raise StalePlan(f"leg failed: {exc}") from exc
            if done != leg:
                raise StalePlan(f"leg changed: planned {leg}, got {done}")
        after = reg.balance_of(market.numeraire, account)
        realized = after - before
        if plan.expected_profit is not None and realized != plan.expected_profit:
            raise StalePlan(
                f"profit drifted: expected {plan.expected_profit}, got {realized}")
    return ExecutionResult(realized_profit=realized, legs_executed=len(plan.route.legs))
