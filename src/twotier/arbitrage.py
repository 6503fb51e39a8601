"""Execution routing and NAV arbitrage.

The router prices three ways of moving in or out of a composite position:
trading it directly against its pool, redeeming and selling the elements, or
buying elements and minting. The arbitrage planner chains the element-side
route with the opposite direct trade to monetize premium or discount, sizing
the trade on the unimodal profit curve that constant-product impact creates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .amm import SwapDirection, SwapQuote, cp_in, cp_out
from .errors import (
    AmmError,
    CompositeError,
    InsufficientBalance,
    InvariantViolation,
    MissingPrice,
    NoExecutablePath,
    StalePlan,
    UnknownPool,
)
from .market import Market
from .pricing import nav_report


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


# --- route simulation (pure, state-dependent quotes only) ---

def _buy(market: Market, token: str, amount_out: int) -> SwapQuote | None:
    """Swap leg buying at least amount_out of token with numeraire, or None."""
    direction = SwapDirection.NUMERAIRE_IN
    try:
        d = market.venues.required_in_for_out(token, direction, amount_out)
        return market.venues.quote_exact_in(token, direction, d)
    except AmmError:  # UnknownPool included
        return None


def _sell(market: Market, token: str, amount_in: int) -> SwapQuote | None:
    """Swap leg selling amount_in of token for numeraire, or None."""
    try:
        return market.venues.quote_exact_in(token, SwapDirection.BASE_IN, amount_in)
    except AmmError:
        return None


def _acquire_direct(market: Market, asset, q: int) -> Route | None:
    leg = _buy(market, asset.composite, q)
    return None if leg is None else Route(RouteKind.DIRECT_W, [leg])


def _acquire_via_elements(market: Market, asset, q: int) -> Route | None:
    try:
        needs = market.composites.required_deposit(asset.composite, q)
    except CompositeError:
        return None
    legs = []
    for element, need in needs:
        leg = _buy(market, element, need)
        if leg is None:
            return None
        legs.append(leg)
    legs.append(MintLeg(asset.composite, q))
    return Route(RouteKind.BUY_ELEMENTS_THEN_MINT_W, legs)


def _dispose_direct(market: Market, asset, q: int) -> Route | None:
    leg = _sell(market, asset.composite, q)
    return None if leg is None else Route(RouteKind.DIRECT_W, [leg])


def _dispose_via_elements(market: Market, asset, q: int) -> Route | None:
    try:
        payouts = market.composites.redemption_value(asset.composite, q)
    except (CompositeError, InsufficientBalance):
        return None
    legs = [RedeemLeg(asset.composite, q, payouts)]
    for element, payout in payouts:
        if payout == 0:
            continue
        leg = _sell(market, element, payout)
        if leg is None:
            return None
        legs.append(leg)
    return Route(RouteKind.REDEEM_THEN_SELL_ELEMENTS, legs)


def _route_cost(route: Route) -> int:
    """Numeraire spent on swaps (acquire routes only buy with numeraire)."""
    return sum(leg.amount_in for leg in route.legs if isinstance(leg, SwapQuote))


def _route_proceeds(route: Route) -> int:
    """Numeraire received from swaps (dispose routes only sell for numeraire)."""
    return sum(leg.amount_out for leg in route.legs if isinstance(leg, SwapQuote))


def simulate_routes(market: Market, asset_id: str, side: Side,
                    quantity_w: int) -> list[ExecutionPlan]:
    """All executable route plans for the request, in route-kind order."""
    asset = market.composites.get(asset_id)
    if side == Side.ACQUIRE_W:
        builders, value = (_acquire_direct, _acquire_via_elements), _route_cost
    else:
        builders, value = (_dispose_direct, _dispose_via_elements), _route_proceeds
    routes = [build(market, asset, quantity_w) for build in builders]
    return [ExecutionPlan(route, side, quantity_w, value(route))
            for route in routes if route is not None]


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

def _cycle_plan(market: Market, asset_id: str, q: int, positive_premium: bool,
                budget: int | None) -> ExecutionPlan | None:
    """One round trip sized q: element route on one side, direct trade on the other.

    None if a route is missing or its numeraire cost exceeds `budget`.
    """
    asset = market.composites.get(asset_id)
    if positive_premium:
        acquire, dispose = _acquire_via_elements(market, asset, q), _dispose_direct(market, asset, q)
    else:
        acquire, dispose = _acquire_direct(market, asset, q), _dispose_via_elements(market, asset, q)
    if acquire is None or dispose is None:
        return None
    cost = _route_cost(acquire)
    if budget is not None and cost > budget:
        return None
    kind = acquire.kind if positive_premium else dispose.kind  # the element-side route's
    proceeds = _route_proceeds(dispose)
    return ExecutionPlan(Route(kind, acquire.legs + dispose.legs), Side.DISPOSE_W, q,
                         proceeds, expected_profit=proceeds - cost)


Venue = tuple[int, int, int]   # (x, y, fee_bps): a pool's reserves in -> out and its fee


def _venue(market: Market, base: str, direction: SwapDirection) -> Venue | None:
    try:
        pool, x, y = market.venues._oriented(base, direction)
    except UnknownPool:
        return None
    return x, y, pool.fee_bps


def _buy_cost(venue: Venue | None, amount_out: int) -> int | None:
    """Numeraire input of `_buy`'s leg, or None where `_buy` has no leg."""
    if venue is None:
        return None
    # 0 (nothing to buy, or an empty numeraire reserve) is a zero input, which has no quote
    return cp_in(*venue, amount_out) or None


def _sell_proceeds(venue: Venue | None, amount_in: int) -> int | None:
    """Numeraire output of `_sell`'s leg, or None where `_sell` has no leg."""
    return None if venue is None else cp_out(*venue, amount_in)


def _cycle_profit(market: Market, asset_id: str, positive_premium: bool,
                  budget: int | None) -> Callable[[int], int | None]:
    """`profit(q)`: `_cycle_plan(q).expected_profit`, or None where it is None.

    The pools' fees and reserves, the composite supply and the backing at that
    supply are read once, so each size is scored with integer arithmetic alone
    and no plan is built.
    """
    engine = market.composites
    asset = engine.get(asset_id)
    supply = market.registry.total_supply(asset.composite)
    buy, sell = SwapDirection.NUMERAIRE_IN, SwapDirection.BASE_IN
    elements = [_venue(market, element, buy if positive_premium else sell)
                for element, _ in asset.composition]
    w = _venue(market, asset.composite, sell if positive_premium else buy)

    # the numeraire legs of the acquire and the dispose route, as `_cycle_plan` builds them
    if positive_premium:
        mint = engine._mint_schedule(asset, supply)

        def costs(q):
            return [_buy_cost(venue, deposit + fee) for (_, deposit, fee), venue
                    in zip(mint(q), elements)]

        def gains(q):
            return [_sell_proceeds(w, q)]
    else:
        redeem = engine._redeem_schedule(asset, supply)

        def costs(q):
            return [_buy_cost(w, q)]

        def gains(q):  # q <= supply: the pool delivered q, and its reserve is part of the supply
            return [_sell_proceeds(venue, payout) for (_, payout, _), venue
                    in zip(redeem(q), elements) if payout]

    def profit(q: int) -> int | None:
        paid = costs(q)
        if None in paid or (budget is not None and sum(paid) > budget):
            return None
        got = gains(q)
        return None if None in got else sum(got) - sum(paid)

    return profit


def detect_arbitrage(market: Market, asset_id: str, min_profit: int = 1,
                     max_size: int = 1 << 30,
                     budget: int | None = None) -> ExecutionPlan | None:
    """Best profitable premium/discount round trip, or None.

    Only cycles whose numeraire cost (bought before anything is sold) is at
    most `budget` are sized; None means unbounded capital.

    Size search: geometric sweep to bracket the unimodal profit curve, then
    ternary refinement on the bracket. Each size is scored by
    `_cycle_profit` over one snapshot; only the winning size is planned.
    """
    try:
        report = nav_report(market.composites.get(asset_id), market.venues)
    except (MissingPrice, CompositeError):
        return None
    if report.premium_bps == 0:
        return None
    positive = report.premium_bps > 0
    cycle_profit = _cycle_profit(market, asset_id, positive, budget)
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
    return _cycle_plan(market, asset_id, best_q, positive, budget)


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
