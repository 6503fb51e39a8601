"""Execution routing and NAV arbitrage.

The router prices three ways of moving in or out of a composite position:
trading it directly against its pool, redeeming and selling the elements, or
buying elements and minting. The arbitrage planner chains the element-side
route with the opposite direct trade to monetize premium or discount, sizing
the trade by a search that assumes the profit curve is unimodal, as
constant-product impact makes it before integer rounding; rounding can break
that, so the search can stop short of the best size.
A cycle sized q earns at most q times the gap between its marginal proceeds
and cost at q -> 0, so inside that no-trade band the planner returns None
without sizing anything.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .amm import SwapDirection, SwapQuote, cp_in, cp_out
from .composite import AssetDefinition, MintReceipt, RedeemReceipt
from .errors import CompositeError, InvariantViolation, MissingPrice, NoExecutablePath, StalePlan
from .ledger import BPS, check_amount
from .market import Market
from .pricing import Pools, Price, basket, nav_report


class RouteKind(str, Enum):
    DIRECT_W = "direct_w"
    REDEEM_THEN_SELL_ELEMENTS = "redeem_then_sell_elements"
    BUY_ELEMENTS_THEN_MINT_W = "buy_elements_then_mint_w"


class Side(str, Enum):
    ACQUIRE_W = "acquire"
    DISPOSE_W = "dispose"


# a leg is the quote or receipt its execution must return
Leg = SwapQuote | MintReceipt | RedeemReceipt


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


# --- routes, priced over one snapshot of their pools ---

_Flows = Callable[[int], list[int] | None]
_Legs = Callable[[int, list[int]], list[Leg]]

_BUY, _SELL = SwapDirection.NUMERAIRE_IN, SwapDirection.BASE_IN
_ELEMENT_ROUTE = {Side.ACQUIRE_W: RouteKind.BUY_ELEMENTS_THEN_MINT_W,
                  Side.DISPOSE_W: RouteKind.REDEEM_THEN_SELL_ELEMENTS}


def _costs(pools: Pools, amounts: list[int]) -> list[int] | None:
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


def _proceeds(pools: Pools, amounts: list[int]) -> list[int] | None:
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

def _part(kind: RouteKind, per_base):
    """The route's part of `per_base`, `asset.bases` or its snapshot: the composite's
    pool for the direct route, the element pools for the other."""
    return per_base[-1:] if kind == RouteKind.DIRECT_W else per_base[:-1]


def _marginal(asset: AssetDefinition, kind: RouteKind, side: Side,
              pools: Pools) -> Price | None:
    """The route's numeraire flow per unit of q at q -> 0 over its `pools`, or None.

    A lower bound on the cost (acquire) or an upper bound on the proceeds
    (dispose) per unit at every size (the no-trade band above). A pool's
    marginal price is rn·BPS / (rb·(BPS-f)) to buy from it and
    rn·(BPS-f) / (rb·BPS) to sell into it. None where the bound is not exact:
    an element route of a composite with unit > 1, or a route through an
    empty or missing pool.
    """
    buy = side == Side.ACQUIRE_W
    if kind == RouteKind.DIRECT_W:
        weights = [BPS]  # weight_i/BPS of base i per unit of q
    elif asset.unit == 1:
        fee_factor = BPS + asset.mint_fee_bps if buy else BPS - asset.redeem_fee_bps
        weights = [a * fee_factor for _, a in asset.composition]
    else:
        return None
    if any(rb == 0 for rb, _, _ in pools):
        return None
    prices = ([(rn * BPS, rb * (BPS - fee)) for rb, rn, fee in pools] if buy
              else [(rn * (BPS - fee), rb * BPS) for rb, rn, fee in pools])
    num, den = basket(zip(weights, prices))
    return num, den * BPS


def _route(market: Market, asset: AssetDefinition, kind: RouteKind, side: Side,
           pools: Pools) -> tuple[_Flows, _Legs]:
    """`(flows, legs)` of one route over `pools`, its part of its caller's one snapshot.

    `flows(q)` is the numeraire into each buy (acquire) or out of each sale
    (dispose) of the route sized q, or None where it has no quote. It is
    integer arithmetic alone, so a size search can score many sizes.
    `legs(q, flows(q))` quotes that route's swaps at the unchanged state and
    adds its mint or redeem receipt from the schedule `flows` scored, for the
    one size a caller keeps. An element route reads the composite supply
    once, here.
    """
    venues, cid = market.venues, asset.composite
    direct = kind == RouteKind.DIRECT_W
    buy = side == Side.ACQUIRE_W
    bases = _part(kind, asset.bases)
    if direct:
        price = _costs if buy else _proceeds

        def flows(q: int) -> list[int] | None:
            return price(pools, [q])
    else:
        supply = market.registry.total_supply(cid)
        if buy:
            mint = market.composites._mint_schedule(asset, supply)

            def flows(q: int) -> list[int] | None:
                return _costs(pools, [deposit + fee for _, deposit, fee in mint(q)])
        else:
            redeem = market.composites._redeem_schedule(asset, supply)

            def flows(q: int) -> list[int] | None:  # redeeming q > supply has no quote
                return None if q > supply else _proceeds(
                    pools, [payout for _, payout, _ in redeem(q)])

    def legs(q: int, numeraire: list[int]) -> list[Leg]:
        quote = venues.quote_exact_in
        if buy:
            swaps = [quote(base, _BUY, d) for base, d in zip(bases, numeraire) if d]
            return swaps if direct else swaps + [MintReceipt.of(cid, q, mint(q))]
        if direct:
            return [quote(cid, _SELL, q)]
        moves = redeem(q)
        return [RedeemReceipt.of(cid, q, moves)] + [quote(element, _SELL, payout)
                                                    for element, payout, _ in moves if payout]

    return flows, legs


def simulate_routes(market: Market, asset_id: str, side: Side,
                    quantity_w: int) -> list[ExecutionPlan]:
    """All executable route plans for the request, in route-kind order; none for a
    size of 0 or for a dispose of more units than are held outside the composite pool."""
    asset = market.composites.get(asset_id)
    snapshot = market.venues.snapshot(asset.bases)
    pooled = snapshot[-1][0]  # composite units in its own pool, 0 without one
    if check_amount(quantity_w) == 0 or (side == Side.DISPOSE_W and quantity_w >
                                         market.registry.total_supply(asset.composite) - pooled):
        return []
    plans = []
    for kind in (RouteKind.DIRECT_W, _ELEMENT_ROUTE[side]):
        flows, legs = _route(market, asset, kind, side, _part(kind, snapshot))
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

    Every pool is read once, in one `AmmVenues.snapshot` that the premium,
    the gate and both routes share.

    No-trade band gate: a cycle sized q earns at most q·(mp0 - mc0), its
    marginal proceeds less its marginal cost at q -> 0 (`_marginal`). When
    both exist, mp0 <= mc0 and `min_profit >= 1`, no size can pay, and the
    result is None before either route or its mint/redeem schedule is built. A
    `min_profit` of 0 or less can be met by a losing cycle, so it is always
    searched.

    Size search: geometric sweep to bracket the profit curve's peak, then
    ternary refinement on the bracket. Both steps assume a unimodal curve,
    which integer rounding can break, so the chosen size can earn less than
    another one. Each size is scored from the two routes' flows; legs are
    quoted only for the winning size.
    """
    try:
        asset = market.composites.get(asset_id)
        snapshot = market.venues.snapshot(asset.bases)
        report = nav_report(asset, snapshot)
    except (MissingPrice, CompositeError):
        return None
    if report.premium_bps == 0:
        return None
    positive = report.premium_bps > 0
    element_kind = _ELEMENT_ROUTE[Side.ACQUIRE_W if positive else Side.DISPOSE_W]
    buy_kind, sell_kind = ((element_kind, RouteKind.DIRECT_W) if positive
                           else (RouteKind.DIRECT_W, element_kind))
    buy_pools, sell_pools = _part(buy_kind, snapshot), _part(sell_kind, snapshot)
    if min_profit >= 1:
        mc0 = _marginal(asset, buy_kind, Side.ACQUIRE_W, buy_pools)
        mp0 = _marginal(asset, sell_kind, Side.DISPOSE_W, sell_pools)
        if mc0 is not None and mp0 is not None and mp0[0] * mc0[1] <= mc0[0] * mp0[1]:
            return None  # inside the no-trade band: no size earns a positive profit
    costs, buy_legs = _route(market, asset, buy_kind, Side.ACQUIRE_W, buy_pools)
    gains, sell_legs = _route(market, asset, sell_kind, Side.DISPOSE_W, sell_pools)

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
    """Run one leg for account and return the engine's quote or receipt of it."""
    if isinstance(leg, SwapQuote):
        return market.venues.swap_exact_in(leg.base, leg.direction, leg.amount_in, account)
    if isinstance(leg, MintReceipt):
        return market.composites.mint_composite(leg.asset, account, leg.minted)
    return market.composites.redeem_composite(leg.asset, account, leg.burned)


def execute_plan(market: Market, plan: ExecutionPlan | None, account: str) -> ExecutionResult:
    """Run every leg atomically; any deviation from the simulation aborts.

    Each leg is compared in full with what its execution returns: a swap's
    amounts, a mint's deposits and fees, a redeem's payouts and fees.

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
