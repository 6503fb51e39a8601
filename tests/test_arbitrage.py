import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SOLAR_COMPOSITION, grant_elements, make_solar_market, seed_solar_pools
from twotier import arbitrage, sim
from twotier.amm import BPS, SwapDirection, SwapQuote
from twotier.arbitrage import (ExecutionPlan, MintLeg, RedeemLeg, Route, RouteKind, Side,
                               best_route, detect_arbitrage, execute_plan, simulate_routes)
from twotier.cli import main
from twotier.composite import CompositeEngine
from twotier.errors import (AmmError, CompositeError, InsufficientBalance, InvariantViolation,
                            MissingPrice, NoExecutablePath, StalePlan)
from twotier.pricing import nav_report


def arb_market(w_premium_bps=0, pool_fee_bps=30, mint_fee_bps=0,
               redeem_fee_bps=0, composite_decimals=0):
    market, cid = make_solar_market(mint_fee_bps, redeem_fee_bps, composite_decimals)
    seed_solar_pools(market, w_premium_bps, pool_fee_bps)
    market.registry.ensure_account("arb")
    market.fund_numeraire("arb", 10 ** 14)
    return market, cid


# --- independent brute-force route oracles -------------------------------

def swap_out(x, y, d, fee):
    e = d * (BPS - fee) // BPS
    return y * e // (x + e)


def swap_in_for_out(x, y, o, fee):
    e_min = -(-o * x // (y - o))
    return -(-e_min * BPS // (BPS - fee))


def brute_force_acquire(market, cid, q):
    """Exhaustive per-kind cost computation straight from reserves."""
    asset = market.composites.get(cid)
    venues = market.venues
    wp = venues.get(cid)
    rb, rn = venues.reserves(wp.base)
    costs = {}
    if q < rb:
        costs[RouteKind.DIRECT_W] = swap_in_for_out(rn, rb, q, wp.fee_bps)
    total = 0
    ok = True
    owed = dict(market.composites.required_deposit(cid, q))
    for el, a in asset.composition:
        need = owed[el]
        ep = venues.get(el)
        eb, en = venues.reserves(ep.base)
        if need >= eb:
            ok = False
            break
        total += swap_in_for_out(en, eb, need, ep.fee_bps)
    if ok:
        costs[RouteKind.BUY_ELEMENTS_THEN_MINT_W] = total
    return costs


def brute_force_dispose(market, cid, q):
    asset = market.composites.get(cid)
    venues = market.venues
    wp = venues.get(cid)
    rb, rn = venues.reserves(wp.base)
    proceeds = {RouteKind.DIRECT_W: swap_out(rb, rn, q, wp.fee_bps)}
    basket = market.composites.redemption_value(cid, q)
    total = 0
    for el, out in basket:
        ep = venues.get(el)
        eb, en = venues.reserves(ep.base)
        total += swap_out(eb, en, out, ep.fee_bps)
    proceeds[RouteKind.REDEEM_THEN_SELL_ELEMENTS] = total
    return proceeds


# --- route selection ------------------------------------------------------

def test_acquire_routes_match_brute_force():
    market, cid = arb_market()
    for q in (1, 10, 500, 20_000):
        plans = {p.route.kind: p.simulated_cost_or_proceeds
                 for p in simulate_routes(market, cid, Side.ACQUIRE_W, q)}
        assert plans == brute_force_acquire(market, cid, q)


def test_dispose_routes_match_brute_force():
    market, cid = arb_market()
    for q in (1, 10, 500, 20_000):
        plans = {p.route.kind: p.simulated_cost_or_proceeds
                 for p in simulate_routes(market, cid, Side.DISPOSE_W, q)}
        assert plans == brute_force_dispose(market, cid, q)


def test_best_route_matches_brute_force_fuzz(rng):
    for _ in range(200):
        premium = rng.randint(-3000, 3000)
        fee = rng.choice((0, 10, 30, 100))
        market, cid = arb_market(w_premium_bps=premium, pool_fee_bps=fee)
        q = rng.randint(1, 30_000)
        side = rng.choice((Side.ACQUIRE_W, Side.DISPOSE_W))
        oracle = (brute_force_acquire if side == Side.ACQUIRE_W
                  else brute_force_dispose)(market, cid, q)
        plan = best_route(market, cid, side, q)
        pick = (min if side == Side.ACQUIRE_W else max)(oracle.values())
        assert plan.simulated_cost_or_proceeds == pick


def test_deep_elements_shallow_w_prefers_element_route():
    # composite pool priced 30% rich: minting from elements is cheaper
    market, cid = arb_market(w_premium_bps=3000)
    plan = best_route(market, cid, Side.ACQUIRE_W, 1000)
    assert plan.route.kind == RouteKind.BUY_ELEMENTS_THEN_MINT_W


def test_cheap_w_prefers_direct_acquire():
    market, cid = arb_market(w_premium_bps=-3000)
    plan = best_route(market, cid, Side.ACQUIRE_W, 1000)
    assert plan.route.kind == RouteKind.DIRECT_W


def test_no_pools_no_path():
    market, cid = make_solar_market()
    with pytest.raises(NoExecutablePath):
        best_route(market, cid, Side.ACQUIRE_W, 10)


def test_oversized_direct_falls_back_to_elements():
    market, cid = arb_market(pool_fee_bps=0)
    # more composite than the W pool holds; only the mint route can source it
    plan = best_route(market, cid, Side.ACQUIRE_W, 250_000)
    assert plan.route.kind == RouteKind.BUY_ELEMENTS_THEN_MINT_W


# --- arbitrage detection and execution ------------------------------------

def test_no_arbitrage_at_par():
    market, cid = arb_market(w_premium_bps=0)
    assert detect_arbitrage(market, cid, min_profit=1, max_size=50_000) is None


@pytest.mark.parametrize("emptied", ["land", "W_SOLAR"])
def test_detect_on_an_emptied_pool_is_none(emptied):
    market, cid = arb_market(w_premium_bps=1000)
    lp_token = market.venues.get(emptied).lp_token
    market.venues.remove_liquidity(
        emptied, market.registry.balance_of(lp_token, "issuer"), "issuer")
    assert detect_arbitrage(market, cid) is None


def test_fee_band_blocks_small_premium():
    market, cid = arb_market(w_premium_bps=20, pool_fee_bps=30)
    assert nav_report(market.composites.get(cid), market.venues).premium_bps == 20
    # settled by the no-trade band gate, without scoring a size
    assert gated_detect(market, cid, 1, 50_000) == (None, True)
    # a min_profit below 1 can be met by a losing cycle, so that search still runs
    plan, gated = gated_detect(market, cid, -10 ** 6, 50_000)
    assert not gated and plan is not None and plan.expected_profit < 0


def test_positive_premium_cycle():
    market, cid = arb_market(w_premium_bps=1000)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    assert plan is not None
    assert plan.route.kind == RouteKind.BUY_ELEMENTS_THEN_MINT_W
    assert plan.expected_profit > 0


def test_negative_premium_cycle():
    market, cid = arb_market(w_premium_bps=-1000)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    assert plan is not None
    assert plan.route.kind == RouteKind.REDEEM_THEN_SELL_ELEMENTS
    assert plan.expected_profit > 0


def test_execute_realizes_expected_profit():
    market, cid = arb_market(w_premium_bps=1000)
    before = market.registry.balance_of(market.numeraire, "arb")
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    result = execute_plan(market, plan, "arb")
    assert result.realized_profit == plan.expected_profit
    after = market.registry.balance_of(market.numeraire, "arb")
    assert after - before == result.realized_profit


def test_execution_contracts_premium():
    market, cid = arb_market(w_premium_bps=1000)
    asset = market.composites.get(cid)
    before = abs(nav_report(asset, market.venues).premium_bps)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    execute_plan(market, plan, "arb")
    after = abs(nav_report(asset, market.venues).premium_bps)
    assert after < before


def test_repeated_cycles_reach_no_arb_band():
    market, cid = arb_market(w_premium_bps=1500)
    for _ in range(32):
        plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
        if plan is None:
            break
        execute_plan(market, plan, "arb")
    assert detect_arbitrage(market, cid, min_profit=1, max_size=100_000) is None
    report = nav_report(market.composites.get(cid), market.venues)
    # residual premium sits inside the round-trip fee band
    assert abs(report.premium_bps) < 2 * 30 + 100


def test_stale_plan_rejected_atomically():
    market, cid = arb_market(w_premium_bps=1000)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    # a front-running trade invalidates the simulated quotes
    market.registry.ensure_account("rival")
    market.fund_numeraire("rival", 10 ** 12)
    wp = market.venues.get(cid)
    market.venues.swap_exact_in(wp.base, SwapDirection.NUMERAIRE_IN,
                                1_000_000, "rival")
    state = market.registry.state_hash()
    with pytest.raises(StalePlan):
        execute_plan(market, plan, "arb")
    assert market.registry.state_hash() == state


def test_empty_plan_is_noop():
    market, cid = arb_market()
    state = market.registry.state_hash()
    result = execute_plan(market, None, "arb")
    assert result == type(result)(realized_profit=0, legs_executed=0)
    assert market.registry.state_hash() == state


def test_detect_respects_min_profit():
    market, cid = arb_market(w_premium_bps=1000)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    rich = detect_arbitrage(market, cid, min_profit=plan.expected_profit + 1,
                            max_size=100_000)
    assert rich is None or rich.expected_profit > plan.expected_profit


def test_detect_respects_max_size():
    market, cid = arb_market(w_premium_bps=1000)
    unbounded = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    cap = max(1, unbounded.quantity_w // 2)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=cap)
    assert plan is not None and plan.quantity_w <= cap
    # tiny caps where every cycle loses to fee truncation yield no plan
    assert detect_arbitrage(market, cid, min_profit=1, max_size=7) is None


# --- reference route builders through the venue and composite quote API --

def ref_buy(market, token, amount_out):
    """Swap leg buying at least amount_out of token with numeraire, or None."""
    direction = SwapDirection.NUMERAIRE_IN
    try:
        d = market.venues.required_in_for_out(token, direction, amount_out)
        return market.venues.quote_exact_in(token, direction, d)
    except AmmError:  # UnknownPool included
        return None


def ref_sell(market, token, amount_in):
    """Swap leg selling amount_in of token for numeraire, or None."""
    try:
        return market.venues.quote_exact_in(token, SwapDirection.BASE_IN, amount_in)
    except AmmError:
        return None


def ref_acquire_direct(market, asset, q):
    leg = ref_buy(market, asset.composite, q)
    return None if leg is None else Route(RouteKind.DIRECT_W, [leg])


def ref_acquire_via_elements(market, asset, q):
    try:
        needs = market.composites.required_deposit(asset.composite, q)
    except CompositeError:
        return None
    legs = []
    for element, need in needs:
        if need == 0:  # nothing owed is not bought
            continue
        leg = ref_buy(market, element, need)
        if leg is None:
            return None
        legs.append(leg)
    legs.append(MintLeg(asset.composite, q))
    return Route(RouteKind.BUY_ELEMENTS_THEN_MINT_W, legs)


def ref_dispose_direct(market, asset, q):
    leg = ref_sell(market, asset.composite, q)
    return None if leg is None else Route(RouteKind.DIRECT_W, [leg])


def ref_dispose_via_elements(market, asset, q):
    try:
        payouts = market.composites.redemption_value(asset.composite, q)
    except (CompositeError, InsufficientBalance):
        return None
    legs = [RedeemLeg(asset.composite, q, payouts)]
    for element, payout in payouts:
        if payout == 0:
            continue
        leg = ref_sell(market, element, payout)
        if leg is None:
            return None
        legs.append(leg)
    return Route(RouteKind.REDEEM_THEN_SELL_ELEMENTS, legs)


def ref_cost(route):
    return sum(leg.amount_in for leg in route.legs if isinstance(leg, SwapQuote))


def ref_proceeds(route):
    return sum(leg.amount_out for leg in route.legs if isinstance(leg, SwapQuote))


def reference_routes(market, cid, side, q):
    """`simulate_routes` with every route built leg by leg through the quote API."""
    asset = market.composites.get(cid)
    reg, pool = market.registry, market.venues.get(cid)
    if side == Side.DISPOSE_W and q > reg.total_supply(cid) - reg.balance_of(cid, pool.account):
        return []  # more than the holders outside the composite pool hold
    if side == Side.ACQUIRE_W:
        builders, value = (ref_acquire_direct, ref_acquire_via_elements), ref_cost
    else:
        builders, value = (ref_dispose_direct, ref_dispose_via_elements), ref_proceeds
    routes = [build(market, asset, q) for build in builders]
    return [ExecutionPlan(route, side, q, value(route)) for route in routes if route is not None]


def reference_cycle(market, cid, q, positive, budget):
    """One round trip sized q: element route on one side, direct trade on the other."""
    asset = market.composites.get(cid)
    if positive:
        acquire = ref_acquire_via_elements(market, asset, q)
        dispose = ref_dispose_direct(market, asset, q)
    else:
        acquire = ref_acquire_direct(market, asset, q)
        dispose = ref_dispose_via_elements(market, asset, q)
    if acquire is None or dispose is None:
        return None
    cost = ref_cost(acquire)
    if budget is not None and cost > budget:
        return None
    kind = acquire.kind if positive else dispose.kind
    proceeds = ref_proceeds(dispose)
    return ExecutionPlan(Route(kind, acquire.legs + dispose.legs), Side.DISPOSE_W, q,
                         proceeds, expected_profit=proceeds - cost)


def reference_detect(market, cid, min_profit, max_size, budget):
    """The size search with a full `reference_cycle` built for every probed size."""
    try:
        report = nav_report(market.composites.get(cid), market.venues)
    except MissingPrice:
        return None
    if report.premium_bps == 0:
        return None
    positive = report.premium_bps > 0
    plans = {}

    def profit(q):
        if q not in plans:
            plans[q] = reference_cycle(market, cid, q, positive, budget)
        return plans[q].expected_profit if plans[q] is not None else -(1 << 62)

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
    return plans[best_q] if best_p >= min_profit else None


# --- the one-snapshot routes against the reference -----------------------

arb_states = st.fixed_dictionaries({
    "w_premium_bps": st.integers(-3000, 3000),
    "pool_fee_bps": st.sampled_from((0, 10, 30, 100)),
    "mint_fee_bps": st.sampled_from((0, 5, 50, 500)),
    "redeem_fee_bps": st.sampled_from((0, 5, 50, 500)),
    # the W pool is priced per base unit, so decimals > 0 put W far above its NAV;
    # they also make small redemptions pay 0 of an element, which is not sold
    "composite_decimals": st.sampled_from((0, 0, 1, 2, 4)),
    "extra_supply": st.integers(0, 10 ** 4),  # backing that is not a whole element amount
    # an element pool that was never created, or whose liquidity was all removed
    "element_pool": st.sampled_from(("kept", "kept", "missing", "emptied")),
    "element": st.sampled_from([element for element, _ in SOLAR_COMPOSITION]),
})
budgets = st.one_of(st.none(), st.integers(0, 10 ** 14))
# zero, small enough to pay 0 of an element, and past the composite supply
# (10^6) and what the composite pool (2 * 10^5) and the element pools can deliver
sizes = st.one_of(st.integers(0, 100), st.integers(1, 2 ** 31))


def arb_state(extra_supply, element_pool, element, **params):
    market, cid = arb_market(**params)
    if extra_supply:
        market.composites.mint_composite(cid, "issuer", extra_supply)
    if element_pool == "missing":
        del market.venues.pools[element]
    elif element_pool == "emptied":
        lp_token = market.venues.get(element).lp_token
        market.venues.remove_liquidity(
            element, market.registry.balance_of(lp_token, "issuer"), "issuer")
    return market, cid


def tiny_units(extra_supply, element_pool="kept"):
    """A state where one unit of W is backed by less than one unit of each element."""
    return {"w_premium_bps": 0, "pool_fee_bps": 30, "mint_fee_bps": 0, "redeem_fee_bps": 0,
            "composite_decimals": 4, "extra_supply": extra_supply,
            "element_pool": element_pool, "element": "energy"}


@given(state=arb_states, side=st.sampled_from(list(Side)),
       qs=st.lists(sizes, min_size=1, max_size=8))
# owes 0 of each element: the mint route is offered, and executes (test below)
@example(state=tiny_units(1), side=Side.ACQUIRE_W, qs=[1])
@example(state=tiny_units(2, "missing"), side=Side.DISPOSE_W, qs=[1, 3])  # pays 0 of each
@settings(max_examples=200, deadline=None)
def test_routes_match_the_venue_api_reference(state, side, qs):
    market, cid = arb_state(**state)
    for q in qs:
        assert simulate_routes(market, cid, side, q) == reference_routes(market, cid, side, q)


@given(state=arb_states, budget=budgets, min_profit=st.integers(-10 ** 6, 10 ** 6),
       max_size=st.integers(1, 2 ** 31))
@example(state={**tiny_units(0), "w_premium_bps": 1000, "composite_decimals": 0},
         budget=None, min_profit=1, max_size=100_000)  # a cycle, so the budget edges bind
# inside the fee band a losing cycle still meets a min_profit below 1: the gate must not fire
@example(state={**tiny_units(0), "w_premium_bps": 92, "pool_fee_bps": 0, "mint_fee_bps": 500,
                "composite_decimals": 0},
         budget=None, min_profit=-52, max_size=1)
@settings(deadline=None)  # max_examples from the hypothesis profile (tests/conftest.py)
def test_detect_matches_the_full_plan_search(state, budget, min_profit, max_size):
    market, cid = arb_state(**state)
    unbounded = reference_detect(market, cid, min_profit, max_size, None)
    edges = ([] if unbounded is None else  # a budget of exactly the winner's cost, and 1 less
             [unbounded.simulated_cost_or_proceeds - unbounded.expected_profit - d
              for d in (0, 1)])
    for cap in [budget, None, *edges]:
        assert (detect_arbitrage(market, cid, min_profit, max_size, cap)
                == reference_detect(market, cid, min_profit, max_size, cap))


def test_a_mint_owing_nothing_is_offered_and_executes():
    market, cid = arb_state(**tiny_units(1))  # the first example of the property above
    assert [owed for _, owed in market.composites.required_deposit(cid, 1)] == [0, 0, 0]
    plans = simulate_routes(market, cid, Side.ACQUIRE_W, 1)
    assert [plan.route.kind for plan in plans] == [RouteKind.DIRECT_W,
                                                   RouteKind.BUY_ELEMENTS_THEN_MINT_W]
    mint = plans[1]
    assert mint.route.legs == [MintLeg(cid, 1)] and mint.simulated_cost_or_proceeds == 0
    reg = market.registry
    num0 = reg.balance_of("NUM", "arb")
    assert execute_plan(market, mint, "arb").legs_executed == 1
    assert reg.balance_of(cid, "arb") == 1 and reg.balance_of("NUM", "arb") == num0
    market.audit()


# --- the no-trade band gate ------------------------------------------------

def gated_detect(market, cid, *args):
    """`detect_arbitrage(market, cid, *args)`, and whether the gate settled it.

    The gate settled a detection that built its two routes and returned
    without evaluating either route's flows at any size.
    """
    built, evaluated = [], []
    real_route = arbitrage._route

    def counted_route(*route_args):
        flows, legs, marginal = real_route(*route_args)
        built.append(route_args)

        def counted_flows(q):
            evaluated.append(q)
            return flows(q)

        return counted_flows, legs, marginal

    with mock.patch.object(arbitrage, "_route", counted_route):
        plan = detect_arbitrage(market, cid, *args)
    return plan, len(built) == 2 and not evaluated


@given(state=arb_states, premium=st.one_of(st.none(), st.integers(-300, 300)))
@settings(deadline=None)  # max_examples from the hypothesis profile (tests/conftest.py)
def test_the_gate_skips_only_searches_that_find_nothing(state, premium):
    if premium is not None:  # near par, where the fee band settles most detections
        state = {**state, "w_premium_bps": premium}
    market, cid = arb_state(**state)
    plan, gated = gated_detect(market, cid, 1, 2 ** 31, None)
    if gated:
        assert plan is None and reference_detect(market, cid, 1, 2 ** 31, None) is None


def test_no_pools_no_routes_and_no_arbitrage():
    market, cid = make_solar_market()
    for side in Side:
        assert simulate_routes(market, cid, side, 10) == []
    assert detect_arbitrage(market, cid) is None


@pytest.mark.parametrize("premium_bps", [-1000, 0, 1000])
@pytest.mark.parametrize("side", list(Side))
def test_one_sided_plans_execute_at_their_quote(side, premium_bps):
    q = 5_000
    probe, cid = arb_market(w_premium_bps=premium_bps)
    kinds = [plan.route.kind for plan in simulate_routes(probe, cid, side, q)]
    assert len(kinds) == 2
    sign = -1 if side == Side.ACQUIRE_W else 1
    for kind in kinds:
        market, cid = arb_market(w_premium_bps=premium_bps)
        reg = market.registry
        reg.transfer(cid, "issuer", "arb", q)
        plan, = [p for p in simulate_routes(market, cid, side, q) if p.route.kind == kind]
        num0, w0 = reg.balance_of("NUM", "arb"), reg.balance_of(cid, "arb")
        result = execute_plan(market, plan, "arb")
        assert reg.balance_of("NUM", "arb") - num0 == sign * plan.simulated_cost_or_proceeds
        assert result.realized_profit == sign * plan.simulated_cost_or_proceeds
        assert reg.balance_of(cid, "arb") - w0 == -sign * q
        assert result.legs_executed == len(plan.route.legs)


@pytest.mark.parametrize("side", list(Side))
def test_one_sided_plans_go_stale_atomically(side):
    market, cid = arb_market()
    reg = market.registry
    reg.transfer(cid, "issuer", "arb", 5_000)
    plans = simulate_routes(market, cid, side, 5_000)
    reg.ensure_account("rival")
    market.fund_numeraire("rival", 10 ** 12)
    for base in ("energy", cid):  # move a pool that every route trades
        market.venues.swap_exact_in(base, SwapDirection.NUMERAIRE_IN, 1_000_000, "rival")
    state = reg.state_hash()
    for plan in plans:
        with pytest.raises(StalePlan):
            execute_plan(market, plan, "arb")
        assert reg.state_hash() == state


def test_rollback_after_the_mint_leg_keeps_yield_entitlements():
    # yield state is not journaled: a settle inside the block records the
    # entitlement at the pre-move balance, which the rollback restores
    market, cid = arb_market(w_premium_bps=1000)
    market.yields.register_asset(cid)
    market.yields.deposit_yield(cid, 10 ** 9 + 7, "issuer")
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    assert isinstance(plan.route.legs[-2], MintLeg)  # the W pool is traded last
    reg = market.registry
    reg.ensure_account("rival")
    market.fund_numeraire("rival", 10 ** 12)
    market.venues.swap_exact_in(cid, SwapDirection.NUMERAIRE_IN, 1_000_000, "rival")
    holders = sorted(set(reg.holders(cid)) | {"arb"})
    claimable = {acct: market.yields.claimable(cid, acct) for acct in holders}
    with pytest.raises(StalePlan, match="leg changed"):
        execute_plan(market, plan, "arb")
    market.audit()
    assert {acct: market.yields.claimable(cid, acct) for acct in holders} == claimable


def test_detect_sizes_cycles_within_budget():
    market, cid = arb_market(w_premium_bps=1000)
    unbounded = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    budget = (unbounded.simulated_cost_or_proceeds - unbounded.expected_profit) // 10
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000, budget=budget)
    assert plan is not None
    assert plan.simulated_cost_or_proceeds - plan.expected_profit <= budget
    market.registry.ensure_account("small")
    market.fund_numeraire("small", budget)
    assert execute_plan(market, plan, "small").realized_profit == plan.expected_profit
    assert detect_arbitrage(market, cid, min_profit=1, max_size=100_000, budget=0) is None


def test_redeem_beyond_supply_is_not_quoted():
    market, cid = arb_market()
    too_many = market.registry.total_supply(cid) + 1
    with pytest.raises(InsufficientBalance):
        market.composites.redemption_value(cid, too_many)
    flows, _, _ = arbitrage._route(market, market.composites.get(cid),
                                   RouteKind.REDEEM_THEN_SELL_ELEMENTS, Side.DISPOSE_W)
    assert flows(too_many) is None and flows(too_many - 1) is not None


def test_dispose_beyond_units_held_outside_the_pool_is_not_quoted():
    market, cid = arb_market()
    held = market.registry.total_supply(cid) - market.venues.reserves(cid)[0]
    plans = simulate_routes(market, cid, Side.DISPOSE_W, held)
    assert [plan.route.kind for plan in plans] == [RouteKind.DIRECT_W,
                                                   RouteKind.REDEEM_THEN_SELL_ELEMENTS]
    assert simulate_routes(market, cid, Side.DISPOSE_W, held + 1) == []
    with pytest.raises(NoExecutablePath):
        best_route(market, cid, Side.DISPOSE_W, held + 1)


def break_backing_check(monkeypatch):
    def broken(self, asset):
        raise InvariantViolation(f"full backing broken for {asset.composite}")
    monkeypatch.setattr(CompositeEngine, "_assert_backing", broken)


@pytest.mark.parametrize("premium_bps", [1000, -1000])
def test_invariant_violation_passes_through_execute_plan(monkeypatch, premium_bps):
    market, cid = arb_market(w_premium_bps=premium_bps)
    plan = detect_arbitrage(market, cid, min_profit=1, max_size=100_000)
    assert plan is not None
    state = market.registry.state_hash()
    break_backing_check(monkeypatch)
    with pytest.raises(InvariantViolation):
        execute_plan(market, plan, "arb")
    assert market.registry.state_hash() == state


def test_invariant_violation_in_arbitrage_cycle_exits_2(monkeypatch, tmp_path, capsys):
    solar = str(Path(sim.__file__).parent / "scenarios" / "solar.json")
    executed = []
    real_execute = sim.execute_plan

    def execute_with_broken_backing(market, plan, account):
        executed.append(plan.route.kind)
        break_backing_check(monkeypatch)
        return real_execute(market, plan, account)

    monkeypatch.setattr(sim, "execute_plan", execute_with_broken_backing)
    assert main(["run", solar, "--out", str(tmp_path)]) == 2
    assert executed  # the failure came from a detected cycle
    assert "invariant violation: epoch" in capsys.readouterr().err
