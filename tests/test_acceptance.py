"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or in captured output) in addition to asserting.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twotier
from conftest import (SOLAR_COMPOSITION, grant_elements, make_solar_market,
                      seed_solar_pools)
from twotier.amm import BPS, SwapDirection
from twotier.arbitrage import Side, best_route, simulate_routes
from twotier.cli import main as cli_main
from twotier.composite import ceil_div
from twotier.errors import EngineError
from twotier.oracle import Attestation, OraclePolicy, median_int
from twotier.pricing import basket
from twotier.sim import load_config, parse_config, run
from twotier.yields import INDEX_SCALE

SCENARIOS = Path(twotier.__file__).parent / "scenarios"


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- 1: randomized operation sequences preserve all invariants ---------------

OPS = ("mint", "redeem", "transfer", "swap", "oracle", "yield", "claim")


def _fuzz_sequence(market, cid, rng, epoch_base):
    reg = market.registry
    accounts = ["issuer", "u1", "u2"]
    for step in range(rng.randint(3, 10)):
        op = rng.choice(OPS)
        acct = rng.choice(accounts)
        try:
            if op == "mint":
                market.composites.mint_composite(cid, acct, rng.randint(1, 200))
            elif op == "redeem":
                market.composites.redeem_composite(cid, acct, rng.randint(1, 200))
            elif op == "transfer":
                token = rng.choice(["energy", "land", "carbon", cid, "NUM"])
                reg.transfer(token, acct, rng.choice(accounts),
                             rng.randint(1, 500))
            elif op == "swap":
                base = rng.choice(["energy", "land", "carbon", cid])
                pool = market.venues.get(base)
                direction = rng.choice((SwapDirection.BASE_IN,
                                        SwapDirection.NUMERAIRE_IN))
                market.venues.swap_exact_in(pool.base, direction,
                                            rng.randint(1, 10_000), acct)
            elif op == "oracle":
                epoch = epoch_base + step
                value = rng.randint(1, 1000)
                for src in ("s1", "s2", "s3"):
                    market.oracle.submit_attestation(Attestation(
                        source=src, element="energy", epoch=epoch,
                        measured=value + rng.randint(-2, 2)))
                market.oracle.finalize_epoch(
                    "energy", epoch, OraclePolicy(2, 500, 1))
                cap = market.oracle.mintable_capacity("energy")
                if cap > 0 and rng.random() < 0.8:
                    market.oracle.mint_verified(
                        "energy", acct, rng.randint(1, cap))
            elif op == "yield":
                market.yields.deposit_yield(cid, rng.randint(1, 10_000), acct)
            elif op == "claim":
                market.yields.claim(cid, acct)
        except EngineError:
            continue


def _check_invariants(market, cid):
    reg = market.registry
    # token conservation, independently of the ledger's internal check
    for token in reg.tokens:
        total = sum(reg.balance_of(token, a) for a in reg.holders(token))
        assert total == reg.total_supply(token), token
    # full backing of every composite
    asset = market.composites.get(cid)
    supply = reg.total_supply(cid)
    for element, per_unit in asset.composition:
        assert (reg.balance_of(element, asset.escrow)
                == ceil_div(per_unit * supply, asset.unit)), element
    # oracle soundness
    for ledger in market.oracle.production.values():
        assert ledger.cumulative_minted <= ledger.cumulative_accepted
    # yield vault solvency at full scaled resolution
    pool = market.yields.get(cid)
    held = reg.balance_of(market.numeraire, pool.account)
    assert held == pool.total_deposited - pool.total_paid
    assert market.yields.undistributed_scaled(cid) == held * INDEX_SCALE


def test_criterion_1_fuzzed_invariants():
    rng = random.Random(1)
    started = time.monotonic()
    sequences = 10_000
    check_every = 4   # invariant sweep every few sequences keeps us in budget
    market = None
    for i in range(sequences):
        if i % 250 == 0:   # fresh market periodically for state diversity
            market, cid = make_solar_market(mint_fee_bps=rng.choice((0, 10, 25)),
                                            redeem_fee_bps=rng.choice((0, 10, 25)))
            seed_solar_pools(market, w_premium_bps=rng.randint(-500, 500),
                             pool_fee_bps=rng.choice((0, 30)))
            market.yields.register_asset(cid)
            for acct in ("u1", "u2"):
                market.registry.ensure_account(acct)
                market.fund_numeraire(acct, 10 ** 9)
                grant_elements(market, acct, {"energy": 10 ** 6,
                                              "land": 10 ** 7,
                                              "carbon": 10 ** 6})
        _fuzz_sequence(market, cid, rng, epoch_base=i * 16)
        if i % check_every == 0:
            _check_invariants(market, cid)
    _check_invariants(market, cid)
    elapsed = time.monotonic() - started
    report(1, elapsed < 120.0,
           f"{sequences} randomized operation sequences held conservation, "
           f"backing, oracle and yield invariants in {elapsed:.1f}s")


# --- 2: zero-fee mint/redeem round trip is bit-exact --------------------------

def test_criterion_2_round_trip_exact():
    ok = True
    for decimals in (0, 2):
        market, cid = make_solar_market(0, 0, composite_decimals=decimals)
        market.registry.ensure_account("user")
        unit = market.composites.get(cid).unit
        grant_elements(market, "user", {"energy": 10 ** 9, "land": 10 ** 10,
                                        "carbon": 10 ** 9})
        before = market.registry.state_hash()
        for q in (1, 7, 12345, 3 * unit + 1):
            market.composites.mint_composite(cid, "user", q)
            market.composites.redeem_composite(cid, "user", q)
        ok = ok and market.registry.state_hash() == before
    report(2, ok, "zero-fee mint/redeem round trips restore the exact "
                  "ledger state hash")


# --- 3: NAV agrees with an independent rational oracle ------------------------

def test_criterion_3_nav_oracle():
    rng = random.Random(3)
    ok = True
    for _ in range(1000):
        # (amount per composite unit, element price) per element
        terms = [(rng.randint(1, 10 ** 9), (rng.randint(0, 10 ** 12), rng.randint(1, 10 ** 9)))
                 for _ in range(rng.randint(1, 8))]
        expected = sum((a * Fraction(*p) for a, p in terms), Fraction(0))
        ok = ok and Fraction(*basket(terms)) == expected
    report(3, ok, "NAV equals the exact rational dot product on 1000 random "
                  "composition/price pairs")


# --- 4: AMM closed form and curve properties ----------------------------------

def test_criterion_4_amm_closed_form():
    from twotier.market import Market
    from conftest import add_element
    rng = random.Random(4)
    ok = True
    for _ in range(1000):
        x, y = rng.randint(10, 10 ** 12), rng.randint(10, 10 ** 12)
        fee = rng.choice((0, 5, 30, 100))
        d = rng.randint(1, 10 ** 10)
        market = Market(numeraire="NUM", numeraire_decimals=0)
        add_element(market, "b")
        market.registry.ensure_account("lp")
        market.fund_numeraire("lp", 10 ** 16)
        grant_elements(market, "lp", {"b": 10 ** 16})
        pool = market.venues.create_pool("b", fee, x, y, "lp")
        quote = market.venues.swap_exact_in(pool.base,
                                            SwapDirection.BASE_IN, d, "lp")
        e = d * (BPS - fee) // BPS
        ok = ok and quote.amount_out == y * e // (x + e)
        rb, rn = market.venues.reserves(pool.base)
        ok = ok and rb * rn >= x * y       # k never decreases
        if quote.amount_out > 0:
            back = market.venues.swap_exact_in(pool.base,
                                               SwapDirection.NUMERAIRE_IN,
                                               quote.amount_out, "lp")
            ok = ok and back.amount_out <= d   # round trips never profit
    report(4, ok, "swap output matches the closed form and the curve "
                  "invariant holds on 1000 random pools")


# --- 5: route selection matches brute force ------------------------------------

def test_criterion_5_router_vs_brute_force():
    from test_arbitrage import brute_force_acquire, brute_force_dispose
    rng = random.Random(5)
    ok = True
    for _ in range(500):
        market, cid = make_solar_market(rng.choice((0, 10)),
                                        rng.choice((0, 10)))
        seed_solar_pools(market, w_premium_bps=rng.randint(-4000, 4000),
                         pool_fee_bps=rng.choice((0, 30, 100)))
        q = rng.randint(1, 40_000)
        side = rng.choice((Side.ACQUIRE_W, Side.DISPOSE_W))
        oracle = (brute_force_acquire if side == Side.ACQUIRE_W
                  else brute_force_dispose)(market, cid, q)
        plans = {p.route.kind: p.simulated_cost_or_proceeds
                 for p in simulate_routes(market, cid, side, q)}
        ok = ok and plans == oracle
        best = best_route(market, cid, side, q)
        pick = (min if side == Side.ACQUIRE_W else max)(oracle.values())
        ok = ok and best.simulated_cost_or_proceeds == pick
    report(5, ok, "route simulation and selection match per-route brute "
                  "force on 500 random market states")


# --- 6: creation/redemption arbitrage anchors the composite to NAV -------------

FEE_BAND_BPS = 30 + 30 + 10 + 100   # two pool legs + issuance fee + slack


def _premium_series(doc):
    result = run(parse_config(doc))
    col = result.header.index("W_SOLAR_premium_bps")
    return [int(row[col]) for row in result.rows]


def test_criterion_6_arbitrage_anchoring():
    doc = json.loads((SCENARIOS / "solar.json").read_text())
    shock_epoch = doc["shocks"][0]["epoch"]

    disabled = json.loads(json.dumps(doc))
    for agent in disabled["agents"]:
        if agent["kind"] == "arbitrageur":
            agent["enabled"] = False
    off = _premium_series(disabled)
    drifted = all(abs(p) > 500 for p in off[shock_epoch:])

    on = _premium_series(doc)
    recovered = any(abs(p) <= FEE_BAND_BPS
                    for p in on[shock_epoch:shock_epoch + 6])
    first_inside = next(i for i in range(shock_epoch, len(on))
                        if abs(on[i]) <= FEE_BAND_BPS)
    stayed = (len(on) - first_inside >= 50
              and all(abs(p) <= FEE_BAND_BPS for p in on[first_inside:]))

    mirror = json.loads(json.dumps(doc))
    mirror["shocks"][0]["magnitude_bps"] = -1000
    neg = _premium_series(mirror)
    neg_recovered = any(abs(p) <= FEE_BAND_BPS
                        for p in neg[shock_epoch:shock_epoch + 6])
    neg_first = next(i for i in range(shock_epoch, len(neg))
                     if abs(neg[i]) <= FEE_BAND_BPS)
    neg_stayed = (len(neg) - neg_first >= 50
                  and all(abs(p) <= FEE_BAND_BPS for p in neg[neg_first:]))

    ok = drifted and recovered and stayed and neg_recovered and neg_stayed
    report(6, ok,
           f"±10% demand shocks: premium re-anchors within 5 epochs to "
           f"|p| <= {FEE_BAND_BPS}bps and holds 50+ epochs with arbitrage on "
           f"(final {on[-1]}/{neg[-1]}bps), drifts without it "
           f"(final {off[-1]}bps)")


# --- 7: aggregation resists a minority adversary --------------------------------

def test_criterion_7_adversarial_oracle():
    from twotier.market import Market
    from conftest import add_element
    policy = OraclePolicy(min_sources=2, max_deviation_bps=500, twa_window=1)
    rng = random.Random(7)
    ok = True
    for trial in range(1000):
        market = Market(numeraire="NUM", numeraire_decimals=0)
        add_element(market, "energy")
        n_honest = rng.randint(3, 7)
        base = rng.randint(100, 10 ** 9)
        honest = [base + base * rng.randint(-200, 200) // BPS
                  for _ in range(n_honest)]
        adversarial = [rng.choice((0, rng.randint(0, 10 ** 13)))
                       for _ in range(rng.randint(1, (n_honest - 1) // 2 or 1))]
        values = honest + adversarial
        order = list(range(len(values)))
        rng.shuffle(order)
        for i in order:
            market.oracle.submit_attestation(Attestation(
                source=f"s{i}", element="energy", epoch=trial,
                measured=values[i]))
        result = market.oracle.finalize_epoch("energy", trial, policy)
        m = median_int(honest)
        band = m * policy.max_deviation_bps // BPS + 1
        ok = ok and not result.failed and abs(result.accepted - m) <= band
    report(7, ok, "1000 adversarial trials: accepted output stays within the "
                  "deviation band of the honest median and never fails quorum")


# --- 8: yield distribution is exactly solvent ------------------------------------

def test_criterion_8_yield_solvency():
    from test_yield import yield_market
    rng = random.Random(8)
    accounts = [f"h{i}" for i in range(8)]
    market, cid = yield_market({acct: 1000 for acct in accounts})
    pool = market.yields.get(cid)
    reg = market.registry
    ops = 5000
    ok = True
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.3:
            market.yields.deposit_yield(cid, rng.randint(1, 10 ** 10), "payer")
        elif roll < 0.55:
            market.yields.claim(cid, rng.choice(accounts))
        else:
            src, dst = rng.sample(accounts, 2)
            bal = reg.balance_of(cid, src)
            if bal:
                reg.transfer(cid, src, dst, rng.randint(1, bal))
        held = reg.balance_of(market.numeraire, pool.account)
        ok = ok and held == pool.total_deposited - pool.total_paid
        ok = ok and market.yields.undistributed_scaled(cid) == held * INDEX_SCALE
        if not ok:
            break
    report(8, ok, f"{ops} random deposit/transfer/claim ops: vault holds "
                  "exactly what it owes at full index resolution")


# --- 9: runs are byte-identical --------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["run", str(SCENARIOS / "solar.json"),
                         "--out", str(out)]) == 0
        blobs.append(((out / "metrics.csv").read_bytes(),
                      (out / "events.jsonl").read_bytes()))
    ok = blobs[0] == blobs[1]
    report(9, ok, "identical config and seed produce byte-identical "
                  "metrics.csv and events.jsonl")