import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SOLAR_COMPOSITION, grant_elements, make_solar_market, nav_report_of,
                      seed_solar_pools)
from twotier.errors import MissingPrice
from twotier.pricing import basket, premium_bps
from twotier.sim import frac_str


def solar_nav(prices: list[tuple[int, int]]) -> tuple[int, int]:
    """NAV of one solar unit at the energy, land and carbon prices, in that order."""
    return basket((per_unit, p) for (_, per_unit), p in zip(SOLAR_COMPOSITION, prices))


def pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def value(p: tuple[int, int]) -> Fraction:
    return Fraction(*p)


def test_nav_unit_prices():
    assert value(solar_nav([(1, 1)] * 3)) == 1200


def test_nav_mixed_prices():
    assert value(solar_nav([(3, 1), (1, 2), (10, 1)])) == 100 * 3 + Fraction(1000, 2) + 100 * 10


def solar_with_element_pools(*elements: str) -> tuple:
    """The solar market with a unit-price pool for each of `elements` and no other."""
    market, cid = make_solar_market()
    market.registry.ensure_account("issuer")
    market.fund_numeraire("issuer", 10 ** 13)
    depth = {"energy": 10 ** 8, "land": 10 ** 9, "carbon": 10 ** 8}
    grant_elements(market, "issuer", {element: depth[element] for element in elements})
    for element in elements:
        market.venues.create_pool(element, 0, depth[element], depth[element], "issuer")
    return market, cid


def test_nav_missing_price():
    # an element with no pool reads (0, 0, 0) in the snapshot: no price, so no NAV
    market, cid = solar_with_element_pools("energy", "carbon")
    with pytest.raises(MissingPrice, match="land"):
        nav_report_of(market, cid)


def test_nav_dot_product_oracle():
    # independent evaluation: sum of amount * price as plain Fractions
    rng = random.Random(0xFEED)
    for _ in range(1000):
        terms = [(rng.randint(1, 10 ** 6), (rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 6)))
                 for _ in range(rng.randint(1, 6))]
        expected = sum((qty * value(p) for qty, p in terms), Fraction(0))
        assert value(basket(terms)) == expected


def test_premium_at_par_is_zero():
    assert premium_bps((1200, 1), (1200, 1)) == 0


def test_premium_ten_percent():
    assert premium_bps((1200 * 11, 10), (1200, 1)) == 1000
    assert premium_bps((1200 * 9, 10), (1200, 1)) == -1000


def test_premium_rounds_half_away_from_zero():
    # 0.25bps -> 0;  0.5bps -> 1;  -0.5bps -> -1
    base = (10_000, 1)
    assert premium_bps((4 * 10_000 + 1, 4), base) == 0
    assert premium_bps((2 * 10_000 + 1, 2), base) == 1
    assert premium_bps((2 * 10_000 - 1, 2), base) == -1


def test_premium_requires_positive_nav():
    with pytest.raises(MissingPrice):
        premium_bps((1, 1), (0, 1))


@given(spot=st.fractions(min_value=0, max_value=10 ** 9),
       navv=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 9),
       scale=st.fractions(min_value=Fraction(1, 1000), max_value=1000))
@settings(max_examples=300, deadline=None)
def test_premium_scale_invariant(spot, navv, scale):
    scaled = premium_bps(pair(spot * scale), pair(navv * scale))
    assert scaled == premium_bps(pair(spot), pair(navv))


@given(prices=st.lists(st.fractions(min_value=Fraction(1, 100), max_value=10 ** 6),
                       min_size=3, max_size=3),
       k=st.fractions(min_value=Fraction(1, 100), max_value=100))
@settings(max_examples=200, deadline=None)
def test_nav_homogeneity(prices, k):
    scaled = [pair(v * k) for v in prices]
    assert value(solar_nav(scaled)) == k * value(solar_nav([pair(v) for v in prices]))


# --- integer ratios against an exact-rational reference ---

def ref_premium_bps(spot: Fraction, navv: Fraction) -> int:
    ratio = (spot - navv) / navv * 10_000
    rounded = math.floor(abs(ratio) + Fraction(1, 2))   # half away from zero
    return rounded if ratio >= 0 else -rounded


def ref_frac_str(x: Fraction) -> str:
    scaled = math.floor(abs(x) * 10 ** 12)               # truncated toward zero
    return f"{'-' if x < 0 else ''}{scaled // 10 ** 12}.{scaled % 10 ** 12:012d}"


prices_st = st.tuples(st.integers(0, 10 ** 12), st.integers(1, 10 ** 12))


@given(comp=st.lists(st.tuples(st.integers(1, 10 ** 9), prices_st), min_size=1, max_size=6),
       spot=st.tuples(st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 12)),
       k=st.integers(1, 10 ** 9))
@settings(max_examples=300, deadline=None)
def test_integer_prices_match_fraction_reference(comp, spot, k):
    expected_nav = sum((a * value(p) for a, p in comp), Fraction(0))
    navv = basket(comp)
    assert value(navv) == expected_nav
    # scaling a price's num and den by k leaves every result unchanged
    assert value(basket((a, (k * n, k * d)) for a, (n, d) in comp)) == expected_nav
    scaled_spot = (k * spot[0], k * spot[1])
    for p in (spot, navv):
        assert frac_str(*p) == ref_frac_str(value(p)) == frac_str(k * p[0], k * p[1])
    if expected_nav > 0:
        expected = ref_premium_bps(value(spot), expected_nav)
        assert premium_bps(spot, navv) == expected
        assert premium_bps(scaled_spot, (k * navv[0], k * navv[1])) == expected
    else:
        with pytest.raises(MissingPrice):
            premium_bps(spot, navv)


@given(navv=st.tuples(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)),
       t=st.integers(-10_000, 10 ** 6), k=st.integers(1, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_premium_half_bps_ties_round_away_from_zero(navv, t, k):
    # spot = nav * (1 + (t + 1/2) / 10_000): a premium of exactly t + 1/2 bps
    spot = (navv[0] * (20_000 + 2 * t + 1), navv[1] * 20_000)
    expected = t + 1 if t >= 0 else t
    assert ref_premium_bps(value(spot), value(navv)) == expected
    assert premium_bps(spot, navv) == expected
    assert premium_bps((k * spot[0], k * spot[1]), (k * navv[0], k * navv[1])) == expected


def test_nav_report_at_par():
    market, cid = make_solar_market()
    seed_solar_pools(market, w_premium_bps=0, pool_fee_bps=0)
    report = nav_report_of(market, cid)
    assert value(report.nav) == 1200
    assert value(report.composite_spot) == 1200
    assert report.premium_bps == 0


def test_nav_report_seeded_premium():
    market, cid = make_solar_market()
    seed_solar_pools(market, w_premium_bps=500, pool_fee_bps=0)
    report = nav_report_of(market, cid)
    assert abs(report.premium_bps - 500) <= 1


def test_nav_report_missing_composite_pool():
    market, cid = solar_with_element_pools("energy", "land", "carbon")
    with pytest.raises(MissingPrice):
        nav_report_of(market, cid)


@pytest.mark.parametrize("emptied", ["land", "W_SOLAR"])
def test_nav_report_of_an_emptied_pool_is_missing_price(emptied):
    market, cid = make_solar_market()
    seed_solar_pools(market, w_premium_bps=0, pool_fee_bps=30)
    lp_token = market.venues.get(emptied).lp_token
    market.venues.remove_liquidity(
        emptied, market.registry.balance_of(lp_token, "issuer"), "issuer")
    with pytest.raises(MissingPrice, match=emptied):
        nav_report_of(market, cid)
