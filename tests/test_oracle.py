import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_element, make_solar_market
from twotier.errors import (
    AlreadyFinalized,
    DuplicateAttestation,
    EpochFinalized,
    ExceedsVerifiedOutput,
    NoAttestations,
    UnknownElement,
)
from twotier.market import Market
from twotier.oracle import Attestation, OraclePolicy, median_int

POLICY = OraclePolicy(min_sources=2, max_deviation_bps=500, twa_window=3)


def fresh():
    market = Market()
    add_element(market, "energy")
    market.registry.create_account("issuer")
    return market


def att(source, value, epoch=0, element="energy"):
    return Attestation(source=source, element=element, epoch=epoch, measured=value)


def submit_all(market, values, epoch=0):
    for i, v in enumerate(values):
        market.oracle.submit_attestation(att(f"s{i}", v, epoch))


def test_median_odd_even():
    assert median_int([3, 1, 2]) == 2
    assert median_int([100, 102]) == 101
    assert median_int([1, 2, 3, 10]) == 2  # floor of (2+3)/2


def test_submit_and_duplicate():
    market = fresh()
    market.oracle.submit_attestation(att("s1", 100))
    with pytest.raises(DuplicateAttestation):
        market.oracle.submit_attestation(att("s1", 100))


def test_submit_after_finalize():
    market = fresh()
    submit_all(market, [100, 102])
    market.oracle.finalize_epoch("energy", 0, POLICY)
    with pytest.raises(EpochFinalized):
        market.oracle.submit_attestation(att("late", 100))


def test_finalize_guard_example():
    # values (100, 102, 140) at 500 bps: median 102, 140 rejected,
    # survivors re-median to 101
    market = fresh()
    submit_all(market, [100, 102, 140])
    result = market.oracle.finalize_epoch("energy", 0, POLICY)
    assert result.rejected_sources == ["s2"]
    assert result.accepted == 101
    assert not result.failed


def test_finalize_quorum_failure():
    market = fresh()
    market.oracle.submit_attestation(att("s1", 100))
    result = market.oracle.finalize_epoch("energy", 0, POLICY)
    assert result.failed and result.accepted == 0


def test_finalize_consensus():
    market = fresh()
    submit_all(market, [50, 50, 50])
    result = market.oracle.finalize_epoch("energy", 0, POLICY)
    assert result.accepted == 50
    assert result.rejected_sources == []


def test_finalize_errors():
    market = fresh()
    with pytest.raises(NoAttestations):
        market.oracle.finalize_epoch("energy", 0, POLICY)
    submit_all(market, [100, 102])
    market.oracle.finalize_epoch("energy", 0, POLICY)
    with pytest.raises(AlreadyFinalized):
        market.oracle.finalize_epoch("energy", 0, POLICY)


def test_mintable_capacity_lifecycle():
    market = fresh()
    assert market.oracle.mintable_capacity("energy") == 0
    submit_all(market, [100, 102, 140])
    market.oracle.finalize_epoch("energy", 0, POLICY)
    assert market.oracle.mintable_capacity("energy") == 101
    market.oracle.mint_verified("energy", "issuer", 40)
    assert market.oracle.mintable_capacity("energy") == 61


def test_mint_verified_boundary_and_overshoot():
    market = fresh()
    submit_all(market, [101, 101])
    market.oracle.finalize_epoch("energy", 0, POLICY)
    market.oracle.mint_verified("energy", "issuer", 50)
    market.oracle.mint_verified("energy", "issuer", 51)
    assert market.oracle.mintable_capacity("energy") == 0
    with pytest.raises(ExceedsVerifiedOutput):
        market.oracle.mint_verified("energy", "issuer", 1)


def test_twa_output():
    market = fresh()
    for epoch, values in enumerate([[100, 100], [77], [80, 80]]):
        for i, v in enumerate(values):
            market.oracle.submit_attestation(att(f"s{i}", v, epoch))
        market.oracle.finalize_epoch("energy", epoch, POLICY)
    # epoch 1 fails quorum -> contributes 0; floor(180/3) = 60
    assert market.oracle.twa_output("energy", 2, POLICY) == 60
    assert market.oracle.twa_output("energy", 0,
                                    OraclePolicy(2, 500, 1)) == 100
    assert market.oracle.twa_output("energy", 9, POLICY) == 0  # nothing finalized in 7..9
    with pytest.raises(UnknownElement):
        market.oracle.twa_output("other", 5, POLICY)


ENTRY_POINTS = {
    "submit_attestation": lambda oracle, e: oracle.submit_attestation(att("s1", 5, element=e)),
    "finalize_epoch": lambda oracle, e: oracle.finalize_epoch(e, 0, POLICY),
    "mintable_capacity": lambda oracle, e: oracle.mintable_capacity(e),
    "mint_verified": lambda oracle, e: oracle.mint_verified(e, "issuer", 0),
    "twa_output": lambda oracle, e: oracle.twa_output(e, 3, POLICY),
    "record_verified_output": lambda oracle, e: oracle.record_verified_output(e, 7),
}


@pytest.mark.parametrize("element", ["nosuch", "NUM", "W_SOLAR"])  # unknown, numeraire, composite
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_an_id_that_is_not_an_element(entry, element):
    market, _ = make_solar_market()
    market.registry.create_account("issuer")
    with pytest.raises(UnknownElement):
        ENTRY_POINTS[entry](market.oracle, element)
    assert market.oracle.production == {}
    market.audit()


def test_finalize_order_independent():
    values = [90, 100, 95, 300, 99]
    results = []
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        market = fresh()
        for i in order:
            market.oracle.submit_attestation(att(f"s{i}", values[i]))
        results.append(market.oracle.finalize_epoch("energy", 0, POLICY).accepted)
    assert results[0] == results[1] == results[2]


def test_supply_soundness_interleaved():
    market = fresh()
    minted = 0
    for epoch in range(20):
        submit_all(market, [100 + epoch, 100 + epoch], epoch)
        market.oracle.finalize_epoch("energy", epoch, POLICY)
        cap = market.oracle.mintable_capacity("energy")
        take = cap // 2 + 1 if cap else 0
        if take:
            market.oracle.mint_verified("energy", "issuer", take)
            minted += take
        ledger = market.oracle.production["energy"]
        assert ledger.cumulative_minted <= ledger.cumulative_accepted
        assert market.registry.total_supply("energy") == minted


@given(base=st.integers(100, 10 ** 6),
       jitter=st.lists(st.integers(-200, 200), min_size=3, max_size=9),
       adversarial=st.integers(0, 10 ** 12))
@settings(max_examples=300, deadline=None)
def test_outlier_robustness(base, jitter, adversarial):
    # honest sources agree within ~2%; one adversarial source (up to 10^6x
    # the honest level) moves the result at most the deviation band around
    # the honest median
    honest = [base + base * j // 10_000 for j in jitter]
    market = fresh()
    submit_all(market, honest)
    market.oracle.submit_attestation(att("adv", adversarial))
    result = market.oracle.finalize_epoch("energy", 0, POLICY)
    m = median_int(honest)
    band = m * POLICY.max_deviation_bps // 10_000 + 1
    assert not result.failed
    assert abs(result.accepted - m) <= band
