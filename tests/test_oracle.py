import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_element, credit_by_rows, examples, make_solar_market
from twotier.errors import (
    AlreadyFinalized,
    DuplicateAttestation,
    EngineError,
    EpochFinalized,
    ExceedsVerifiedOutput,
    NoAttestations,
    Overflow,
    UnknownElement,
)
from twotier.ledger import BPS, TokenKind, TokenMeta, check_amount
from twotier.market import Market
from twotier.oracle import Attestation, EpochResult, OraclePolicy, median_int

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


ENTRY_POINTS = {
    "submit_attestation": lambda oracle, e: oracle.submit_attestation(att("s1", 5, element=e)),
    "submit_readings": lambda oracle, e: oracle.submit_readings(e, 0, {"s1": 5}),
    "finalize_epoch": lambda oracle, e: oracle.finalize_epoch(e, 0, POLICY),
    "mintable_capacity": lambda oracle, e: oracle.mintable_capacity(e),
    "mint_verified": lambda oracle, e: oracle.mint_verified(e, "issuer", 0),
    "record_verified_output": lambda oracle, e: oracle.record_verified_output(e, 7),
    "credit_genesis": lambda oracle, e: oracle.credit_genesis(e, [("issuer", 7)]),
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
@settings(max_examples=examples(300), deadline=None)
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


# --- genesis credits ----------------------------------------------------------------

def totals(oracle, element: str = "energy") -> tuple[int, int]:
    prod = oracle.production.get(element)
    return (prod.cumulative_accepted, prod.cumulative_minted) if prod else (0, 0)


# "nobody" has no account, and the element "foreign" has a minter other than the oracle
@given(rows=st.lists(st.tuples(st.sampled_from(["issuer", "issuer", "bob", "nobody"]),
                               st.one_of(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                         st.sampled_from([-1, True, 1.0]))), max_size=6),
       element=st.sampled_from(["energy", "energy", "energy", "foreign"]))
@settings(max_examples=examples(300), deadline=None)
def test_credit_genesis_matches_a_loop_of_record_and_mint(rows, element):
    markets = [fresh() for _ in range(2)]
    for market in markets:
        market.registry.create_account("bob")
        market.registry.create_token(TokenMeta(token="foreign", kind=TokenKind.ELEMENT),
                                     authority="elsewhere")
    batched, looped = markets
    error = None
    try:
        for _, amount in rows:  # every amount is checked before any leg is written
            check_amount(amount)
        credit_by_rows(looped.oracle, element, rows)
    except EngineError as exc:
        error = exc
    reg = batched.registry
    before = list(reg.events), reg.state_hash(), totals(batched.oracle, element)
    if error is None:
        batched.oracle.credit_genesis(element, rows)
        assert (list(reg.events), reg.state_hash(), totals(batched.oracle, element)) == (
            looped.registry.events, looped.registry.state_hash(),
            totals(looped.oracle, element))
    else:  # the failing row's own error, nothing written and no total moved
        with pytest.raises(type(error)) as raised:
            batched.oracle.credit_genesis(element, rows)
        assert str(raised.value) == str(error)
        assert (list(reg.events), reg.state_hash(), totals(batched.oracle, element)) == before
    batched.audit()


# --- one round of readings per element ---------------------------------------------

@pytest.mark.parametrize("readings,error", [
    ({"s2": 100, "s1": 101, "s3": 99}, DuplicateAttestation),  # s1 attested before
    ({"s2": 100, "s3": -1}, Overflow),
    ({"s2": 100, "s3": 1.5}, Overflow),
    ({"s2": 100, "s3": True}, Overflow),
])
def test_submit_readings_is_all_or_none(readings, error):
    market = fresh()
    market.oracle.submit_readings("energy", 0, {"s1": 100})
    pending = copy.deepcopy(market.oracle.production["energy"].pending)
    with pytest.raises(error):
        market.oracle.submit_readings("energy", 0, readings)
    assert market.oracle.production["energy"].pending == pending
    with pytest.raises(ValueError, match="epoch"):
        market.oracle.submit_readings("energy", -1, {"s9": 1})
    market.oracle.submit_readings("energy", 0, {})  # an empty round files nothing
    market.oracle.submit_readings("energy", 1, {})
    assert market.oracle.production["energy"].pending == pending


def reference_finalize(prod, element, epoch, policy):
    """The round's result by the definition: median, drop the sources outside the
    deviation band around it, re-median the survivors."""
    def median(values):
        vs = sorted(values)
        mid = len(vs) // 2
        return vs[mid] if len(vs) % 2 else (vs[mid - 1] + vs[mid]) // 2

    if epoch in prod.finalized:
        raise AlreadyFinalized(f"{element} epoch {epoch}")
    bucket = prod.pending.pop(epoch, None)
    if not bucket:
        raise NoAttestations(f"{element} epoch {epoch}")
    m = median(bucket.values())
    outliers = {src for src, v in bucket.items()
                if abs(v - m) * BPS > m * policy.max_deviation_bps}
    survivors = [v for src, v in bucket.items() if src not in outliers]
    failed = len(survivors) < policy.min_sources
    result = EpochResult(element, epoch, accepted=0 if failed else median(survivors),
                         rejected_sources=sorted(outliers), failed=failed)
    prod.cumulative_accepted += result.accepted
    prod.finalized.add(epoch)
    return result


def outcome(call):
    """The call's result, or the type of the error it raised."""
    try:
        return call()
    except (DuplicateAttestation, EpochFinalized, AlreadyFinalized, NoAttestations) as exc:
        return type(exc)


# (epoch, {source: measured}, finalize after filing)
ROUND = st.tuples(st.integers(0, 2),
                  st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                                  st.integers(0, 120), min_size=1, max_size=5),
                  st.booleans())


@given(rounds=st.lists(ROUND, max_size=12),
       policy=st.builds(OraclePolicy, min_sources=st.integers(1, 4),
                        max_deviation_bps=st.integers(1, 3000)))
@settings(max_examples=examples(300), deadline=None)
def test_submit_readings_and_finalize_match_sequential_attestations(rounds, policy):
    batched, sequential = fresh(), fresh()
    for market in (batched, sequential):  # an empty round makes no record to compare
        market.oracle._record("energy")

    def attest_each(epoch, readings):
        before = copy.deepcopy(sequential.oracle.production["energy"].pending)
        try:
            for source, measured in readings.items():
                sequential.oracle.submit_attestation(att(source, measured, epoch))
        except Exception:  # the reference files a round all or none too
            sequential.oracle.production["energy"].pending = before
            raise

    for epoch, readings, finalize in rounds:
        assert (outcome(lambda: batched.oracle.submit_readings("energy", epoch, readings))
                == outcome(lambda: attest_each(epoch, readings)))
        if finalize:
            assert (outcome(lambda: batched.oracle.finalize_epoch("energy", epoch, policy))
                    == outcome(lambda: reference_finalize(
                        sequential.oracle._record("energy"), "energy", epoch, policy)))
        assert batched.oracle.production == sequential.oracle.production
