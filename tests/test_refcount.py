"""A dropped market is freed by reference counting alone: the engine builds no cycle,
and the event log is made of objects the cycle collector stops tracking.

Each freeing test runs with the cycle collector off, so an object that is only
freed by a collection stays alive and the test sees it.
"""

import gc
import weakref
from pathlib import Path

import pytest

from conftest import scenario_gen
from twotier import sim
from twotier.ledger import _Memo

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "src" / "twotier" / "scenarios").glob("*.json"))
AUTO_CLAIM = ROOT / "tests" / "fixtures" / "auto_claim.json"


def yield_holders_doc() -> dict:
    """A generated document whose holders earn yield every epoch and half claim it."""
    gen = scenario_gen()
    shape = gen.Shape(epochs=4, genesis_holders=12, auto_claim=6, yield_every=1,
                      noise_traders=4, liquidity_providers=1, funded_accounts=5)
    return gen.generate(shape, seed=5)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def load(name: str) -> sim.ScenarioConfig:
    if name == "generated":
        return sim.parse_config(yield_holders_doc())
    return sim.load_config(str(ROOT / "src" / "twotier" / "scenarios" / f"{name}.json"))


@pytest.mark.parametrize("name", [path.stem for path in SCENARIOS] + ["generated"])
def test_a_dropped_run_is_freed_without_the_collector(name, collector_off):
    result = sim.run(load(name))
    if name == "generated":  # the deposits credited holders and the batched claims ran
        pool, = result.market.yields.pools.values()
        assert pool.total_paid > 0 and pool.accrued_scaled
    registry = weakref.ref(result.market.registry)
    del result
    assert registry() is None


def test_a_dropped_market_is_freed_without_the_collector(collector_off):
    market = sim.build_market(load("solar"))
    assert market.yields.pools
    registry = weakref.ref(market.registry)
    del market
    assert registry() is None


def test_a_dropped_market_that_auto_claimed_is_freed_with_its_pair_cache(collector_off):
    result = sim.run(sim.load_config(str(AUTO_CLAIM)))  # 12 epochs, each ending in claims
    registry = result.market.registry
    (payer, pairs), = registry._pairs.items()
    # the claims of two or more payouts logged their accounts through the pair cache
    shared = [ev for ev in registry.events
              if ev[0] == "transfer" and ev[2] is pairs.get(ev[2][1])]
    assert payer == "yield:W" and set(pairs) == {"alice", "issuer", "bob", "carol"}
    assert len(shared) > 12
    pairs_before = sum(type(obj) is _Memo for obj in gc.get_objects())
    registry = weakref.ref(registry)
    del result, pairs, shared
    assert registry() is None
    assert sum(type(obj) is _Memo for obj in gc.get_objects()) == pairs_before - 1


def test_event_accounts_are_exact_tuples_the_collector_untracks():
    reg = sim.run(load("solar")).market.registry
    assert {type(accounts) for _, _, accounts, _, _ in reg.events} == {tuple}
    assert {len(accounts) for _, _, accounts, _, _ in reg.events} == {0, 1, 2}
    gc.collect()
    assert not any(gc.is_tracked(accounts) for _, _, accounts, _, _ in reg.events)


@pytest.mark.parametrize("path", [ROOT / "src" / "twotier" / "scenarios" / "solar.json",
                                  AUTO_CLAIM], ids=["solar", "auto_claim"])
def test_the_event_log_is_exact_tuples_the_collector_drops(path):
    reg = sim.run(sim.load_config(str(path))).market.registry
    assert all(type(ev) is tuple for ev in reg.events)
    plain = [ev for ev in reg.events if ev[4] is None]  # transfers, mints and burns
    assert len(plain) > len(reg.events) // 2
    # a collection that reaches an event before its accounts tuple untracks only the
    # tuple, so the event leaves at the next one; a tuple subclass never leaves
    gc.collect()
    gc.collect()
    assert not any(map(gc.is_tracked, plain))


def holders_doc(holders: int) -> dict:
    gen = scenario_gen()
    return gen.generate(gen.Shape(epochs=3, genesis_holders=holders), seed=7)


def funded_doc(accounts: int) -> dict:
    gen = scenario_gen()
    return gen.generate(gen.Shape(epochs=3, funded_accounts=accounts, noise_traders=4,
                                  arbitrage=False), seed=7)


def rows_of(cfg: sim.ScenarioConfig) -> list:
    """Every parsed per-account row: funded accounts, genesis mints and genesis credits."""
    return [*cfg.accounts, *(row for a in cfg.assets for row in a.genesis_mint),
            *(row for _, oe in cfg.oracle.elements for row in oe.genesis)]


@pytest.mark.parametrize("name", [path.stem for path in SCENARIOS] + ["holders"])
def test_every_event_and_config_row_is_an_exact_tuple_the_collector_drops(name):
    cfg = sim.parse_config(holders_doc(1_000)) if name == "holders" else load(name)
    reg = sim.run(cfg).market.registry
    rows = rows_of(cfg)
    assert rows and {type(row) for row in rows} == {tuple}
    assert {type(meta) for *_, meta in reg.events} == {tuple, type(None)}
    # a collection untracks at least the innermost tracked tuples, and a create_token
    # event nests three deep: the event, its meta and the meta's (key, value) pairs
    for _ in range(3):
        gc.collect()
    assert not any(map(gc.is_tracked, reg.events))
    assert not any(map(gc.is_tracked, rows))


def tracked_kept_by_a_run(doc: dict) -> int:
    """How many more objects the cycle collector tracks while a run of `doc` and its
    config are alive than before the run."""
    gc.collect()
    before = len(gc.get_objects())
    result = sim.run(sim.parse_config(doc))
    gc.collect()
    gc.collect()
    kept = len(gc.get_objects()) - before
    del result
    return kept


@pytest.mark.parametrize("make,small,large", [(holders_doc, 100, 1_000),
                                              (funded_doc, 200, 2_000)],
                         ids=["genesis_holders", "funded_accounts"])
def test_the_tracked_objects_a_run_keeps_do_not_grow_with_its_accounts(make, small, large):
    small_doc, large_doc = make(small), make(large)
    tracked_kept_by_a_run(small_doc)  # fills the caches a first run fills
    grown = tracked_kept_by_a_run(large_doc) - tracked_kept_by_a_run(small_doc)
    assert grown < 100
