"""Checks of the benchmark itself: generator, audit, tracer, result contract.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from array import array

import pytest

import audit
import run as bench
import tracer as tracing
import twotier.pricing
import twotier.sim as sim
from scenario_gen import Shape, dump, generate
from twotier.cli import main as twotier_main
from twotier.ledger import Registry

SMALL = Shape(epochs=6, funded_accounts=20, noise_traders=4, liquidity_providers=2,
              genesis_holders=6, auto_claim=4, yield_every=2)


def small_jobs(tmp_path, seed=3):
    path = tmp_path / "small.json"
    path.write_text(dump(generate(SMALL, seed)))
    return [bench.Job("small", str(path))]


@pytest.mark.parametrize("shape", [SMALL, *bench.SHAPES.values()])
def test_generator_is_seeded_and_valid(tmp_path, shape):
    text = dump(generate(shape, 11))
    assert text == dump(generate(shape, 11))
    assert text != dump(generate(shape, 12))
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert twotier_main(["validate", str(path)]) == 0
    doc = json.loads(text)
    assert len(doc["auto_claim"]) == shape.auto_claim
    assert set(doc["auto_claim"]) <= {a["id"] for a in doc["accounts"]}


def test_audit_passes_clean_run_and_catches_corrupted_balances(tmp_path):
    [out] = bench.run_pass(sim, small_jobs(tmp_path), str(tmp_path))
    assert out.error is None
    assert audit.check(out.result, out.paths[1]) == []

    reg = out.result.market.registry
    holder = reg.holders("NUM")[0]
    reg._balances["NUM"][holder] += 1          # supply unchanged
    assert any("conservation NUM" in p for p in audit.check(out.result))

    # a move that keeps every sum right is still caught by the replay
    reg._balances["NUM"][holder] -= 1
    other = reg.holders("NUM")[1]
    reg._balances["NUM"][holder] -= 1
    reg._balances["NUM"][other] += 1
    assert audit.check(out.result) == []
    assert any("replayed" in p for p in audit.check(out.result, out.paths[1]))


def test_traced_pass_reproduces_untraced_outputs(tmp_path):
    jobs = small_jobs(tmp_path)
    plain = bench.run_pass(sim, jobs, str(tmp_path))
    bench.audit_pass(plain, None)
    reference = {o.label: o.fingerprint for o in plain}

    originals = (Registry.__dict__["transaction"], sim.nav_report, sim.build_market)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.run_pass(sim, jobs, str(tmp_path))
    finally:
        tracer.uninstall()
    bench.audit_pass(traced, reference)
    assert [o.error for o in traced] == [None]
    assert (Registry.__dict__["transaction"], sim.nav_report, sim.build_market) == originals
    assert sim.nav_report is twotier.pricing.nav_report

    layers = tracer.layer_metrics(sim.Arbitrageur.MAX_PASSES)
    assert set(layers) | {"ledger.events", "ledger.accounts", "export.bytes",
                          "trace.overhead_pct"} == set(bench.PER_LAYER)
    for name in ("ledger.transfer", "ledger.transaction", "amm.swap_exact_in",
                 "yields.claim", "sim.build_market", "export.export_events",
                 "sim.LiquidityProvider.act", "amm.add_liquidity"):
        assert layers[f"{name}.calls"] > 0, name
    # from-imported names are traced where sim calls them
    assert layers["pricing.nav_report.calls"] >= SMALL.epochs
    assert layers["arbitrage.detect_arbitrage.calls"] >= SMALL.epochs


def test_exception_leaving_a_transaction_counts_as_rollback():
    from twotier.errors import InsufficientBalance
    from twotier.market import Market

    market = Market()
    market.fund_numeraire("a", 5)
    market.registry.ensure_account("b")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(InsufficientBalance):
            with market.registry.transaction():
                market.registry.transfer("NUM", "a", "b", 3)
                market.registry.transfer("NUM", "a", "b", 3)
    finally:
        tracer.uninstall()
    assert market.registry.balance_of("NUM", "a") == 5     # rolled back
    m = tracer.layer_metrics(max_passes=16)
    assert m["ledger.rollbacks"] == 1
    assert m["ledger.transfer.calls"] == 2
    # both transfers ran inside the transaction span
    assert m["ledger.transaction.self_s"] < tracer.inclusive_s()["ledger.transaction"]


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    detect, quote = (tracing.NAMES.index(n) for n in
                     ("arbitrage.detect_arbitrage", "amm.quote_exact_in"))
    t.name = array("H", [detect, quote, quote])
    t.parent = array("l", [-1, 0, 0])
    t.start = array("d", [0.0, 1.0, 5.0])
    t.end = array("d", [10.0, 4.0, 6.0])
    t.flag = array("b", [tracing.FLAG_SET, 0, 0])
    m = t.layer_metrics(max_passes=16)
    assert m["arbitrage.detect_arbitrage.self_s"] == 6.0
    assert m["amm.quote_exact_in.self_s"] == 4.0
    assert m["amm.quote_exact_in.us_p50"] == 2.0e6
    assert m["arbitrage.quotes_per_detect"] == 2.0
    assert m["arbitrage.plan_ratio"] == 1.0
    assert t.inclusive_s() == {"arbitrage.detect_arbitrage": 10.0,
                               "amm.quote_exact_in": 4.0}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_exits_nonzero_without_engine_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenarios", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
