import json
from pathlib import Path

import pytest

import twotier
from twotier.cli import main

SCENARIOS = Path(twotier.__file__).parent / "scenarios"
SOLAR = str(SCENARIOS / "solar.json")


@pytest.fixture
def solar_copy(tmp_path):
    path = tmp_path / "solar.json"
    path.write_text(Path(SOLAR).read_text())
    return str(path)


def test_validate_ok(capsys):
    assert main(["validate", SOLAR]) == 0
    assert "ok" in capsys.readouterr().out.lower()


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/nope.json"]) == 1


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "report"])
def test_a_too_deeply_nested_document_exits_1_with_one_line(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 2000 + "]" * 2000)  # deeper than json.load recurses
    assert main([command, str(deep)]) == 1
    assert capsys.readouterr().err == f"error: {deep}: nested too deeply to parse\n"


def test_validate_unknown_reference(tmp_path, capsys):
    doc = json.loads(Path(SOLAR).read_text())
    doc["pools"][0]["base"] = "unobtainium"
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "unobtainium" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", SOLAR, "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("epoch,")
    assert len(metrics) == 1 + 70
    events = (out / "events.jsonl").read_text().splitlines()
    assert events
    first = json.loads(events[0])
    assert {"seq", "op", "token"} <= set(first)


def test_run_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", SOLAR, "--out", str(out1)]) == 0
    assert main(["run", SOLAR, "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()


def test_run_seed_override_changes_nothing_without_noise(tmp_path):
    # solar has no noise traders, so the seed only drives agent shuffling
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", SOLAR, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["run", SOLAR, "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_report_prints_nav_table(capsys):
    assert main(["report", SOLAR]) == 0
    out = capsys.readouterr().out
    assert "W_SOLAR" in out
    assert "nav" in out.lower()


# `twotier report` stdout for each shipped scenario, recorded before prices
# became integer ratios: the rendering must not change with the arithmetic
REPORT = {
    "solar": "W_SOLAR             1200.000000000000    1200.000000000000            0\n",
    "mine": "W_MINE             26000.000000000000   26000.000000000000            0\n",
    "datacenter": "W_DC               17200.000000000000   17200.000000000000            0\n",
}


@pytest.mark.parametrize("scenario", list(REPORT))
def test_report_output_is_pinned(capsys, scenario):
    assert main(["report", str(SCENARIOS / f"{scenario}.json")]) == 0
    header = "asset                             nav                 spot  premium_bps\n"
    assert capsys.readouterr().out == header + REPORT[scenario]


# `twotier routes` output for each shipped scenario, recorded before the
# one-sided routes and the arbitrage cycles were priced from one snapshot.
# At 100000 units some routes have no quote: the composite pool or an
# element pool cannot deliver it. No dispose of 100000 is quoted: holders
# outside the composite pool hold 50000 (solar, datacenter) or 30000 (mine).
ROUTES = {
    ("solar", "acquire", 100): (0, """\
direct_w                     cost=120483 legs=1
buy_elements_then_mint_w     cost=120607 legs=4
best: direct_w cost=120483
""", ""),
    ("solar", "acquire", 100_000): (1, "", "error: acquire 100000 of W_SOLAR\n"),
    ("solar", "dispose", 100): (0, """\
direct_w                     proceeds=118682 legs=1
redeem_then_sell_elements    proceeds=119400 legs=4
best: redeem_then_sell_elements proceeds=119400
""", ""),
    ("solar", "dispose", 100_000): (1, "", "error: dispose 100000 of W_SOLAR\n"),
    ("mine", "acquire", 100): (0, """\
direct_w                     cost=2620929 legs=1
buy_elements_then_mint_w     cost=2614756 legs=5
best: buy_elements_then_mint_w cost=2614756
""", ""),
    ("mine", "acquire", 100_000): (0, """\
buy_elements_then_mint_w     cost=5236551342 legs=5
best: buy_elements_then_mint_w cost=5236551342
""", ""),
    ("mine", "dispose", 100): (0, """\
direct_w                     proceeds=2561321 legs=1
redeem_then_sell_elements    proceeds=2584963 legs=5
best: redeem_then_sell_elements proceeds=2584963
""", ""),
    ("mine", "dispose", 100_000): (1, "", "error: dispose 100000 of W_MINE\n"),
    ("datacenter", "acquire", 100): (0, """\
direct_w                     cost=1728633 legs=1
buy_elements_then_mint_w     cost=1736886 legs=5
best: direct_w cost=1728633
""", ""),
    ("datacenter", "acquire", 100_000): (0, """\
buy_elements_then_mint_w     cost=3457258669 legs=5
best: buy_elements_then_mint_w cost=3457258669
""", ""),
    ("datacenter", "dispose", 100): (0, """\
direct_w                     proceeds=1699435 legs=1
redeem_then_sell_elements    proceeds=1696163 legs=5
best: direct_w proceeds=1699435
""", ""),
    ("datacenter", "dispose", 100_000): (1, "", "error: dispose 100000 of W_DC\n"),
}
COMPOSITE = {"solar": "W_SOLAR", "mine": "W_MINE", "datacenter": "W_DC"}


@pytest.mark.parametrize("scenario, side, qty", list(ROUTES))
def test_routes_output_is_pinned(capsys, scenario, side, qty):
    code = main(["routes", str(SCENARIOS / f"{scenario}.json"), "--asset", COMPOSITE[scenario],
                 "--side", side, "--qty", str(qty)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == ROUTES[scenario, side, qty]


# One `twotier routes` output per document under tests/fixtures/; 100 units of
# W_GRID (decimals 2) are 1.00 composite.
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_ROUTES = {
    ("auto_claim", "W", "acquire"): """\
direct_w                     cost=10236 legs=1
buy_elements_then_mint_w     cost=10143 legs=2
best: buy_elements_then_mint_w cost=10143
""",
    ("two_assets", "W_GRID", "dispose"): """\
direct_w                     proceeds=43538 legs=1
redeem_then_sell_elements    proceeds=43797 legs=3
best: redeem_then_sell_elements proceeds=43797
""",
}


@pytest.mark.parametrize("fixture, asset, side", list(FIXTURE_ROUTES))
def test_fixture_routes_output_is_pinned(capsys, fixture, asset, side):
    code = main(["routes", str(FIXTURES / f"{fixture}.json"), "--asset", asset,
                 "--side", side, "--qty", "100"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, FIXTURE_ROUTES[fixture, asset, side], "")


def test_routes_acquire(capsys):
    assert main(["routes", SOLAR, "--asset", "W_SOLAR", "--side", "acquire",
                 "--qty", "100"]) == 0
    out = capsys.readouterr().out
    assert "direct_w" in out
    assert "buy_elements_then_mint_w" in out
    assert "best" in out.lower()


def test_routes_dispose(capsys):
    assert main(["routes", SOLAR, "--asset", "W_SOLAR", "--side", "dispose",
                 "--qty", "100"]) == 0
    out = capsys.readouterr().out
    assert "redeem_then_sell_elements" in out


def test_routes_unknown_asset():
    assert main(["routes", SOLAR, "--asset", "W_MOON", "--side", "acquire",
                 "--qty", "1"]) == 1


def test_routes_zero_qty():
    assert main(["routes", SOLAR, "--asset", "W_SOLAR", "--side", "acquire",
                 "--qty", "0"]) == 1


def test_other_scenarios_run(tmp_path):
    for name in ("mine.json", "datacenter.json"):
        out = tmp_path / name
        assert main(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", SOLAR],  # --out missing
    ["routes", SOLAR, "--asset", "W_SOLAR", "--side", "acquire", "--qty", "abc"],
])
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 is reserved for invariant violations
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_negative_seed_rejected_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", SOLAR, "--out", str(out), "--seed", "-1"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_run_into_unwritable_out_exits_1(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    assert main(["run", SOLAR, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}")
    assert captured.out == ""  # refused before the run, not after it


def test_run_export_failure_exits_1(tmp_path, capsys):
    (tmp_path / "metrics.csv").mkdir()
    assert main(["run", SOLAR, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'metrics.csv'}")


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
