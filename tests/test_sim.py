import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotier
from conftest import reference_claim
from twotier import sim
from twotier.cli import main as cli_main
from twotier.errors import (
    ConfigError,
    EngineError,
    InsufficientBalance,
    InvariantViolation,
    ParseError,
    UnknownReference,
)
from twotier.sim import export_csv, export_events, load_config, parse_config, run
from twotier.yields import INDEX_SCALE, YieldVault

SCENARIOS = Path(twotier.__file__).parent / "scenarios"


def solar_doc():
    return json.loads((SCENARIOS / "solar.json").read_text())


def mini_doc(epochs=5, seed=7):
    """Small self-contained scenario: one element, one composite, both pooled."""
    return {
        "seed": seed,
        "epochs": epochs,
        "numeraire": {"id": "NUM", "decimals": 0},
        "tokens": [{"id": "energy", "kind": "element", "decimals": 0}],
        "assets": [{
            "composite": "W",
            "decimals": 0,
            "composition": {"energy": "10"},
            "mint_fee_bps": 0,
            "redeem_fee_bps": 0,
            "genesis_mint": [{"account": "issuer", "q": "10000"}],
        }],
        "oracle": {
            "policy": {"min_sources": 1, "max_deviation_bps": 500,
                       "twa_window": 3},
            "elements": {
                "energy": {
                    "sources": ["s1"],
                    "per_epoch": "1000",
                    "mint_to": "issuer",
                    "genesis": [{"account": "issuer", "amount": "1000000"}],
                },
            },
        },
        "accounts": [{"id": "issuer", "numeraire": "1000000000"}],
        "pools": [
            {"base": "energy", "fee_bps": 30, "seed_base": "100000",
             "seed_numeraire": "100000", "provider": "issuer"},
            {"base": "W", "fee_bps": 30, "seed_base": "5000",
             "seed_numeraire": "50000", "provider": "issuer"},
        ],
        "agents": [
            {"kind": "noise_trader", "id": "n1", "pool": "energy",
             "budget": "100000", "sigma": "2.0", "mu": "3.0",
             "intensity": "1.0"},
            {"kind": "arbitrageur", "id": "arb", "asset": "W",
             "min_profit": "1", "max_size": "1000"},
        ],
        "shocks": [],
        "yield_schedule": [],
    }


# --- config validation ------------------------------------------------------


def test_parse_solar_scenario():
    cfg = parse_config(solar_doc())
    assert cfg.epochs == 70
    assert cfg.seed == 42


def test_unknown_element_in_composition():
    doc = mini_doc()
    doc["assets"][0]["composition"] = {"plutonium": 1}
    with pytest.raises(UnknownReference) as exc:
        parse_config(doc)
    assert "plutonium" in str(exc.value)


def test_unknown_pool_base():
    doc = mini_doc()
    doc["pools"][0]["base"] = "nothing"
    with pytest.raises(UnknownReference):
        parse_config(doc)


def test_agent_referencing_missing_pool():
    doc = mini_doc()
    doc["agents"][0]["pool"] = "missing"
    with pytest.raises(UnknownReference):
        parse_config(doc)


def test_negative_amount_rejected():
    doc = mini_doc()
    doc["accounts"][0]["numeraire"] = "-5"
    with pytest.raises(ParseError) as exc:
        parse_config(doc)
    assert "accounts" in str(exc.value)


def test_non_integer_amount_rejected():
    doc = mini_doc()
    doc["pools"][0]["seed_base"] = "12.5"
    with pytest.raises(ParseError):
        parse_config(doc)


@pytest.mark.parametrize("section,entry,path", [
    ("shocks", {"pool": "W", "epoch": 1, "magnitude_bps": -10000},
     "shocks[0].magnitude_bps"),
    ("shocks", {"pool": "W", "epoch": 5, "magnitude_bps": 500}, "shocks[0].epoch"),
    ("yield_schedule", {"asset": "W", "epoch": 5, "amount": "100", "payer": "issuer"},
     "yield_schedule[0].epoch"),
    ("yield_schedule", {"asset": "W", "epoch": -1, "amount": "100", "payer": "issuer"},
     "yield_schedule[0].epoch"),
])
def test_schedule_entries_that_never_act_rejected(section, entry, path):
    doc = mini_doc(epochs=5)
    doc[section] = [entry]
    with pytest.raises(ParseError) as exc:
        parse_config(doc)
    assert str(exc.value).startswith(path)


LP = {"kind": "liquidity_provider", "id": "lp", "pool": "energy", "base": "100",
      "numeraire": "1000", "join_epoch": 1, "exit_epoch": 3, "budget": "10000"}
SHOCK = {"pool": "W", "epoch": 2, "magnitude_bps": 500}
DROP = object()


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def edited(doc, *edits):
    """`doc` with each (path, value) edit applied; DROP deletes the key, an
    index one past the end appends, and the empty path replaces the root."""
    for path, value in edits:
        if not path:
            doc = value
            continue
        node, last = value_at(doc, path[:-1]), path[-1]
        if value is DROP:
            del node[last]
        elif isinstance(node, list) and last == len(node):
            node.append(value)
        else:
            node[last] = value
    return doc


def rejected(label, path, error, *edits):
    return pytest.param(edits, error, path, id=label)


@pytest.mark.parametrize("edits,error,path", [
    # raised a raw exception in run, or in parsing itself
    rejected("sigma-900", "agents[0].sigma", ParseError, (("agents", 0, "sigma"), 900)),
    rejected("intensity-text", "agents[0].intensity", ParseError,
             (("agents", 0, "intensity"), "abc")),
    rejected("mu-text", "agents[0].mu", ParseError, (("agents", 0, "mu"), "x")),
    rejected("pool-fee-10000", "pools[0].fee_bps", ParseError,
             (("pools", 0, "fee_bps"), 10000)),
    rejected("pool-fee-negative", "pools[1].fee_bps", ParseError,
             (("pools", 1, "fee_bps"), -1)),
    rejected("mint-fee-20000", "assets[0].mint_fee_bps", ParseError,
             (("assets", 0, "mint_fee_bps"), 20000)),
    rejected("token-decimals-40", "tokens[0].decimals", ParseError,
             (("tokens", 0, "decimals"), 40)),
    rejected("asset-decimals-40", "assets[0].decimals", ParseError,
             (("assets", 0, "decimals"), 40)),
    rejected("numeraire-decimals-40", "numeraire.decimals", ParseError,
             (("numeraire", "decimals"), 40)),
    rejected("sigma-negative", "agents[0].sigma", ParseError, (("agents", 0, "sigma"), -1)),
    rejected("seed-negative", "seed", ParseError, (("seed",), -1)),
    rejected("join-epoch-text", "agents[2].join_epoch", ParseError,
             (("agents", 2), dict(LP, join_epoch="abc"))),
    rejected("top-level-list", "scenario", ParseError, ((), [])),
    # passed validation, then failed in run
    rejected("composition-zero", "assets[0].composition.energy", ParseError,
             (("assets", 0, "composition", "energy"), "0")),
    rejected("duplicate-token", "tokens[1].id", ParseError, (("tokens", 1), {"id": "energy"})),
    rejected("duplicate-pool", "pools[2].base", ParseError,
             (("pools", 2), {"base": "energy", "seed_base": "1", "seed_numeraire": "1",
                             "provider": "issuer"})),
    rejected("pool-seed-zero", "pools[1].seed_base", ParseError,
             (("pools", 1, "seed_base"), "0")),
    # accepted silently
    rejected("duplicate-account", "accounts[1].id", ParseError,
             (("accounts", 1), {"id": "issuer"})),
    rejected("duplicate-agent", "agents[2].id", ParseError,
             (("agents", 2), {"kind": "noise_trader", "id": "n1", "pool": "W"})),
    rejected("per-epoch-short", "oracle.elements.energy.per_epoch", ParseError,
             (("oracle", "elements", "energy", "per_epoch"), ["1000"] * 4)),
    rejected("enabled-string", "agents[1].enabled", ParseError,
             (("agents", 1, "enabled"), "false")),
    rejected("epochs-float", "epochs", ParseError, (("epochs",), 1.5)),
    rejected("intensity-5", "agents[0].intensity", ParseError,
             (("agents", 0, "intensity"), 5)),
    rejected("unknown-key", "agents[0].sgima", ParseError, (("agents", 0, "sgima"), "1.0")),
    # reported without a path
    rejected("missing-key", "assets[0].composite", ParseError,
             (("assets", 0, "composite"), DROP)),
    # agents and shocks that could never act, and ids the engine owns
    rejected("shock-zero", "shocks[0].magnitude_bps", ParseError,
             (("shocks", 0), dict(SHOCK, magnitude_bps=0))),
    rejected("agent-pool-without-pool", "agents[0].pool", UnknownReference,
             (("pools", 0), DROP)),
    rejected("shock-pool-without-pool", "shocks[0].pool", UnknownReference,
             (("agents", 0, "pool"), "W"), (("pools", 0), DROP),
             (("shocks", 0), dict(SHOCK, pool="energy"))),
    rejected("exit-before-join", "agents[2].exit_epoch", ParseError,
             (("agents", 2), dict(LP, exit_epoch=0))),
    rejected("unknown-agent-kind", "agents[0].kind", ParseError,
             (("agents", 0, "kind"), "market_maker")),
    rejected("duplicate-source", "oracle.elements.energy.sources", ParseError,
             (("oracle", "elements", "energy", "sources"), ["s1", "s1"])),
    rejected("too-few-sources", "oracle.elements.energy.sources", ParseError,
             (("oracle", "policy", "min_sources"), 2)),
    rejected("engine-account-id", "accounts[1].id", ParseError,
             (("accounts", 1), {"id": "escrow:W"})),
])
def test_validate_rejects_with_path(edits, error, path):
    with pytest.raises(error) as exc:
        parse_config(edited(mini_doc(), *edits))
    assert str(exc.value).startswith(f"{path}: ")


def lp_shock_doc():
    return edited(mini_doc(), (("agents", 2), dict(LP)), (("shocks", 0), dict(SHOCK)))


HOSTILE = [None, True, False, -1, 0, 1.5, "abc", 10 ** 40, float("nan"), float("inf"),
           [], {}]


def positions(node, path=()):
    """Paths of every value inside a document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from positions(child, path + (key,))


@st.composite
def hostile_documents(draw):
    """mini_doc, or its variant with an LP and a shock, with one leaf set to a
    hostile value, one key deleted or one unknown key added."""
    doc = draw(st.sampled_from([mini_doc, lp_shock_doc]))()
    paths = list(positions(doc))
    action = draw(st.sampled_from(["set", "delete", "add"]))
    if action == "add":
        objects = [()] + [p for p in paths if isinstance(value_at(doc, p), dict)]
        return edited(doc, (draw(st.sampled_from(objects)) + ("bogus",), 1))
    if action == "delete":
        return edited(doc, (draw(st.sampled_from(paths)), DROP))
    leaves = [p for p in paths if not isinstance(value_at(doc, p), (dict, list))]
    return edited(doc, (draw(st.sampled_from(leaves)), draw(st.sampled_from(HOSTILE))))


@given(hostile_documents())
@settings(max_examples=200, deadline=None)
def test_hostile_documents_are_rejected_or_run(doc):
    """A document either fails validation with a ConfigError or runs, with
    every epoch's audit passing, to the end or to an EngineError; nothing
    else escapes."""
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    if cfg.epochs <= 20:
        try:
            run(cfg)
        except InvariantViolation:
            raise
        except EngineError:
            pass


def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,\n  "epochs": }')
    with pytest.raises(ParseError) as exc:
        load_config(str(bad))
    assert ":2:" in str(exc.value)  # file:line:col diagnostic


def test_load_config_rejects_undecodable_bytes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\xe9"}')
    with pytest.raises(ParseError) as exc:
        load_config(str(bad))
    assert str(exc.value).startswith(f"cannot read {bad}")


def test_zero_epochs_produces_no_rows():
    result = run(parse_config(mini_doc(epochs=0)))
    assert result.rows == []
    assert result.header[0] == "epoch"


# --- runs --------------------------------------------------------------------


def test_row_count_and_header_shape():
    result = run(parse_config(mini_doc(epochs=5)))
    assert len(result.rows) == 5
    assert result.header[0] == "epoch"
    for name in ("W_nav", "W_spot", "W_premium_bps", "W_arb_trades",
                 "W_arb_profit", "W_supply", "W_backing_ok",
                 "energy_spot", "energy_supply"):
        assert name in result.header
    for i, row in enumerate(result.rows):
        assert len(row) == len(result.header)
        assert row[0] == str(i)


def test_metrics_row_of_an_emptied_pool_is_nan():
    # a valid scenario cannot empty a pool (its seed LP stays with a config
    # account); through the API, the row shows nan where a price is missing
    cfg = parse_config(solar_doc())
    market = sim.build_market(cfg)
    lp_token = market.venues.get("land").lp_token
    market.venues.remove_liquidity(
        "land", market.registry.balance_of(lp_token, "issuer"), "issuer")
    row = dict(zip(sim._metrics_header(cfg), sim._metrics_row(cfg, market, 0, {})))
    assert [row[c] for c in ("W_SOLAR_nav", "W_SOLAR_spot", "W_SOLAR_premium_bps",
                             "land_spot")] == ["nan"] * 4
    assert row["energy_spot"] == "1.000000000000"
    assert row["W_SOLAR_backing_ok"] == "1"


def test_backing_flag_always_set():
    result = run(parse_config(mini_doc(epochs=10)))
    col = result.header.index("W_backing_ok")
    assert all(row[col] == "1" for row in result.rows)


def test_determinism_identical_bytes(tmp_path):
    paths = []
    for tag in ("a", "b"):
        result = run(parse_config(mini_doc(epochs=8)))
        csv_path = tmp_path / f"{tag}.csv"
        ev_path = tmp_path / f"{tag}.jsonl"
        export_csv(result, str(csv_path))
        export_events(result, str(ev_path))
        paths.append((csv_path.read_bytes(), ev_path.read_bytes()))
    assert paths[0] == paths[1]


def test_seed_changes_noise_not_invariants():
    r1 = run(parse_config(mini_doc(epochs=12, seed=1)))
    r2 = run(parse_config(mini_doc(epochs=12, seed=2)))
    assert r1.rows != r2.rows
    col = r1.header.index("W_backing_ok")
    assert all(row[col] == "1" for row in r1.rows + r2.rows)


def test_solar_scenario_anchors_after_shock():
    result = run(parse_config(solar_doc()))
    col = result.header.index("W_SOLAR_premium_bps")
    premiums = [int(row[col]) for row in result.rows]
    assert max(abs(p) for p in premiums[10:]) > 0  # shock visible somewhere
    # with the arbitrageur on, the premium settles inside the fee band
    assert all(abs(p) <= 170 for p in premiums[15:])


def test_solar_disabled_arb_premium_persists():
    doc = solar_doc()
    for agent in doc["agents"]:
        if agent["kind"] == "arbitrageur":
            agent["enabled"] = False
    result = run(parse_config(doc))
    col = result.header.index("W_SOLAR_premium_bps")
    assert abs(int(result.rows[-1][col])) > 500


@pytest.mark.parametrize("name", ["solar", "mine", "datacenter"])
def test_arbitrageur_with_finite_budget_runs_to_the_end(name):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    for agent in doc["agents"]:
        if agent["kind"] == "arbitrageur":
            agent["budget"] = "1000000"
    result = run(parse_config(doc))
    assert len(result.rows) == doc["epochs"]
    numeraire = result.config.numeraire.id
    # every executed cycle realizes its positive expected profit
    assert result.market.registry.balance_of(numeraire, "agent:arb") >= 1_000_000


def test_an_lp_join_that_would_drain_its_pool_skips_the_buy(tmp_path):
    # the W_SOLAR pool holds 100,000 W: buying 200,000 from it cannot be quoted
    doc = solar_doc()
    lp = {"kind": "liquidity_provider", "pool": "W_SOLAR", "numeraire": "1000",
          "join_epoch": 2, "budget": "1000000000"}
    doc["agents"] += [dict(lp, id="lp", base="200000"), dict(lp, id="lp_small", base="1000")]
    path = tmp_path / "solar_lp.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["validate", str(path)]) == 0
    # the run used to end at epoch 2 with DrainedPool (exit 1)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    result = run(parse_config(doc))  # each epoch ends in Market.audit()
    assert len(result.rows) == doc["epochs"]
    reg = result.market.registry
    assert reg.balance_of("lp:W_SOLAR", "agent:lp") == 0
    assert reg.balance_of("lp:W_SOLAR", "agent:lp_small") > 0  # a join it can fund still buys


def test_yield_schedule_pays_holders():
    doc = mini_doc(epochs=6)
    doc["yield_schedule"] = [
        {"epoch": 2, "asset": "W", "amount": "50000", "payer": "issuer"}]
    doc["auto_claim"] = ["issuer"]
    result = run(parse_config(doc))
    vault_pool = result.market.yields.get("W")
    assert vault_pool.total_deposited == 50000
    assert vault_pool.total_paid > 0


def two_asset_doc():
    """mini_doc plus a second composite V, both held by two auto-claiming accounts."""
    doc = mini_doc(epochs=6)
    doc["assets"][0]["genesis_mint"].append({"account": "holder", "q": "3000"})
    doc["assets"].append({"composite": "V", "composition": {"energy": "5"},
                          "genesis_mint": [{"account": "issuer", "q": "2000"},
                                           {"account": "holder", "q": "1001"}]})
    doc["accounts"].append({"id": "holder", "numeraire": "0"})
    doc["oracle"]["elements"]["energy"]["genesis"].append({"account": "holder", "amount": "40000"})
    doc["yield_schedule"] = [{"epoch": e, "asset": asset, "amount": str(amount), "payer": "issuer"}
                             for e in range(6) for asset, amount in (("W", 7777), ("V", 3001))]
    doc["auto_claim"] = ["holder", "issuer"]
    return doc


def test_two_asset_auto_claims_pay_what_sequential_claims_pay(monkeypatch):
    batched = run(parse_config(two_asset_doc()))  # each epoch ends in Market.audit()

    def sequential(vault, composite, *accounts):
        return sum(reference_claim(vault, composite, acct) for acct in accounts)

    monkeypatch.setattr(YieldVault, "claim", sequential)
    looped = run(parse_config(two_asset_doc()))
    for cid in ("W", "V"):
        pool = batched.market.yields.get(cid)
        assert pool.total_paid == looped.market.yields.get(cid).total_paid > 0
        assert pool.total_deposited == 6 * {"W": 7777, "V": 3001}[cid]
    assert batched.rows == looped.rows
    assert batched.market.registry.state_hash() == looped.market.registry.state_hash()
    # the same moves, ordered by asset within each epoch's claims instead of by account
    assert (sorted(map(repr, batched.market.registry.events))
            == sorted(map(repr, looped.market.registry.events)))


def test_run_error_keeps_attributes_and_adds_epoch():
    doc = mini_doc(epochs=3)
    doc["yield_schedule"] = [
        {"epoch": 1, "asset": "W", "amount": str(10 ** 12), "payer": "issuer"}]
    with pytest.raises(InsufficientBalance) as exc:
        run(parse_config(doc))
    assert exc.value.token == "NUM"
    assert exc.value.shortfall > 0
    assert "epoch 1" in str(exc.value)


# --- mid-run corruption is caught by the end of its epoch ----------------------
#
# Each row breaks one engine invariant by writing state directly, as a bug
# that bypasses the ledger's checks would, right after the arbitrage pass of
# epoch 3 of `solar`.

def _corrupt_num_balance(market):
    reg = market.registry
    reg._balances["NUM"][reg.holders("NUM")[0]] += 1


def _corrupt_element_supply(market):
    market.registry._balances["energy"].supply += 1


def _corrupt_escrow(market):
    # a double-entry move keeps every sum right but leaves W_SOLAR underbacked
    market.registry._write(market.registry._balances["energy"], "escrow:W_SOLAR", "issuer", 1)


def _corrupt_minted(market):
    prod = market.oracle.production["energy"]
    prod.cumulative_minted = prod.cumulative_accepted + 1


def _corrupt_paid(market):
    market.yields.get("W_SOLAR").total_paid += 1


def _corrupt_num_mint(market):
    market.registry._write(market.registry._balances["NUM"], None, "issuer", 1)


def _corrupt_accrued(market):
    # every total still agrees; only recomputing each entitlement sees the extra unit
    pool = market.yields.get("W_SOLAR")
    holder = market.registry.holders("W_SOLAR")[0]
    pool.accrued_scaled[holder] = pool.accrued_scaled.get(holder, 0) + INDEX_SCALE


CORRUPTIONS = [_corrupt_num_balance, _corrupt_element_supply, _corrupt_escrow,
               _corrupt_minted, _corrupt_paid, _corrupt_num_mint, _corrupt_accrued]


def corrupt_at_epoch_3(monkeypatch, corrupt):
    real_act = sim.Arbitrageur.act

    def act(self, market, epoch):
        done = real_act(self, market, epoch)
        if epoch == 3:
            corrupt(market)
        return done

    monkeypatch.setattr(sim.Arbitrageur, "act", act)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__[len("_corrupt_"):])
def test_mid_run_corruption_raises_at_its_epoch(monkeypatch, corrupt):
    corrupt_at_epoch_3(monkeypatch, corrupt)
    with pytest.raises(InvariantViolation) as exc:
        run(parse_config(solar_doc()))
    assert str(exc.value).startswith("epoch 3 "), str(exc.value)


def test_mid_run_corruption_exits_2(monkeypatch, tmp_path, capsys):
    corrupt_at_epoch_3(monkeypatch, _corrupt_paid)
    assert cli_main(["run", str(SCENARIOS / "solar.json"), "--out", str(tmp_path)]) == 2
    assert "invariant violation: epoch 3 " in capsys.readouterr().err
