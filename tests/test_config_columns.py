"""The per-account row lists of a scenario, read a column at a time.

`sim._table` reads a list of two or more rows through the `column` each field's
reader carries, and falls back to the row-by-row walk (`sim._each`) on anything a
column refuses. The walk is the reference: both must give the same tuples and
declare the same ids, or raise the same error with the same path.
"""

import json
from collections import defaultdict
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from test_sim import DROP, HOSTILE
from twotier import sim
from twotier.errors import ConfigError

FIXTURES = Path(__file__).parent / "fixtures"
DECLARED = ["issuer", *(f"h{i}" for i in range(300))]   # accounts declared before the list


def schema_reader(cls, name):
    return next(f.metadata["read"] for f in fields(cls) if f.name == name)


# (the schema's reader, the row-by-row reference, the row's fields or None for bare ids)
LISTS = {
    "accounts": (schema_reader(sim.ScenarioConfig, "accounts"),
                 sim._each(sim._object(sim.AccountSpec, as_tuple=True)), ("id", "numeraire")),
    "genesis_mint": (schema_reader(sim.AssetSpec, "genesis_mint"),
                     sim._each(sim._object(sim.GenesisMint, as_tuple=True)), ("account", "q")),
    "genesis": (schema_reader(sim.OracleElementSpec, "genesis"),
                sim._each(sim._object(sim.GenesisCredit, as_tuple=True)), ("account", "amount")),
    "auto_claim": (schema_reader(sim.ScenarioConfig, "auto_claim"),
                   sim._each(sim._ref("account")), None),
}


def walk_with_accounts():
    walk = SimpleNamespace(ids=defaultdict(set), objects=[])
    walk.ids["account"].update(DECLARED)
    return walk


def outcome(read, raw):
    """(values, every non-empty id space) the reader returns, or its error's type,
    message and path."""
    walk = walk_with_accounts()
    try:
        values = read(raw, walk)
    except ConfigError as exc:
        return type(exc), exc.args, exc.path
    return values, {space: ids for space, ids in walk.ids.items() if ids}


def amount(rnd, lo=0):
    """An amount in [lo, 10**30] as an int or as the text int() reads."""
    value = rnd.randint(lo, rnd.choice([10, 10 ** 9, 10 ** 30]))
    return rnd.choice([value, str(value), f" {value}", f"+{value}"])


def valid_rows(kind, n, rnd):
    refs = rnd.choices(DECLARED, k=n)
    if kind == "auto_claim":
        return refs
    if kind == "accounts":
        rows = [{"id": f"a{i}", "numeraire": amount(rnd)} for i in range(n)]
        for row in rnd.sample(rows, rnd.randint(0, n)):
            del row["numeraire"]                  # it defaults to 0
        return rows
    key, lo = ("q", 1) if kind == "genesis_mint" else ("amount", 0)
    return [{"account": ref, key: amount(rnd, lo)} for ref in refs]


# each edit: (where, value). "id" and "amount" set the first or the second field of an
# object row (a bare id list has only ids), "field" either one; DROP deletes it
EDITS = st.one_of(
    st.tuples(st.sampled_from(["field", "id", "amount"]), st.sampled_from([*HOSTILE, DROP])),
    st.tuples(st.just("id"), st.sampled_from(["", "a:b", "nobody", "issuer"])),
    st.tuples(st.just("amount"), st.sampled_from([0, -1, 2.0, "1.5", "9" * 4301])),
    st.tuples(st.just("unknown key"), st.just(1)),
    st.tuples(st.just("row"), st.sampled_from([None, 5, "issuer", [], ["id", "x"]])),
    st.tuples(st.just("same as row"), st.integers(0, 299)),
)


def hostile(kind, rows, at, edit, rnd):
    """`rows` with one hostile edit at row `at`."""
    where, value = edit
    _, _, names = LISTS[kind]
    if names is None:                             # a bare id list
        if where == "same as row":                # a repeated reference
            rows[at] = rows[value % len(rows)]
        elif value is DROP:
            del rows[at]
        else:
            rows[at] = "nobody" if where == "unknown key" else value
    elif where == "row":
        rows[at] = value
    elif where == "same as row":                  # a duplicate id, or a repeated reference
        rows[at][names[0]] = rows[value % len(rows)].get(names[0])
    elif where == "unknown key":
        rows[at]["bogus"] = value
    else:
        name = {"id": names[0], "amount": names[1]}.get(where) or rnd.choice(names)
        if value is DROP:
            rows[at].pop(name, None)
        else:
            rows[at][name] = value
    return rows


@given(kind=st.sampled_from(sorted(LISTS)), n=st.integers(2, 300), at=st.integers(0, 299),
       edit=st.none() | EDITS, rnd=st.randoms(use_true_random=False))
@settings(max_examples=examples(150), deadline=None)
def test_a_column_read_matches_the_row_walk(kind, n, at, edit, rnd):
    read, reference, _ = LISTS[kind]
    rows = valid_rows(kind, n, rnd)
    if edit is not None:
        rows = hostile(kind, rows, at % n, edit, rnd)
    expected = outcome(reference, rows)
    assert outcome(read, rows) == expected
    if edit is None:                              # an unedited list is read by column
        row = dict(accounts=sim.AccountSpec, genesis_mint=sim.GenesisMint,
                   genesis=sim.GenesisCredit).get(kind)
        column = (sim._ref("account") if row is None else sim._object(row, as_tuple=True)).column
        assert column(rows, walk_with_accounts(), []) == expected[0]


def spy_on_columns(monkeypatch):
    """The (rows, values) of every list-level column call while patched."""
    calls = []
    for reader in (sim._object(sim.AccountSpec, as_tuple=True),
                   sim._object(sim.GenesisMint, as_tuple=True),
                   sim._object(sim.GenesisCredit, as_tuple=True), sim._ref("account")):
        def spy(raws, walk, declared, column=reader.column):
            values = column(raws, walk, declared)
            calls.append((raws, values))
            return values
        monkeypatch.setattr(reader, "column", spy)
    return calls


@pytest.mark.parametrize("name", ["two_assets", "auto_claim"])
def test_the_fixtures_row_lists_are_read_by_column(monkeypatch, name):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    lists = [doc["accounts"], doc["auto_claim"], *(a["genesis_mint"] for a in doc["assets"]),
             *(e["genesis"] for e in doc["oracle"]["elements"].values())]
    assert all(2 <= len(rows) <= 6 for rows in lists)
    calls = spy_on_columns(monkeypatch)
    cfg = sim.parse_config(doc)
    for rows in lists:  # one call each, which the column accepted
        assert [values is not None for raws, values in calls if raws is rows] == [True], rows
    monkeypatch.undo()
    assert sim.parse_config(doc) == cfg


def test_a_one_row_list_is_walked_row_by_row(monkeypatch):
    doc = json.loads((Path(sim.__file__).parent / "scenarios" / "solar.json").read_text())
    assert len(doc["accounts"]) == 1
    calls = spy_on_columns(monkeypatch)
    sim.parse_config(doc)
    assert calls == []
