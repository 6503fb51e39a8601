"""Byte-level behaviour oracle for the shipped scenarios.

Each shipped scenario runs at its own seed and at seeds 0-4, the way
`twotier run` does, and the sha256 of the written `metrics.csv` and
`events.jsonl` must match the table below. A change that alters output
bytes on purpose updates this table in the same commit and says why. The
written `events.jsonl`, parsed back, must also replay to the run's state
and re-export to the same bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

import twotier
from twotier.ledger import replay_events
from twotier.sim import export_csv, export_events, load_config, run

SCENARIOS = Path(twotier.__file__).parent / "scenarios"

# (scenario, seed override or None for the scenario's own seed)
#   -> (sha256 of metrics.csv, sha256 of events.jsonl)
GOLDEN = {
    ("solar", None): ("a828f9e1042124e010db51f5dd978a14f7836eec308884dde0a6ec29c6560b12",
                      "b60e0076a631bc17a4ca48fbbcf6fac524a67ea0ab733882a2d6a3df7e85c226"),
    ("solar", 0): ("a828f9e1042124e010db51f5dd978a14f7836eec308884dde0a6ec29c6560b12",
                   "b60e0076a631bc17a4ca48fbbcf6fac524a67ea0ab733882a2d6a3df7e85c226"),
    ("solar", 1): ("a828f9e1042124e010db51f5dd978a14f7836eec308884dde0a6ec29c6560b12",
                   "b60e0076a631bc17a4ca48fbbcf6fac524a67ea0ab733882a2d6a3df7e85c226"),
    ("solar", 2): ("a828f9e1042124e010db51f5dd978a14f7836eec308884dde0a6ec29c6560b12",
                   "b60e0076a631bc17a4ca48fbbcf6fac524a67ea0ab733882a2d6a3df7e85c226"),
    ("solar", 3): ("a828f9e1042124e010db51f5dd978a14f7836eec308884dde0a6ec29c6560b12",
                   "b60e0076a631bc17a4ca48fbbcf6fac524a67ea0ab733882a2d6a3df7e85c226"),
    ("solar", 4): ("a828f9e1042124e010db51f5dd978a14f7836eec308884dde0a6ec29c6560b12",
                   "b60e0076a631bc17a4ca48fbbcf6fac524a67ea0ab733882a2d6a3df7e85c226"),
    ("mine", None): ("506c46d2bfb369fa696eacbca589bb2e04d8e7c2cfa932eef43cdd93deced548",
                     "352fc213bde4251e7a26e91debc27e69adc3ccf6c7ea9a661be25ea1ade40f27"),
    ("mine", 0): ("8ab41b0436972af5d8f972b2c9da05d8e9a0cd7f2863bf19bb4e556bde9fb97c",
                  "70116056cb99e444855dd9499745fe8ca94d9c6b635f7d45522e6e24a6e7de3e"),
    ("mine", 1): ("9c9b20cb869c0ac7ee1c24cdec62cb01c64f9bb01defe92234a7bee0d0142ddc",
                  "c49e0950b1553f2d572b1036c63cef64aefcc62ba0ca1d30c1081f11dde6b45b"),
    ("mine", 2): ("4e29c62d69b758e6372bbce544cfc6b600504ef5e7fe7aa72b0e9b11b434e6d3",
                  "bd90e5e6eee25791f366a28112dd57a1fe00a15a08d74d5a5b69e7c049e6530e"),
    ("mine", 3): ("a3167b134b894dcf10de847b66ca67f005bb5efc94bbd19aaec6adc815595349",
                  "df3bff1fbfc8d379dbe67dff469f47fd6eb17479ca35fef7c629ed53c98a79e2"),
    ("mine", 4): ("9f88956345c05cf2710a3b08b54a4da335c135362588460e82f44b8f5e18c691",
                  "3cce603b6399a83bd18c5f2064378a5c9728f37a6580f4e84e26b2dd60ec49cf"),
    ("datacenter", None): ("dfec192904eb544c8f221050392432be72d5d17d6d97e674bd93c2e68bee60bb",
                           "d1c0d2f7f50bf7d41137cd2bebea51bf8299eb110d712a72691be33216852e46"),
    ("datacenter", 0): ("e712d8eddd3126c7dca4959a50070c85381b202275ba971ae138a6b430ce109e",
                        "c87810431ccc9b50cce94c790a4ec866c08de92f8c389d9e44340eb08e1aed0a"),
    ("datacenter", 1): ("717999d360d2dc75f6ff2a309ae17cadb0e4884035054d40a1fa7dd22b2e2505",
                        "ac4d1805b7d8937bcfae70d4f0f778ca4fefce4636e1c4e77c501447f2a3e1f9"),
    ("datacenter", 2): ("01a526e3f9a8134dcb8c537025c3bfe79108f82208e893d1970b757c359dc329",
                        "071cdd203cd2e6749ed29ef2c2d2acb2454140a6bcdab03fd85232de0b7eac35"),
    ("datacenter", 3): ("5ee3794952739ea1aaadfee546b2c2fd977226afdcef10a73f0901338bfc8656",
                        "85af8d4dd3f9b1ddc3152d30badbf17cb5ab132368fe9cabfdd16b7f78fd6202"),
    ("datacenter", 4): ("80e5e8dae936f245bb733d779dd0835ab2863f5f6843c13691a162c10a50f6c8",
                        "99479e8ebc888d192cf2552dc2880a67c3e0e1bc98e4beeb4e30fc14353d7a7f"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario,seed", list(GOLDEN))
def test_shipped_scenario_bytes(tmp_path, scenario, seed):
    cfg = load_config(str(SCENARIOS / f"{scenario}.json"))
    if seed is not None:
        cfg.seed = seed
    result = run(cfg)
    metrics, events = tmp_path / "metrics.csv", tmp_path / "events.jsonl"
    export_csv(result, str(metrics))
    export_events(result, str(events))
    assert (_sha256(metrics), _sha256(events)) == GOLDEN[scenario, seed]
    raw = events.read_bytes()
    replayed = replay_events([json.loads(line) for line in raw.decode().splitlines()])
    assert replayed.state_hash() == result.market.registry.state_hash()
    assert "".join(line + "\n" for line in replayed.export_events()).encode() == raw
