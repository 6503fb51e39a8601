"""Byte-level behaviour oracle for the shipped scenarios and the test fixtures.

Each shipped scenario, and each document under `tests/fixtures/`, runs at
its own seed and at seeds 0-4, the way `twotier run` does, and the sha256
of the written `metrics.csv` and `events.jsonl` must match its table below.
A change that alters output bytes on purpose updates the table in the same
commit and says why. The written `events.jsonl`, parsed back, must also
replay to the run's state and re-export to the same bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

import twotier
from twotier.ledger import replay_events
from twotier.sim import export_csv, export_events, load_config, run

SCENARIOS = Path(twotier.__file__).parent / "scenarios"
FIXTURES = Path(__file__).parent / "fixtures"

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


# The same for the documents under tests/fixtures/, which reach paths no
# shipped scenario does. `auto_claim` pays yield every epoch to an
# `auto_claim` list that repeats one account and names one that holds no
# composite, while a noise trader and an arbitrageur move the composite.
# `two_assets` runs two composites sharing `energy` and `carbon`, one of them
# at decimals 2, over a numeraire at decimals 2: yield on both assets and
# `auto_claim`, an arbitrageur per asset (one budgeted, its `max_size` of 300
# below the 595-3,935 it sizes uncapped at the fixture's seed), an LP that joins the decimals-2
# pool and exits it, and a down shock on the `carbon` pool. No fixture has a
# failing oracle epoch: every source of an element reports the same
# `per_epoch` value, and `validate` requires `min_sources` of them.
FIXTURE_GOLDEN = {
    ("auto_claim", None): ("1764b40029cf594950016a4bdeda598ecc9fbe4ebc9c3e904897e4cf672068f6",
                           "48a1f07f232e8d3a4abd56ea59603e56973a4f4458a805555864ce919ad06d1c"),
    ("auto_claim", 0): ("f01e5050efb150f7407aa5e7941d386e7937776c48dbe62604f9d261d6205c2f",
                        "e3680fba98286dd5a05e3ab2251f69dc3c3730ad6a0023bd403fb079b78dfe50"),
    ("auto_claim", 1): ("c47f06de4afa02249f47f2e538da704eaef590ce0035213082fb3beedb638fd2",
                        "b7bb7caed963afdf29662c4ba12e9349b2c4f3bb37651226a5393066e5b9912e"),
    ("auto_claim", 2): ("83f0d39a389a9cd344fdf1280f71353a41f895d2958e0742a802273a562e2a33",
                        "a00e0aa5f1a7c91ad612e5dc9bfd2d174478862558349d27efbcb0edb49ac830"),
    ("auto_claim", 3): ("3182c39ff9920a7f2dee7f0a9341bef7be70bc2d4b2b0843e256f2b2ef8d4be3",
                        "a091877eee5b05831ef47fe43f155aaad6dafe2a926f0e44726ba3f975e0a89d"),
    ("auto_claim", 4): ("6ee6de5dc1e7c6506d0caebff03773d2466073eeccebdde6ce92c2b56b1f354e",
                        "a9d324b1ee1a9919196967a8840ba6e3d9b93a0e028a36ef1e76417b398d4921"),
    ("two_assets", None): ("0c71b492207bd2747053d0a39e58f5595248059b3772cbaaecadf6a1c4a4e06d",
                           "724445cdfa2306c461e1d37df0077d4012999793345ff51f0091d48b3231fc99"),
    ("two_assets", 0): ("40105030b4eb61a6ec29662b1da4074c20628e200d78f4bef2610808fb7dfff1",
                        "5d4160f1efbdfb1782d5dcdd6d7d75ffd5011be866d854a7794abbc1735746ab"),
    ("two_assets", 1): ("0dae58f306ee0c8ae6d6e14892f97236419a55ea60ba1af95ca498e1d5747c12",
                        "a8f6a5a0118c02dd0328adec1bb60467f5fee6c885ff897bc97180d8a7426330"),
    ("two_assets", 2): ("7a9c03edc7bba88a80c4dfc195b1f0a71cffe1645e7875991caaefcf75aefaca",
                        "8ecc195b2f739b09f46b10e55b3a09c68604da5d87266878f4d170cbc53b126b"),
    ("two_assets", 3): ("de1e0b40228fe5c912835c2abf408e54712df01b98cf6b71a41b45cec4251c8f",
                        "42b2045d3caa605d3c148b6185153d9f732e67c04463ae3704d4db188aa97e2e"),
    ("two_assets", 4): ("c038144e1fe1d23e4c06bc32e94856c396749b90ddd08a49c57a07d4d9eece3c",
                        "16e2158ccca6c8cbfc3af1c3a69c4b230a4c64c3ca816b14261b1b12709e9586"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_bytes(tmp_path: Path, doc: Path, seed, expected: tuple[str, str]):
    """Run `doc` as `twotier run` would, compare the written files' sha256 with
    `expected`, and replay and re-export the written event log."""
    cfg = load_config(str(doc))
    if seed is not None:
        cfg.seed = seed
    result = run(cfg)
    metrics, events = tmp_path / "metrics.csv", tmp_path / "events.jsonl"
    export_csv(result, str(metrics))
    export_events(result, str(events))
    assert (_sha256(metrics), _sha256(events)) == expected
    raw = events.read_bytes()
    replayed = replay_events([json.loads(line) for line in raw.decode().splitlines()])
    assert replayed.state_hash() == result.market.registry.state_hash()
    assert "".join(line + "\n" for line in replayed.export_events()).encode() == raw


@pytest.mark.parametrize("scenario,seed", list(GOLDEN))
def test_shipped_scenario_bytes(tmp_path, scenario, seed):
    _check_bytes(tmp_path, SCENARIOS / f"{scenario}.json", seed, GOLDEN[scenario, seed])


@pytest.mark.parametrize("fixture,seed", list(FIXTURE_GOLDEN))
def test_fixture_bytes(tmp_path, fixture, seed):
    _check_bytes(tmp_path, FIXTURES / f"{fixture}.json", seed, FIXTURE_GOLDEN[fixture, seed])
