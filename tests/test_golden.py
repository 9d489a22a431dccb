"""Golden bytes: the SHA-256 of every file `totsim simulate` writes, for each
shipped config at a reduced trial count.

Output bytes are a function of the resolved config, the seed and the stream
version (`experiment.STREAM_VERSION`, written to run_meta.json). These
digests are for stream version 3. A change that moves them must be a
deliberate, versioned change of how random streams are consumed, or of the
output schema: re-pin them in the same change and say why.

Stream version 3 re-pinned every digest below that moved, once, for one
change and nothing else: trial t of a sweep point now runs on the point's
PCG64DXSM stream jumped t times instead of on `default_rng(SeedSequence((seed,
3, point, t)))`. Every run_meta.json moved only by its `stream_version`, 2
to 3. Every records and summary file moved with the new trial draws, except
illusory_tot's, whose records do not depend on the draws: every record
is a TOT after 1, 1 and 32 attempts, at strength 7/9. The lexicon, metamemory and
damage streams did not change: `LEXICONS` pins what they build, with
digests taken at stream version 2. The history below is that of the
version 2 digests.

Records schema version 2 (`output.CSV_SCHEMA_VERSION`) re-pinned 43
digests once, for two reasons and nothing else (checked row by row and
line by line against the schema version 1 bundles):
- records.csv has one `slot_<name>` column per declared slot, derived from
  `TrialRecord`, so it lost the `slot_first_letter` column, always 0, on
  the slot-free lexicons: the records.csv of the six slot-free shipped
  configs and of `FIXED_CUE`. Every other cell is unchanged; the
  records.csv of partial_information and `GENERATED`, which declare
  `first_letter`, did not move.
- `csv_schema_version` in every run_meta.json and `schema_version` in
  every records.json and summary.json went from 1 to 2, the one line that
  changed in each. No summary.csv and no `LEXICONS` digest moved.

The run_meta.json digests were re-pinned twice, each time for one change
and nothing else:
- The inert word `frequency` field left the config schema: each
  run_meta.json lost its `lexicon.words[i].frequency` keys and the matching
  `defaults_applied` entries.
- `interval_method` now names the 95% Wilson score interval that the
  summaries report, instead of the normal approximation they no longer use.

The records.json digests are those of stream version 2 as first pinned,
except priming_interloper's (below).

The records.csv, summary.csv and summary.json digests were re-pinned once,
for two schema fixes and nothing else (checked row by row against the
earlier bundles):
- records.csv gained a `flip_rate` column after `sweep_d`, so flip-rate
  sweep points are told apart by a coordinate, not only by `seed_child`;
  every other cell is unchanged.
- The summary intervals became 95% Wilson score intervals instead of the
  normal approximation, whose width collapsed to 0 at rates 0 and 1; only
  the `*_ci_low` and `*_ci_high` values changed.

The priming_interloper records.csv and records.json digests were re-pinned
once more: a primed winner now reports its exact selection score as
`sel_completeness`, the value it is selected and masked with, instead of the
float sum of overlap / N and bonus. Checked row by row against the earlier
bundles: one row moved, the primed winner of trial 6, and only in that
cell. Its exact score is 23/30; the float sum 2/30 + 0.7 gave
0.7666666666666666, float(23/30) is 0.7666666666666667.

No shipped config generates its lexicon, so `GENERATED` pins one more
bundle: 300 generated words with damage, metamemory corruption, priming and
a 2 x 2 sweep, in both formats. Its digests were taken before selection and
generation were vectorized, so they show that both still consume the
streams and rank the words exactly as the per-node loops did (its
run_meta.json digests moved with the others for `interval_method`).

No shipped config sets `fixed_cue_per_episode`, so `FIXED_CUE` pins one more
bundle in both formats: delayed_resolution.json with a fixed cue per episode
and a link gain of 0.2. Its semantic and lexical loops draw a fixed cue of
all N units (1.0, and 1.0 + 0.2 capped at 1), its phonological loop one of
floor((0.2 + 0.2) * 9) = 3. Its digests were taken while `recall_word`
still drew each fixed cue and passed it to `recall_component`, so they show
that `recall_component` drawing the cue itself consumes the stream at the
same point.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from totsim.cli import main
from totsim.config import parse_config
from totsim.experiment import build_scenario_lexicon, damaged_lexicon, sweep_points
from totsim.lexicon import COMPONENTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N_TRIALS = 12

GOLDEN = {
    "cue_sweep.json": {
        "records.csv": "ad5717646807255f91e246df421cf3533f6012a1a18c03a608efed82da9d2a60",
        "run_meta.json": "4f2d1dbd87389d31ba889701eb80c9e0faccf56fc16f159e614a4c397a83c20e",
        "summary.csv": "22ec9272d69e7cde565964e5a881640cc95e7e0731ce7dae9349cebefe819c4e",
    },
    "damage_sweep.json": {
        "records.csv": "e82e169a824df6452c1599894c9c69257d86c0358549e648919e24e844054c90",
        "run_meta.json": "1ac58a9e34279905d9bda46614aa81f479b36536b4b1d50c08868e6adc5d215a",
        "summary.csv": "a4999229e7d95d0a6521e63c133d55563007b89100d05863c05d20c352ce74a1",
    },
    "delayed_resolution.json": {
        "records.csv": "64316c0e48745e8421d2b56f7648ac079c4ca46827d2afbc739b030ee07d581e",
        "run_meta.json": "f222b8a16fc20ea5c89ee20429f8371ecc3f1783ed5ba62260875ea8bbc736c1",
        "summary.csv": "8708a7f33f8dbdc2649b249e40e14b851a55a8db2dd5e2a04a98d7016b28e968",
    },
    "free_recall.json": {
        "records.csv": "6cc31a4431a31fd87a656052dbe5ea7f977ba8ecd953106a8acaeec42041fb49",
        "run_meta.json": "a3a4d4c4148cbe50c6bd523c9952ecee02d82ea04ee89bb5b6d1a846fb3f597e",
        "summary.csv": "c3a852dbf720b650b824ed52711102ceab6cbeab0c78ffb80c07285968ce357c",
    },
    "illusory_tot.json": {
        "records.csv": "de48730e14fc7f1c97b4327360a3a0ea9094e4f2456f47507728b9214cc57586",
        "run_meta.json": "b2ecf1b66e3794bbf92405af27598442682aa773a95f30cee9354193134be15c",
        "summary.csv": "1a0961d20fbc3bb4d3a5404d70e898f77c4bffb6ac0ae860377b5fe134570359",
    },
    "partial_information.json": {
        "records.csv": "f359cc282110596cab929e376391c6fc0228e6a9d625d6fb0c6d0766ea62d04b",
        "run_meta.json": "1af2b2e887a6b4d429c1de6a32831e9b093de05e35a828be9e4526f4dff1eb7c",
        "summary.csv": "4686922b575bf0618132bfad3fb5ac380cddd8129359f9e0bfa09343c4903ce3",
    },
    "priming_interloper.json": {
        "records.csv": "8d9426216267925454445fd7d4a36639dc9ad4edb658fbdd158a83175ea1e8d6",
        "run_meta.json": "d0c496480e693735bbea482a42ca7993c892844678ca717892013603f37e65ca",
        "summary.csv": "6667be8ddb4850e11cc96418ae09437de21bccec4e48f3e224a022fbcc4e9b07",
    },
}

# The same runs with `--format json`: records.json and summary.json are
# written from the record and summary dataclasses, field by field.
GOLDEN_JSON = {
    "cue_sweep.json": {
        "records.json": "e5b59684a534998e879a1ebfb81c415f847aba128bdd676e136be1d2b2dfc972",
        "run_meta.json": "4c2c1f46fba2765ca91c1db9c2371af3386aa7fea262bb1564d9326ec36e2839",
        "summary.json": "5d865c93478509d49ae7eed47017c876db2e67e6e83d0d6d57440f613d7c94c5",
    },
    "damage_sweep.json": {
        "records.json": "5d69b9534f64f4d1ed89236a2bb55025d466644351cfe7971a75a453eeda3a39",
        "run_meta.json": "216a2c5cbf62fbeadab926ca5760c41841dcae0f7b50b2e92f931061f3f5c821",
        "summary.json": "b7c249a2d9ed5de3101ccc4936d64876d5e33af9eb7f4589d0588f6396fffc52",
    },
    "delayed_resolution.json": {
        "records.json": "f1fb7bf33f0e0c4a738e05f2beefce164833c48218582991a3aabb20536da262",
        "run_meta.json": "44b8dbf331281b7d34b525dab4fed5eaa20587fdedd23826ff9047439c798999",
        "summary.json": "a386db08a408131a3a009209e7023277083b2995f48e9042ba12bb9f501fbc5c",
    },
    "free_recall.json": {
        "records.json": "aad0b0235a4deb979244db786e71ba6ffade576d533c586a96f037b2dc8c5bb9",
        "run_meta.json": "d9b1cdaaa3e1d2047b19a19f3e394ebccc32dd68aa8fa00590a7897c7fefd480",
        "summary.json": "f986bd9bd2afe3fc9586f87d83c8a42351104e82f59cfb911f0e888acf6cb282",
    },
    "illusory_tot.json": {
        "records.json": "8dc32a271f9f19ef2fd84a677ee21a65aeee73b00f2cabf80ef4637238869018",
        "run_meta.json": "6284d550626b2b12d8926da2a4e9281fcc9a5b668a01580af06562a30573f3ce",
        "summary.json": "151275c7494b0359bbbac914dc2700dc633552825d6202385ffc37e5c068a345",
    },
    "partial_information.json": {
        "records.json": "4a996477d9c60a8125e84597e6385e1f1c94f02c611cba4e9dfe898fe77c6a81",
        "run_meta.json": "0dbe4fbe29ddeb2b25c435338c3a7b97f7837d670d1702e9088c427700f8e842",
        "summary.json": "78bc9f34459b1b9d86f3880e41cb121b93fce381100a1a35b54be3e22435bf14",
    },
    "priming_interloper.json": {
        "records.json": "0f8b9d7337cb51f710be1aeff7bde764aad2d1b5b611749fa1573c82fe8feb86",
        "run_meta.json": "58c7c82f0a90721b7ef1f9996c222c55372e5840a5e6dc66727391bea522489c",
        "summary.json": "5c16bce75e0c2c5046d200cdd51ddef5b07ece13ac4a0847cc753217a152c00f",
    },
}


GENERATED_CONFIG = {
    "seed": 11,
    "lexicon": {
        "selection_threshold": 0.3,
        "generator": {
            "count": 300,
            "lengths": {"semantic": 16, "lexical": 14, "phonological": 15},
            "min_pairwise_distance": 3,
        },
        "slots": {"first_letter": [0, 1, 2]},
    },
    "target": "w2",
    "semantic_input_flip_rate": 0.1,
    "recall": {"cue_fraction": 0.6, "max_attempts": 6, "link_gain": 0.2},
    "damage": [
        {
            "word": "w2",
            "component": "phonological",
            "fraction": 0.2,
            "protected_slots": ["first_letter"],
        },
        {"word": "w10", "component": "semantic", "fraction": 0.3},
    ],
    "metamemory_corruption": [{"word": "w10", "component": "lexical", "flips": 2}],
    "priming": [{"word": "w10", "bonus": 0.25, "decay_trials": 4}],
    "episodes_per_trial": 2,
    "n_trials": 7,
    "sweep": {"d": [0.1, 0.4], "flip_rate": [0.15, 0.35]},
}

GENERATED = {
    "csv": {
        "records.csv": "d00089f45960fa371545837cb9396b90157a9a91f71451d816d8127a1fc79c70",
        "run_meta.json": "a6755764ba88f5ec1db9c118db5565254d875b7beea7a59f8711b00d7ad9d3f6",
        "summary.csv": "626f60cb320bfef2c3b7aecc3d07fd3ff7b756220931afdf076fdd1542891c6f",
    },
    "json": {
        "records.json": "7a9c7f5aa7eeab56aaa3e67681cbb347bee25c85af48eab7d3a281b5b6dfc882",
        "run_meta.json": "b7c3c1a95e0a0e44f0e4adde0b7b2f3be8fba587b23c31aa1cc28e360290018a",
        "summary.json": "bd78ef99b6e57b8e8e0e44f9e326303f5213b6addef69f31826eb255d29315d4",
    },
}

FIXED_CUE = {
    "csv": {
        "records.csv": "b5bb46c054c2bac421331007ab34722905c5c6c5e91340c778c302a1862915f5",
        "run_meta.json": "5aa40f2c494baeb0773547a7c240b679a0725af9350a7a1a836905f383e56365",
        "summary.csv": "ce17e705708f43f9a517ef3963ad75e99c4ac6d8e581eb9046fb49ad72b9ce9b",
    },
    "json": {
        "records.json": "2c08701f8a6cfdb23ca62b5a6179380ed4516da0240996b1d22be71f840d1687",
        "run_meta.json": "6c3b18b8b3d3824dcb673f377e2c00c3db3da6c94319c84e72bab271578347e3",
        "summary.json": "def8e164381fb6abe4c990758f8f823cc29e56b317326e364f8e3dc88dd6bdde",
    },
}


# The SHA-256 of each shipped config's base lexicon and every sweep
# point's damaged lexicon (`lexicon_digest`), and of the generated bundle's.
# The lexicon, metamemory-corruption and damage streams are those of
# stream version 2: these digests were taken before version 3 changed the
# trial streams, and did not move.
LEXICONS = {
    "cue_sweep.json": "8b6c611c961db5daa15a19071829b2ca9d496f6f1eac02fa2363afba55811b75",
    "damage_sweep.json": "8ad25084586ae4a49bc3de14795fe80f802d1e48416acf6d630299e623ccd5ec",
    "delayed_resolution.json": "ddc6a02825d03853bdef557cf5b510597052e8d636215596775c6a7b4764946d",
    "free_recall.json": "10fc6dffbeeacd1c94042c7e297d7848e01062f953f2fd79f5ae34531c2e497d",
    "illusory_tot.json": "431a03bf1f07541abe8ab868b38d3382368e48b32c538457401b43db0508c86a",
    "partial_information.json": "b353ed2a36e274dc3748afb9497de2c184a54902978f2d5f823a0c455149225c",
    "priming_interloper.json": "9f8a948d4897108063e89edc338c9723b12869f0dd4567a703b79d7338105054",
    "generated": "e40cba785ca465a25d7e0440dc80cf3d20f0b98ee97a2da0d5092ac9ae70b516",
}


def lexicon_digest(raw):
    """SHA-256 over the base lexicon and each sweep point's damaged one:
    every word's id, and each component's weights, stored pattern and
    metamemory reference as int64 bytes."""
    cfg, _ = parse_config(raw)
    base = build_scenario_lexicon(cfg)
    h = hashlib.sha256()
    for lex in [base] + [damaged_lexicon(cfg, base, point) for point in sweep_points(cfg)]:
        for node in lex.nodes:
            h.update(node.id.encode())
            for comp in COMPONENTS:
                net = node.components[comp]
                for array in (net.w_int, net.stored[0].units, node.metamemory_ref[comp].units):
                    h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return h.hexdigest()


def bundle(name, tmp_path, fmt="csv", recall=None):
    raw = json.loads((CONFIGS / name).read_text())
    raw["n_trials"] = N_TRIALS
    raw["recall"].update(recall or {})
    return bundle_of(raw, tmp_path, fmt)


def bundle_of(raw, tmp_path, fmt):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def test_every_shipped_config_is_pinned():
    shipped = sorted(p.name for p in CONFIGS.glob("*.json"))
    assert sorted(GOLDEN) == shipped
    assert sorted(GOLDEN_JSON) == shipped
    assert sorted(LEXICONS) == sorted(shipped + ["generated"])


@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_lexicon_bytes_are_pinned(name):
    if name == "generated":
        raw = GENERATED_CONFIG
    else:
        raw = json.loads((CONFIGS / name).read_text())
    assert lexicon_digest(raw) == LEXICONS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, tmp_path):
    assert bundle(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_json_output_bytes_are_pinned(name, tmp_path):
    assert bundle(name, tmp_path, "json") == GOLDEN_JSON[name]


@pytest.mark.parametrize("fmt", sorted(GENERATED))
def test_generated_lexicon_bytes_are_pinned(fmt, tmp_path):
    assert bundle_of(GENERATED_CONFIG, tmp_path, fmt) == GENERATED[fmt]


@pytest.mark.parametrize("fmt", sorted(FIXED_CUE))
def test_fixed_cue_bytes_are_pinned(fmt, tmp_path):
    fixed = {"fixed_cue_per_episode": True, "link_gain": 0.2}
    assert bundle("delayed_resolution.json", tmp_path, fmt, fixed) == FIXED_CUE[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_every_record_and_summary_row_names_the_declared_slots(name, fmt, tmp_path):
    if name == "generated":
        raw = dict(GENERATED_CONFIG)
    else:
        raw = json.loads((CONFIGS / name).read_text())
    raw["n_trials"] = 5
    declared = sorted(parse_config(raw)[0].lexicon.slot_map.names())
    bundle_of(raw, tmp_path, fmt)
    out = tmp_path / "out"
    if fmt == "csv":
        records = (out / "records.csv").read_text().splitlines()[0].split(",")
        assert [c for c in records if c.startswith("slot_")] == [f"slot_{s}" for s in declared]
        header = (out / "summary.csv").read_text().splitlines()[0].split(",")
        columns = [header]
    else:
        records = json.loads((out / "records.json").read_text())["records"]
        assert records and all(sorted(r["partial_info"]) == declared for r in records)
        columns = [list(row) for row in json.loads((out / "summary.json").read_text())["summary"]]
    want = [f"slot_{slot}_rate" for slot in declared]
    for names in columns:
        assert [c for c in names if c.startswith("slot_")] == want
