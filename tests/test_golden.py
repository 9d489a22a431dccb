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
        "records.csv": "1660bbc0fae7b076929636027a06ee5b8d43162dcbdc24605496d7588682470f",
        "run_meta.json": "134d3483bd0f0d73290e3a3a3a61cac4252c1c3061b17bb1314e0d55c788ed4a",
        "summary.csv": "22ec9272d69e7cde565964e5a881640cc95e7e0731ce7dae9349cebefe819c4e",
    },
    "damage_sweep.json": {
        "records.csv": "916a879ee361f48fc54e94ec052273bc022ed012f9a03f31692f4c235027be8e",
        "run_meta.json": "1a22f1bc13781cd90c364a2826ca3673ec6c8c464c2a616bb30f60eef229952d",
        "summary.csv": "a4999229e7d95d0a6521e63c133d55563007b89100d05863c05d20c352ce74a1",
    },
    "delayed_resolution.json": {
        "records.csv": "a7855344b76a1fb117a331458381ec0f91bb79cd25c552f4d4b608b69e94ed97",
        "run_meta.json": "d1d5b1ed9afad2bd5ff04de2eef5ed95c5eaec0604e91e7a4bf2ade3da30eaed",
        "summary.csv": "8708a7f33f8dbdc2649b249e40e14b851a55a8db2dd5e2a04a98d7016b28e968",
    },
    "free_recall.json": {
        "records.csv": "2fb110ad4394c2dddfe515e49b5b943c23b6afe74d4071a70e97e35c7fff32cf",
        "run_meta.json": "3f6029c8eb1904edec06bfbd52b4a0536edc623a4df197f4a3ef5297ba17ff83",
        "summary.csv": "c3a852dbf720b650b824ed52711102ceab6cbeab0c78ffb80c07285968ce357c",
    },
    "illusory_tot.json": {
        "records.csv": "9a54365c4160cce68c12833fc86170126d2f7b3b2d39cea60f89bc4d22bb745f",
        "run_meta.json": "1e4b1efab53fb738f1b00e41db4e2bbfc6f6ce943d9eeaf98e8f3b95ea34a0e5",
        "summary.csv": "1a0961d20fbc3bb4d3a5404d70e898f77c4bffb6ac0ae860377b5fe134570359",
    },
    "partial_information.json": {
        "records.csv": "f359cc282110596cab929e376391c6fc0228e6a9d625d6fb0c6d0766ea62d04b",
        "run_meta.json": "edaeaa8e8a98458ac2936e08325a0c849abdfd5a4e7d4191a1cd48b03b53228e",
        "summary.csv": "4686922b575bf0618132bfad3fb5ac380cddd8129359f9e0bfa09343c4903ce3",
    },
    "priming_interloper.json": {
        "records.csv": "6f8a6aeae6a2e0a2e769a65dcdf8be67200de63f4a6cae435859f883ac642bdf",
        "run_meta.json": "e49b614baa4dd8c05cf1f6734951cfb6a9bedaed49d75b3b8252d03c02528bd0",
        "summary.csv": "6667be8ddb4850e11cc96418ae09437de21bccec4e48f3e224a022fbcc4e9b07",
    },
}

# The same runs with `--format json`: records.json and summary.json are
# written from the record and summary dataclasses, field by field.
GOLDEN_JSON = {
    "cue_sweep.json": {
        "records.json": "b0750f38711668df77573c457cbb70c702860fc98d9f8ceaf6c7b3d27f6643ff",
        "run_meta.json": "083c44e4d16f8ac90fff6fb1765b454526ccc2ea035a624fbef14c408d1ef3f5",
        "summary.json": "f0cb08500df6752d2f159c53b4239ef39155c58b9b4c1d6342c540d30d91d0dd",
    },
    "damage_sweep.json": {
        "records.json": "f71fcfff2b398cc9d413aac578c130064d36e37a12b281f0a53f08ba5fc1890b",
        "run_meta.json": "b632fd7fe0bc6e108174415502a54e3755bbc7c890759ce38e516420982fdba1",
        "summary.json": "32f74da580eb61123caf55681efadc6ad6e2b463f63dc03fed35c4762d542a15",
    },
    "delayed_resolution.json": {
        "records.json": "f23902399e169825c4ab7d9336cae2c195597f3e9e8d3e031ba2ecaf053006be",
        "run_meta.json": "7702632220abebae77ddb46be3eb38aab16dd2b9d4d3cebc9441f2037db2f63f",
        "summary.json": "d178617e2fee4b91c637b79f660ac8cda3fc967c123f345852e5c82609b746cf",
    },
    "free_recall.json": {
        "records.json": "936a494f112784ed05913219463d4fc562406968bb6dfb884f57553b54b5a658",
        "run_meta.json": "b365e4d5ae626438bb627ffcc4c6e1b3e37519f41047a76a85f4081d65d5dda1",
        "summary.json": "259fc18df1a52e4d5d717dc68558642dfe537e06fdf4e9887a4291f86807d4b4",
    },
    "illusory_tot.json": {
        "records.json": "aeae89f69fdd7e3e87f4799897bba1c948eff34fa13084ef528e048198b497c1",
        "run_meta.json": "5af1ddf3af0dd4c50911d31bad768dbaa630247d30a266bf457f6e17cdb68ee0",
        "summary.json": "9d23db0a9a34ba0b5b4eddeb04e37a7d4bc889e4c76e3780d2ce0dec2b6f84db",
    },
    "partial_information.json": {
        "records.json": "8899d2e3eb56731919b463cad418392289bc82d061cb9b605635d200a3cae048",
        "run_meta.json": "481b36c1f4bd3e261aa4c04b978dbfd785aa69893250894da910d9eb0ce6b726",
        "summary.json": "efdd05dee64ba4744460c68494a55535f63007e8cf32e8f32332d2a0b9f46998",
    },
    "priming_interloper.json": {
        "records.json": "70d34a26b2f8a34f5706347c05d6e5bb21a8520c549958b0bee32d2a09dc4165",
        "run_meta.json": "a861c7b41441d9500cb33c4950057eecd432a629ebb57d0a6da9acb0594a6939",
        "summary.json": "a75d143832f237d6ac0935a82155143bf05e335cef8a40fd3f4c5e7261203ac2",
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
        "run_meta.json": "101152cce998900bcb9bf3455967f80d292a021bd834e173e8d1808e124494f8",
        "summary.csv": "626f60cb320bfef2c3b7aecc3d07fd3ff7b756220931afdf076fdd1542891c6f",
    },
    "json": {
        "records.json": "736ad705c7f906a4eb3860d26929cae049d625231ecec6e9df7ff42e6887f123",
        "run_meta.json": "bbb9bc9057b7e0ebaf91da7b587c1891dc82c6170325af4bdd45fc7b5e188fd1",
        "summary.json": "be99464c144907f4c8882d4e84d9c89d3cdcfb39cb49de01d9981c1d12b12e88",
    },
}

FIXED_CUE = {
    "csv": {
        "records.csv": "e1bb8d97e66071457b7b75c0939b55fde944403d9e4d207a24e1bdfb44c69579",
        "run_meta.json": "6a117558acf676151fcf04051da0d303d5ae1bccff2fa7ad232c37d3b4f2ccd2",
        "summary.csv": "ce17e705708f43f9a517ef3963ad75e99c4ac6d8e581eb9046fb49ad72b9ce9b",
    },
    "json": {
        "records.json": "a7a4d0e4027a4aa2f2190d81e8b2a0d249ac542416dd2d3c9aa8124a7d516a46",
        "run_meta.json": "6d17f4e4545f5d0a4866ec2849c6a130680b51ce146e011024f14b34d9705e0c",
        "summary.json": "f136553b127643cfec966e491583b7e7f29b432cfa85a4b58868c77143e8d19f",
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
    every word's id, and each component's weights, truth and metamemory
    reference as int64 bytes."""
    cfg, _ = parse_config(raw)
    base = build_scenario_lexicon(cfg)
    h = hashlib.sha256()
    for lex in [base] + [damaged_lexicon(cfg, base, point) for point in sweep_points(cfg)]:
        for node in lex.nodes:
            h.update(node.id.encode())
            for comp in COMPONENTS:
                net = node.components[comp]
                for array in (net.w_int, node.truth[comp].units, node.metamemory_ref[comp].units):
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
