"""Golden bytes: the SHA-256 of every file `totsim simulate` writes, for each
shipped config at a reduced trial count.

Output bytes are a function of the resolved config, the seed and the stream
version (`experiment.STREAM_VERSION`, written to run_meta.json). These
digests are for stream version 2. A change that moves them must be a
deliberate, versioned change of how random streams are consumed, or of the
output schema: re-pin them in the same change and say why.

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

import pytest

from totsim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N_TRIALS = 12

GOLDEN = {
    "cue_sweep.json": {
        "records.csv": "ca37057a6cf4750d86ca5a3c90a3f9d95419066a89c261c541ea1bcd3ac9c1fc",
        "run_meta.json": "ab5d5f3555c53328e899402e27c20d874c38df0610c348ce40907d252276852f",
        "summary.csv": "2a98fa5b4ccad6db0506fc04cd0ea8871635d84600b8c73cd7a793ce353d23fe",
    },
    "damage_sweep.json": {
        "records.csv": "4d65584700ecdd7690345ebc23ebea07607d7853da5ec67e4229c77583e29e2b",
        "run_meta.json": "a7b8d12b85e1e3f841196e46d06a76534ad645125bad66561793c94d3433cf56",
        "summary.csv": "c910f4fd3b05782eb4fc45691b6d534c386972ca2e020464ca702017391e9552",
    },
    "delayed_resolution.json": {
        "records.csv": "7afcb13b128f35d2a8badfcb92e81895f5b5ef34d9a401f120c6d22ee42aae04",
        "run_meta.json": "2f1d9ddd4f63b9017317d20734b19ba5843fcedfcd33274c5461c14e5bca0ec6",
        "summary.csv": "9418ec0fad7c4b6f20536083c6cd4da0f4bae63fa8d2dfe8ebb3e8f3db15a4a9",
    },
    "free_recall.json": {
        "records.csv": "90c6b93faec7c4d8cc5afac485a54167b0c7d454f7c0a08d40c6bcc4d9efb3b1",
        "run_meta.json": "b76a56b96c4ba40aefb6f3ffa5608b9329de64b57d66b606811b2b3c6973c6c8",
        "summary.csv": "db3771ad9a58e6ef1b8cd00a6e314d84a8399367d2a22fb6cd8a1a26dd749588",
    },
    "illusory_tot.json": {
        "records.csv": "9a54365c4160cce68c12833fc86170126d2f7b3b2d39cea60f89bc4d22bb745f",
        "run_meta.json": "f23031e4d6afb5f937cc72e96662a10fc124e2af281d67a66fd437606785db9b",
        "summary.csv": "1a0961d20fbc3bb4d3a5404d70e898f77c4bffb6ac0ae860377b5fe134570359",
    },
    "partial_information.json": {
        "records.csv": "4de3c5d34165afc1327f4eb46918799ec2ae3bccf02d0ab171a611286e4f49fd",
        "run_meta.json": "d4344a26141796f4d0e6db3f64f5f8acc4481356f7c144785264ce040409a126",
        "summary.csv": "61b7f7367cddcdaca1d1673110faa639e2b98790205e1a1460072158fabcd129",
    },
    "priming_interloper.json": {
        "records.csv": "e10e919da18406a4a2f850fcde71f378993c9db5ab52a480c094afb8e207def8",
        "run_meta.json": "0472f5b3190cb261fbeac6f681c5a753d61543a4ba13cc8f2320c734495c18b1",
        "summary.csv": "6980abc6be55912b803471921ee751f517e66ecfdf41539be8893cbb77be88f1",
    },
}

# The same runs with `--format json`: records.json and summary.json are
# written from the record and summary dataclasses, field by field.
GOLDEN_JSON = {
    "cue_sweep.json": {
        "records.json": "21055a840611a3fdc8f8363a06425d4cb2b62d9c3ce21335ee21c89705782e70",
        "run_meta.json": "cb46a508fc31e4dab69e340fe7bbbbb9e9d07268a77fa294c39ebb871eaa4af7",
        "summary.json": "bfa85a39f426ad382b9131cdc3a6031a5ab997ff18fe2948df8b250d2b69126a",
    },
    "damage_sweep.json": {
        "records.json": "4874ac10f36729cd5f82bff8d1b3522b6c9b1f399aad64085ba0d5407d6a0051",
        "run_meta.json": "7c1a94e0ffd7d27457b76d3fdb24887a2f7957dcc89363265a8ae4978bd5797e",
        "summary.json": "1e23702ff0d3cc3c7fe79a88027287fc094b6ed8f01489a5b696b6a8ec9c5898",
    },
    "delayed_resolution.json": {
        "records.json": "a6d0c94bb5546555c1f0f87229eae7c95dd6beebdffdc4482ee016f299b944e0",
        "run_meta.json": "5e838f61ae4ad5d1a6b334fa9da2bc75adb7729c76c398ae41301f458d03d002",
        "summary.json": "9f942125ceed4cd17d29949e190d90bce12ddebab3120d05164d8da674a21219",
    },
    "free_recall.json": {
        "records.json": "5ca3bce77bccdbdb59715863e4a79ce46cbaef9b845adfaf498ad0e678cd2c0d",
        "run_meta.json": "606acf30d9cd56f13ae424cb86eb23c35a0d6247062c135023c7fab819dd1c8b",
        "summary.json": "7df2a4c984abc5fbb0046cf5ba355f2ae29ccf9af21eaf449adff8e2c961309b",
    },
    "illusory_tot.json": {
        "records.json": "aeae89f69fdd7e3e87f4799897bba1c948eff34fa13084ef528e048198b497c1",
        "run_meta.json": "bbe94618d68ed546d999c7868c88c699571e9215c5d13d0d882f9d849db37329",
        "summary.json": "9d23db0a9a34ba0b5b4eddeb04e37a7d4bc889e4c76e3780d2ce0dec2b6f84db",
    },
    "partial_information.json": {
        "records.json": "6cdefda5d46c28a5fad0e7f51c4019af96db4c25f1a126fee19748c1d98db219",
        "run_meta.json": "2a398a920454b04ac2afe2245156bc08272b9939857f7529d9f1c84ef7624bd1",
        "summary.json": "825d7502a3500ef46c60c30c0d8525f0b559d9a8affcdc74b2ad7e1522c936bb",
    },
    "priming_interloper.json": {
        "records.json": "0f0bd83506b7489029d08807a979f6db7882437b15d636c1d7d941becd2c53bc",
        "run_meta.json": "7ecea778f3549e711753ca54bb7950c7bb8f2e994770a2db5ec6ec3c8a026bc6",
        "summary.json": "5f0f3ac259d110872b0727dac877237fa9059539c830b7860fbc493997608494",
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
        "records.csv": "1d858582a86e824b9b2d909438bbe8c9d6624a02b169274a87204804a82fa149",
        "run_meta.json": "9eafbb923e4cda75545b6936a1a7fcd85b0902c7676af3912fd93f697a0e0d93",
        "summary.csv": "a1e6d3b5bc61e9cb45105acb33d34bf823f3d13ea9f35a792000037d9e195b21",
    },
    "json": {
        "records.json": "d5b1f48447c0afa3cbbd3ffbf3bf65ed1de7845b005acdfe322117192c0cacac",
        "run_meta.json": "3c29779aca32f2e3fc932ca308b50257d521e703db29a37da1e412e639036cba",
        "summary.json": "f48d9bc236086b95edb4eddc6288f894bd5423b6e589daf1c29cc9f3c50b8851",
    },
}

FIXED_CUE = {
    "csv": {
        "records.csv": "f091e20e16f5fbb12f6f28d19e1610c7cc5ddcb46a22076a0451cab8e834e496",
        "run_meta.json": "87a07017180ce3753d5b59fb614dbc006c64b1a6352223344a0be2a9502b6482",
        "summary.csv": "30665fc3c8571fbbb1a6a51abdb55c19a1b5313312a30757898aabc73a84fe0c",
    },
    "json": {
        "records.json": "fc56f93ca12ad1b6460987606b1b6fab868e0e388a4768bcdeef8685092dd5f4",
        "run_meta.json": "3c8a7a236a69cd36aa1ac6c9f9dbd28a5cda47653b7c7a24f0f9a6148b47e581",
        "summary.json": "ce17bfa6480e31ca591e67f06288d5555fcab0234a2f8dd76af3849b70701b6f",
    },
}


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
