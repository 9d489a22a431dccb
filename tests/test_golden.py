"""Golden bytes: the SHA-256 of every file `totsim simulate` writes, for each
shipped config at a reduced trial count.

Output bytes are a function of the resolved config, the seed and the stream
version (`experiment.STREAM_VERSION`, written to run_meta.json). These
digests are for stream version 2. A change that moves them must be a
deliberate, versioned change of how random streams are consumed, or of the
output schema: re-pin them in the same change and say why.

The run_meta.json digests were re-pinned when the inert word `frequency`
field left the config schema: each run_meta.json lost its
`lexicon.words[i].frequency` keys and the matching `defaults_applied`
entries, and nothing else changed. The records and summary digests are
those of stream version 2 as first pinned.

No shipped config generates its lexicon, so `GENERATED` pins one more
bundle: 300 generated words with damage, metamemory corruption, priming and
a 2 x 2 sweep, in both formats. Its digests were taken before selection and
generation were vectorized, so they show that both still consume the
streams and rank the words exactly as the per-node loops did.
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
        "records.csv": "fc08b9a24363f2d56f7a82e07ace6d93eed5d99263e1fbda1e429c0fa2465368",
        "run_meta.json": "e678f345b7c1ca4f6d5c0a9f52667cfec063a427b04002d3e0fbadd591e0c500",
        "summary.csv": "c2959bd22d40cbfbbf746e75a0b31f89a11d307413d8355135c9b1ea679dc0dd",
    },
    "damage_sweep.json": {
        "records.csv": "f2e746f88f5b3db99c8ac28094e46a996b878d6c0070d91065967abc758b30aa",
        "run_meta.json": "c9f9446e7c2111691c2533fc33b67074cc57cf260f43f3111a25a4c2eb3fe8ea",
        "summary.csv": "63a9f54581c94b106b5c207c19c49bc972ad1444b311ea9a6ba9d4822b0c8a3e",
    },
    "delayed_resolution.json": {
        "records.csv": "4046b6e30aec6003b6d09182129f706077e151dd19f9d201eeb7e94990cf94ca",
        "run_meta.json": "314008f2a6e2de04f64c0c53a8842289d2f1563e76950d44dd979617a98b447a",
        "summary.csv": "17eb7cd4f2311b1785650df450b21c5b706f877b901f4636274795e97677884a",
    },
    "free_recall.json": {
        "records.csv": "54faaf8ca2d82158b72e3677d34a6a6384add2477b74b607279b7f2e63d8d525",
        "run_meta.json": "2c1f28e4f0615828711d63d926c4dd40a45a1af8b674b1afc1c207b73f21f9b6",
        "summary.csv": "34938e7f0a96f39e9239bbbb81f9d0d2b7b3840833810c31b3d600af6a62d978",
    },
    "illusory_tot.json": {
        "records.csv": "4599e1b26b1b45d2b4b8da9b7f7d37c8b0e1e08a0da32a526ef619c87bad817a",
        "run_meta.json": "a6ae067cdbd415e20dd67ca2391c0b7517bf61621c7659d926116f0485ac153f",
        "summary.csv": "b6281edda21b445cfeed809165aaa1753c884767022db06ea06eab76dd6c150b",
    },
    "partial_information.json": {
        "records.csv": "176fc05918b53230cc2384dd1d5bf422ce4d40a926bdfbebbdb6398fbe83ab82",
        "run_meta.json": "86ba0f88bdb4e0639b250cb156441fea50f62c585fffb1423f2190311a2b8cb6",
        "summary.csv": "21c4e6079af3a376a5b1d171671828274ff5e397371d4b6e67c92a73eba637a1",
    },
    "priming_interloper.json": {
        "records.csv": "73c703c7259cc93b3cdaf3fcd3126f4ae13cc32b19f196c64af9379ae8308f19",
        "run_meta.json": "4889c85e0f2ace6f76ef1c91636fced706830127a67f4f8e718c845581d6888f",
        "summary.csv": "25a86c975c01df8fcd1827b8b11722d74f09e802c3a13e890e33f1cc8baa2eca",
    },
}

# The same runs with `--format json`: records.json and summary.json are
# written from the record and summary dataclasses, field by field.
GOLDEN_JSON = {
    "cue_sweep.json": {
        "records.json": "21055a840611a3fdc8f8363a06425d4cb2b62d9c3ce21335ee21c89705782e70",
        "run_meta.json": "95b0be766364436e964fa923e2b1e8095fda272e1b85a8dfe85b761aa2a63256",
        "summary.json": "11c3bfaa60428ca45bee48250d5304d655e23151941292be68d6ac468b62d41b",
    },
    "damage_sweep.json": {
        "records.json": "4874ac10f36729cd5f82bff8d1b3522b6c9b1f399aad64085ba0d5407d6a0051",
        "run_meta.json": "0c31483bd103c2caf14b6e1dc99c87cf68bac7b96c88d0e69004f00a52b543f3",
        "summary.json": "b63888fe51db299340b79b68c62a9a19e2593dca89e608bba760cceb91c22335",
    },
    "delayed_resolution.json": {
        "records.json": "a6d0c94bb5546555c1f0f87229eae7c95dd6beebdffdc4482ee016f299b944e0",
        "run_meta.json": "8bb2ba2479cd3ce523f02e9f5e1c7c453acf6ef13a1f3d26351f465a394ec3ae",
        "summary.json": "bcdbecfce1dd06262ec12c187637f3e2ec1d6abe99ae379d00624dcfbb01edb7",
    },
    "free_recall.json": {
        "records.json": "5ca3bce77bccdbdb59715863e4a79ce46cbaef9b845adfaf498ad0e678cd2c0d",
        "run_meta.json": "8c93926e636221d07aaec5b190a0b43bab98793dbe04bf0e6dec84814a77c34c",
        "summary.json": "cf8423d953a37ebfd772fc64d3707239b1e4e12c70899e901e1201d196b52dbf",
    },
    "illusory_tot.json": {
        "records.json": "aeae89f69fdd7e3e87f4799897bba1c948eff34fa13084ef528e048198b497c1",
        "run_meta.json": "7c14a085d4cb18f260a894c0514c50eb9a726b6b579438c8902937e89e3d098e",
        "summary.json": "b33553c6e916f62dca7d30cf5bd27cacd6a66c87b8877ccdf22ce31384c4da6f",
    },
    "partial_information.json": {
        "records.json": "6cdefda5d46c28a5fad0e7f51c4019af96db4c25f1a126fee19748c1d98db219",
        "run_meta.json": "249335644a357af2564b8bcd4711f958207b4e941d79dc536448d715718f8b8e",
        "summary.json": "57f4dd46e4372a36aada4f8e78d72694021b5c746aab10f6f1ed5be6be7ec713",
    },
    "priming_interloper.json": {
        "records.json": "83d867e16c812961ac42febb85ed173e0614d8d9e4197abc47da01c6f5e339ed",
        "run_meta.json": "a7373b448a4f49296f2f9a15f8595d15520cd6020e0da6b74b6197ee01cb9a59",
        "summary.json": "21d06290e4b240e69c311524634a17a864ad99e8e9b183860e55b913ec407fea",
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
        "records.csv": "a23a0ae275b0854196c97bded8685bb15838093162abaecaf75c9261b96ef1a9",
        "run_meta.json": "56a7145444556518f628dd11a6f0d2fece06615df7b16197cc3d2cf26238a4a3",
        "summary.csv": "cbdbb274ef1b619ca493e8977c100aca8592ed8d10087e3eac667ac273996bc2",
    },
    "json": {
        "records.json": "d5b1f48447c0afa3cbbd3ffbf3bf65ed1de7845b005acdfe322117192c0cacac",
        "run_meta.json": "79230bbc8099a3ee0df6ad2a4438e59d6ee11de282a680bfd8b3913696b14243",
        "summary.json": "fcae968188e8608dbb6f11959d14aeee468ae30c847d3e4f1e51839474e0c354",
    },
}


def bundle(name, tmp_path, fmt="csv"):
    raw = json.loads((CONFIGS / name).read_text())
    raw["n_trials"] = N_TRIALS
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
