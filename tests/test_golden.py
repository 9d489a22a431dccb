"""Golden bytes: the SHA-256 of every file `totsim simulate` writes, for each
shipped config at a reduced trial count.

Output bytes are a function of the resolved config, the seed and the stream
version (`experiment.STREAM_VERSION`, written to run_meta.json). These
digests are for stream version 2. A change that moves them must be a
deliberate, versioned change of how random streams are consumed, or of the
output schema: re-pin them in the same change and say why.
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
        "run_meta.json": "08768bfaa979c49f16bbece6aa4b7e3d7a1cb80b066312df18df7d77132a629b",
        "summary.csv": "c2959bd22d40cbfbbf746e75a0b31f89a11d307413d8355135c9b1ea679dc0dd",
    },
    "damage_sweep.json": {
        "records.csv": "f2e746f88f5b3db99c8ac28094e46a996b878d6c0070d91065967abc758b30aa",
        "run_meta.json": "4ebcb76d3f5d0d0ad63a9f0b130b4429d7d627cc39750400cf29db6c471bdf65",
        "summary.csv": "63a9f54581c94b106b5c207c19c49bc972ad1444b311ea9a6ba9d4822b0c8a3e",
    },
    "delayed_resolution.json": {
        "records.csv": "4046b6e30aec6003b6d09182129f706077e151dd19f9d201eeb7e94990cf94ca",
        "run_meta.json": "0d151f221140f31f7e5fd39268a1aee4cef01047073b5d0aa5a3755fe9f14aa0",
        "summary.csv": "17eb7cd4f2311b1785650df450b21c5b706f877b901f4636274795e97677884a",
    },
    "free_recall.json": {
        "records.csv": "54faaf8ca2d82158b72e3677d34a6a6384add2477b74b607279b7f2e63d8d525",
        "run_meta.json": "c764d133af36eee92a8e67fae5cc010a8697d5fa3099c25a212b00da7619b781",
        "summary.csv": "34938e7f0a96f39e9239bbbb81f9d0d2b7b3840833810c31b3d600af6a62d978",
    },
    "illusory_tot.json": {
        "records.csv": "4599e1b26b1b45d2b4b8da9b7f7d37c8b0e1e08a0da32a526ef619c87bad817a",
        "run_meta.json": "6e9e3a918f66090d82723591dc0764fe63d3493166921ecbb6bb1bf700ef0872",
        "summary.csv": "b6281edda21b445cfeed809165aaa1753c884767022db06ea06eab76dd6c150b",
    },
    "partial_information.json": {
        "records.csv": "176fc05918b53230cc2384dd1d5bf422ce4d40a926bdfbebbdb6398fbe83ab82",
        "run_meta.json": "e4aa4e1d11354fe45396d11d64b7a11da11e2fa171db957c6fdd192d4dba83ca",
        "summary.csv": "21c4e6079af3a376a5b1d171671828274ff5e397371d4b6e67c92a73eba637a1",
    },
    "priming_interloper.json": {
        "records.csv": "73c703c7259cc93b3cdaf3fcd3126f4ae13cc32b19f196c64af9379ae8308f19",
        "run_meta.json": "ce66c46e1c1bc2b7b4856bfcc82f61b32719d0dd6dedb08a23d28721434cea8c",
        "summary.csv": "25a86c975c01df8fcd1827b8b11722d74f09e802c3a13e890e33f1cc8baa2eca",
    },
}

# The same runs with `--format json`: records.json and summary.json are
# written from the record and summary dataclasses, field by field.
GOLDEN_JSON = {
    "cue_sweep.json": {
        "records.json": "21055a840611a3fdc8f8363a06425d4cb2b62d9c3ce21335ee21c89705782e70",
        "run_meta.json": "bf3b7d05617b0ba2c1fafdecb1b49765d2385fa7d33b7d29a65dff542eefa11a",
        "summary.json": "11c3bfaa60428ca45bee48250d5304d655e23151941292be68d6ac468b62d41b",
    },
    "damage_sweep.json": {
        "records.json": "4874ac10f36729cd5f82bff8d1b3522b6c9b1f399aad64085ba0d5407d6a0051",
        "run_meta.json": "3dbf4581db567139cfa2f3153e3882ace5449fc852e6a986009631fba59ba764",
        "summary.json": "b63888fe51db299340b79b68c62a9a19e2593dca89e608bba760cceb91c22335",
    },
    "delayed_resolution.json": {
        "records.json": "a6d0c94bb5546555c1f0f87229eae7c95dd6beebdffdc4482ee016f299b944e0",
        "run_meta.json": "836867d83cb35936dd349f6e60b72b0f31c566ab4edb96720a6ef2b7a36f998a",
        "summary.json": "bcdbecfce1dd06262ec12c187637f3e2ec1d6abe99ae379d00624dcfbb01edb7",
    },
    "free_recall.json": {
        "records.json": "5ca3bce77bccdbdb59715863e4a79ce46cbaef9b845adfaf498ad0e678cd2c0d",
        "run_meta.json": "5441b1ea8eb1e5603ea27a8ca148e5a48ed3fbaedc4b3e636522a3d3530aeac3",
        "summary.json": "cf8423d953a37ebfd772fc64d3707239b1e4e12c70899e901e1201d196b52dbf",
    },
    "illusory_tot.json": {
        "records.json": "aeae89f69fdd7e3e87f4799897bba1c948eff34fa13084ef528e048198b497c1",
        "run_meta.json": "da6a6e19ca30835a71ccd2ef64de9f151349e4323336aaa9795b96d2dd8ee72e",
        "summary.json": "b33553c6e916f62dca7d30cf5bd27cacd6a66c87b8877ccdf22ce31384c4da6f",
    },
    "partial_information.json": {
        "records.json": "6cdefda5d46c28a5fad0e7f51c4019af96db4c25f1a126fee19748c1d98db219",
        "run_meta.json": "d5e000b58ac94869c52bb5e00ad39410120ad86e903e93237ee9c53aa07486ee",
        "summary.json": "57f4dd46e4372a36aada4f8e78d72694021b5c746aab10f6f1ed5be6be7ec713",
    },
    "priming_interloper.json": {
        "records.json": "83d867e16c812961ac42febb85ed173e0614d8d9e4197abc47da01c6f5e339ed",
        "run_meta.json": "4eba5e61c00d997376ac6a9e5365b044e06ef8f5a822cab39a472f7765b729cf",
        "summary.json": "21d06290e4b240e69c311524634a17a864ad99e8e9b183860e55b913ec407fea",
    },
}


def bundle(name, tmp_path, fmt="csv"):
    raw = json.loads((CONFIGS / name).read_text())
    raw["n_trials"] = N_TRIALS
    config = tmp_path / name
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
