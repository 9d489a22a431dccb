import json
import os
import stat

import pytest

from totsim import cli
from totsim import scenarios as sc
from totsim.cli import main
from totsim.config import parse_config
from totsim.errors import ConfigError
from totsim.experiment import SummaryRow, run_trials, summarize
from totsim.lexicon import COMPONENTS
from totsim.output import columns, read_record_rows, record_columns


def write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def minimal_raw(**overrides):
    raw = {
        "seed": 7,
        "lexicon": {
            "words": [
                {
                    "id": "apple",
                    "semantic": "++-+--++-",
                    "lexical": "++-+--++-",
                    "phonological": "++-+--++-",
                }
            ]
        },
        "target": "apple",
        "recall": {"cue_fraction": 1.0, "max_attempts": 8},
        "n_trials": 20,
    }
    raw.update(overrides)
    return raw


class TestSimulate:
    def test_writes_output_bundle(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "run_meta.json").exists()
        lines = (out / "records.csv").read_text().splitlines()
        # The lexicon declares no slot, so the header has no slot column.
        assert lines[0] == ",".join(name for name, _, _ in record_columns(()))
        assert len(lines) == 21

    def test_metadata_reflects_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw())
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["config"]["recall"]["max_attempts"] == 8
        assert "episodes_per_trial" in meta["defaults_applied"]
        assert meta["records_format"] == "csv"
        assert "interval_method" in meta

    def test_metadata_names_stream_version_4(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw())
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        assert json.loads((out / "run_meta.json").read_text())["stream_version"] == 4

    def test_interval_method_names_the_summary_intervals(self, tmp_path):
        # A full cue resolves every trial. The summary's Wilson interval
        # keeps a width at rate 1, where the normal approximation's is 0.
        cfg = write_config(tmp_path, minimal_raw())
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"])
        row = json.loads((out / "summary.json").read_text())["summary"][0]
        assert row["resolved_rate"] == 1.0 and row["resolved_ci_low"] < 1.0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["interval_method"].startswith("Wilson score interval, 95%")
        assert "normal" not in meta["interval_method"]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw(recall={"cue_fraction": 0.0}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        assert (out_a / "run_meta.json").read_bytes() == (out_b / "run_meta.json").read_bytes()

    def test_seed_override_changes_records(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw(recall={"cue_fraction": 0.0}))
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "99"])
        main(["simulate", "--config", cfg, "--out", str(out_c), "--seed", "99"])
        assert (out_a / "records.csv").read_bytes() != (out_b / "records.csv").read_bytes()
        assert (out_b / "records.csv").read_bytes() == (out_c / "records.csv").read_bytes()
        assert json.loads((out_b / "run_meta.json").read_text())["seed"] == 99

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path, minimal_raw(recall={"cue_fraction": 0.0}, n_trials=64)
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out_a), "--workers", "1"])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--workers", "4"])
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "records.json").read_text())
        assert len(payload["records"]) == 20
        assert payload["records"][0]["classification"] == "Resolved"
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("flip_rates", [[0.0, 1.0], [1.0, 0.0]])
    def test_every_summary_row_has_the_slot_columns_of_the_run(self, tmp_path, fmt, flip_rates):
        # Flip rate 1 negates the semantic input, so below a selection
        # threshold of 0.9 that point selects no word; its NoAccess records
        # report the slot as unmatched, and its row carries the slot column.
        raw = minimal_raw(sweep={"flip_rate": flip_rates})
        raw["lexicon"]["selection_threshold"] = 0.9
        raw["lexicon"]["slots"] = {"first_letter": [0, 1, 2]}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        if fmt == "csv":
            header, *lines = (out / "summary.csv").read_text().splitlines()
            names = header.split(",")
            cells = [line.split(",") for line in lines]
            assert [len(row) for row in cells] == [len(names)] * 2
            rows = [dict(zip(names, map(float, row))) for row in cells]
        else:
            rows = json.loads((out / "summary.json").read_text())["summary"]
        assert [list(row) for row in rows] == [list(rows[0])] * 2
        by_flip = {row["flip_rate"]: row for row in rows}
        assert by_flip[1.0]["noaccess_rate"] == 1.0
        assert by_flip[1.0]["slot_first_letter_rate"] == 0.0
        assert by_flip[0.0]["slot_first_letter_rate"] == 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_access_records_name_every_declared_slot(self, tmp_path, fmt):
        # The undamaged partial_information scenario at flip rate 1: every
        # semantic input is the negated target, so no trial selects a word.
        raw = sc.load("partial_information", n_trials=20, sweep={"flip_rate": [1.0]})
        del raw["damage"]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        if fmt == "csv":
            header, line = (out / "summary.csv").read_text().splitlines()
            row = dict(zip(header.split(","), map(float, line.split(","))))
        else:
            records = json.loads((out / "records.json").read_text())["records"]
            assert len(records) == 20
            for record in records:
                assert record["classification"] == "NoAccess"
                assert record["partial_info"] == {"first_letter": False}
            (row,) = json.loads((out / "summary.json").read_text())["summary"]
        assert row["noaccess_rate"] == 1.0
        assert row["slot_first_letter_rate"] == 0.0

    def test_records_have_one_column_per_declared_slot(self, tmp_path):
        # Two slots, declared out of name order. Flip rate 1 selects no word,
        # so that point's records are NoAccess.
        raw = sc.load("partial_information", n_trials=30, sweep={"flip_rate": [0.0, 1.0]})
        raw["lexicon"]["slots"] = {"last_letter": [12, 13, 14], "first_letter": [0, 1, 2]}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = (out / "records.csv").read_text().splitlines()[0].split(",")
        at = names.index("tot_strength")
        assert names[at:at + 4] == [
            "tot_strength", "slot_first_letter", "slot_last_letter", "total_time_ms"
        ]
        rows = read_record_rows(out / "records.csv")
        records = run_trials(parse_config(raw)[0])
        assert len(rows) == len(records) == 60
        for row, record in zip(rows, records):
            assert row["slot_first_letter"] == record.partial_info["first_letter"]
            assert row["slot_last_letter"] == record.partial_info["last_letter"]
        no_access = [row for row in rows if row["classification"] == "NoAccess"]
        assert len(no_access) == 30
        assert not any(row["slot_first_letter"] or row["slot_last_letter"] for row in no_access)
        # The two columns are not one flag written twice.
        assert any(row["slot_first_letter"] != row["slot_last_letter"] for row in rows)

    def test_bundle_files_get_the_mode_of_a_plain_file(self, tmp_path):
        cfg = write_config(tmp_path, minimal_raw())
        out = tmp_path / "out"
        umask = os.umask(0o022)  # a umask that lets others read a new file
        try:
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            with open(out / "plain", "w"):
                pass
        finally:
            os.umask(umask)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
        plain = modes.pop("plain")
        assert modes == dict.fromkeys(["records.csv", "run_meta.json", "summary.csv"], plain)

    def test_invalid_config_exits_2_with_field_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw(recall={"cue_fraction": 1.5}))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "recall.cue_fraction" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_workers_flag_validated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "0"]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_unsatisfiable_generation_exits_1(self, tmp_path, capsys):
        raw = {
            "seed": 3,
            "lexicon": {
                "generator": {
                    "count": 3,
                    "lengths": {"semantic": 4, "lexical": 4, "phonological": 4},
                    "min_pairwise_distance": 4,
                }
            },
            "target": "w0",
            "n_trials": 1,
        }
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "min pairwise distance" in capsys.readouterr().err


class TestOracle:
    def test_cued_probability(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        code = main(
            [
                "oracle",
                "--config",
                cfg,
                "--word",
                "apple",
                "--component",
                "phonological",
                "--cue-size",
                "3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "57/64 = 0.890625"

    def test_free_recall_reduced_fraction(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        main(["oracle", "--config", cfg, "--word", "apple", "--component", "semantic", "--cue-size", "0"])
        assert capsys.readouterr().out.strip() == "1/2 = 0.5"

    def test_full_cue_certain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        main(["oracle", "--config", cfg, "--word", "apple", "--component", "lexical", "--cue-size", "9"])
        assert capsys.readouterr().out.strip() == "1/1 = 1"

    def test_unknown_word_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        code = main(
            ["oracle", "--config", cfg, "--word", "pear", "--component", "semantic", "--cue-size", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "word, cue_size, path", [("pear", "0", "word"), ("apple", "10", "cue-size")]
    )
    def test_bad_query_rejected_before_building(
        self, tmp_path, capsys, monkeypatch, word, cue_size, path
    ):
        built = []
        monkeypatch.setattr(cli, "build_scenario_lexicon", lambda cfg: built.append(cfg))
        cfg = write_config(tmp_path, minimal_raw())
        code = main(
            ["oracle", "--config", cfg, "--word", word, "--component", "semantic", "--cue-size", cue_size]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")
        assert built == []

    def test_unknown_component_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        code = main(
            ["oracle", "--config", cfg, "--word", "apple", "--component", "orthographic", "--cue-size", "0"]
        )
        assert code == 2

    def test_capacity_exceeded_exits_2(self, tmp_path, capsys):
        # Only a damaged network is enumerated; its 31 free units exceed the cap.
        raw = {
            "seed": 5,
            "lexicon": {
                "generator": {
                    "count": 1,
                    "lengths": {"semantic": 31, "lexical": 9, "phonological": 9},
                }
            },
            "target": "w0",
            "damage": [{"word": "w0", "component": "semantic", "fraction": 0.1}],
        }
        cfg = write_config(tmp_path, raw)
        code = main(
            ["oracle", "--config", cfg, "--word", "w0", "--component", "semantic", "--cue-size", "0"]
        )
        assert code == 2
        assert "enumeration cap" in capsys.readouterr().err

    def test_undamaged_network_beyond_the_cap_is_answered(self, tmp_path, capsys):
        raw = {
            "seed": 5,
            "lexicon": {
                "generator": {
                    "count": 1,
                    "lengths": {"semantic": 31, "lexical": 9, "phonological": 9},
                }
            },
            "target": "w0",
        }
        cfg = write_config(tmp_path, raw)
        code = main(
            ["oracle", "--config", cfg, "--word", "w0", "--component", "semantic", "--cue-size", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out == "1/2 = 0.5\n"

    def test_cue_size_bounds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        code = main(
            ["oracle", "--config", cfg, "--word", "apple", "--component", "semantic", "--cue-size", "10"]
        )
        assert code == 2


class TestValidate:
    def test_valid_config_echoes_normalized(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw())
        assert main(["validate", "--config", cfg]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["recall"]["max_attempts"] == 8
        assert echoed["recall"]["chronometry"] == {"spike_ms": 1.0, "interval_ms": 10.0}
        assert echoed["episodes_per_trial"] == 1

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_raw(bogus=1))
        assert main(["validate", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_impossible_distance_exits_2(self, tmp_path, capsys):
        raw = {
            "seed": 3,
            "lexicon": {
                "generator": {
                    "count": 3,
                    "lengths": {"semantic": 9, "lexical": 9, "phonological": 9},
                    "min_pairwise_distance": 10,
                }
            },
            "target": "w0",
        }
        cfg = write_config(tmp_path, raw)
        assert main(["validate", "--config", cfg]) == 2
        assert "lexicon.generator.min_pairwise_distance" in capsys.readouterr().err

    def test_bad_pattern_chars_exit_2(self, tmp_path, capsys):
        raw = minimal_raw()
        raw["lexicon"]["words"][0]["phonological"] = "++=+--++-"
        cfg = write_config(tmp_path, raw)
        assert main(["validate", "--config", cfg]) == 2
        assert "lexicon.words[0].phonological" in capsys.readouterr().err


    def test_a_repeated_key_exits_2(self, tmp_path, capsys):
        text = json.dumps(minimal_raw(seed=1, n_trials=3))
        path = tmp_path / "scenario.json"
        path.write_text(text.replace('"seed": 1', '"seed": 1, "seed": 2').replace(
            '"n_trials": 3', '"n_trials": 3, "n_trials": 5'))
        assert main(["validate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed" in captured.err

    def test_a_repeated_nested_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_raw()).replace(
            '"max_attempts": 8', '"max_attempts": 8, "max_attempts": 9'))
        assert main(["validate", "--config", str(path)]) == 2
        assert "max_attempts" in capsys.readouterr().err

    def test_negative_zero_is_echoed_as_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, negative_zero_raw(-0.0))
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        echoed = json.loads(out)
        assert echoed["recall"]["cue_fraction"] == {c: 0.0 for c in COMPONENTS}
        assert echoed["sweep"]["q"][0] == 0.0 and echoed["damage"][0]["fraction"] == 0.0


def negative_zero_raw(zero):
    """A config with `zero` as its cue fraction, first q and flip rate of the
    sweep, and damage fraction."""
    return minimal_raw(
        recall={"cue_fraction": zero, "max_attempts": 4},
        damage=[{"word": "apple", "component": "phonological", "fraction": zero}],
        sweep={"q": [zero, 0.5], "flip_rate": [zero, 0.1]},
        n_trials=4,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_both_spellings_of_zero_give_identical_bundles(fmt, tmp_path):
    bundles = []
    for zero in (0.0, -0.0):
        out = tmp_path / repr(zero)
        cfg = write_config(tmp_path, negative_zero_raw(zero), name=f"{zero!r}.json")
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        bundles.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]
    assert all(b"-0.0" not in data for data in bundles[1].values())


def test_the_cli_summary_uses_the_configs_strength_threshold(tmp_path):
    raw = sc.load("damage_sweep", n_trials=40)
    raw["recall"]["strength_threshold"] = 0.9
    cfg, _ = parse_config(raw)
    records = run_trials(cfg)
    library = [row.strong_tot_share for row in summarize(records, cfg.recall.strength_threshold)]
    assert library != [row.strong_tot_share for row in summarize(records, 0.7)]
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    header, *lines = (out / "summary.csv").read_text().splitlines()
    at = header.split(",").index("strong_tot_share")
    assert [float(line.split(",")[at]) for line in lines] == library


def test_summary_files_share_one_column_table(tmp_path):
    """summary.json's keys are summary.csv's header, every summary.csv cell is
    in its column's written form, and the JSON values are the parsed cells."""
    config = write_config(tmp_path, sc.load("partial_information", n_trials=6))
    for fmt in ("csv", "json"):
        assert main(["simulate", "--config", config, "--out", str(tmp_path / fmt), "--format", fmt]) == 0
    header, *lines = (tmp_path / "csv" / "summary.csv").read_text().splitlines()
    header = header.split(",")
    slots = [name[len("slot_"):-len("_rate")] for name in header if name.startswith("slot_")]
    assert slots == ["first_letter"]
    table = columns(SummaryRow, slots)
    assert header == [name for name, _, _ in table]
    objs = json.loads((tmp_path / "json" / "summary.json").read_text())["summary"]
    assert len(objs) == len(lines) == 1
    for line, obj in zip(lines, objs):
        cells = line.split(",")
        assert list(obj) == header
        assert [fmt(parse(cell)) for (_, parse, fmt), cell in zip(table, cells)] == cells
        assert list(obj.values()) == [parse(cell) for (_, parse, _), cell in zip(table, cells)]


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--out", "out"],
        ["simulate", "--out", "out", "--seed", "3"],
        ["oracle", "--word", "apple", "--component", "semantic", "--cue-size", "0"],
        ["validate"],
    ],
    ids=["simulate", "simulate-seed", "oracle", "validate"],
)
def test_a_top_level_that_is_not_an_object_exits_2(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, [1, 2])
    assert main([args[0], "--config", cfg, *args[1:]]) == 2
    assert capsys.readouterr().err == "config error: config: top level must be a JSON object\n"


class TestBundledConfigs:
    def test_every_bundled_config_validates(self, capsys):
        import pathlib

        configs = sorted(pathlib.Path(__file__).parent.parent.glob("configs/*.json"))
        assert configs
        for path in configs:
            assert main(["validate", "--config", str(path)]) == 0, path.name
            capsys.readouterr()

    def test_scenarios_load_the_bundled_configs(self):
        import pathlib

        import pytest

        import totsim.scenarios as sc
        from totsim.errors import ConfigError

        root = pathlib.Path(__file__).parent.parent / "configs"
        assert sc.names() == sorted(path.stem for path in root.glob("*.json"))
        for name in sc.names():
            assert sc.load(name) == json.loads((root / f"{name}.json").read_text()), name
        assert sc.load("free_recall", n_trials=5) == {**sc.load("free_recall"), "n_trials": 5}
        with pytest.raises(ConfigError, match="shipped: cue_sweep"):
            sc.load("no_such_scenario")

    def test_scenarios_are_read_by_the_config_reader(self, tmp_path, monkeypatch):
        (tmp_path / "twice.json").write_text('{"seed": 1, "seed": 2}')
        (tmp_path / "listed.json").write_text("[1, 2]")
        monkeypatch.setattr(sc, "CONFIGS", tmp_path)
        with pytest.raises(ConfigError, match="given more than once"):
            sc.load("twice")
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            sc.load("listed", n_trials=5)
