import copy
import json
import tracemalloc
from pathlib import Path

import pytest

from totsim.config import load_raw_config, normalized_dict, parse_config
from totsim.errors import ConfigError
from totsim.experiment import build_scenario_lexicon, materialize_bonuses
from totsim.lexicon import COMPONENTS
from totsim.patterns import SlotMap

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    }
    raw.update(overrides)
    return raw


def path_of(excinfo) -> str:
    return excinfo.value.path


class TestParsing:
    def test_minimal_config_resolves_defaults(self):
        cfg, defaults = parse_config(minimal_raw())
        assert cfg.seed == 7
        assert cfg.recall.cue_fraction == {c: 0.0 for c in COMPONENTS}
        assert cfg.recall.max_attempts == 64
        assert cfg.recall.spike_ms == 1.0 and cfg.recall.interval_ms == 10.0
        assert cfg.recall.strength_threshold == 0.7
        assert cfg.lexicon.selection_threshold == 0.3
        assert cfg.n_trials == 1000 and cfg.episodes_per_trial == 1
        assert "recall" in defaults and "n_trials" in defaults

    def test_scalar_cue_fraction_expands(self):
        cfg, _ = parse_config(minimal_raw(recall={"cue_fraction": 0.4}))
        assert cfg.recall.cue_fraction == {c: 0.4 for c in COMPONENTS}

    def test_normalized_round_trip(self):
        cfg, _ = parse_config(minimal_raw(recall={"cue_fraction": 0.4}))
        echoed = normalized_dict(cfg)
        cfg2, defaults2 = parse_config(echoed)
        assert cfg2 == cfg
        assert defaults2 == []

    def test_generator_lexicon(self):
        cfg, _ = parse_config(
            {
                "seed": 1,
                "lexicon": {
                    "generator": {
                        "count": 3,
                        "lengths": {"semantic": 9, "lexical": 9, "phonological": 9},
                    }
                },
                "target": "w2",
            }
        )
        assert cfg.lexicon.generator.count == 3
        assert cfg.target == "w2"

    def test_sweep_parses(self):
        cfg, _ = parse_config(
            minimal_raw(
                damage=[{"word": "apple", "component": "phonological", "fraction": 0.1}],
                sweep={"q": [0.0, 0.5], "d": [0.0, 0.2]},
            )
        )
        assert cfg.sweep.q == (0.0, 0.5)
        assert cfg.sweep.d == (0.0, 0.2)
        assert cfg.sweep.flip_rate is None


class TestValidationErrors:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal_raw(bogus=1))
        assert path_of(e) == "bogus"

    def test_unknown_nested_field(self):
        raw = minimal_raw(recall={"cue_fraction": 0.2, "turbo": True})
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "recall.turbo"

    def test_cue_fraction_out_of_range(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal_raw(recall={"cue_fraction": 1.5}))
        assert path_of(e) == "recall.cue_fraction"

    def test_cue_fraction_map_out_of_range(self):
        raw = minimal_raw(
            recall={"cue_fraction": {"semantic": 0.2, "lexical": 0.2, "phonological": 1.5}}
        )
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "recall.cue_fraction.phonological"

    def test_bad_pattern_characters(self):
        raw = minimal_raw()
        raw["lexicon"]["words"][0]["semantic"] = "++*+--++-"
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "lexicon.words[0].semantic"

    def test_inconsistent_pattern_lengths(self):
        raw = minimal_raw()
        raw["lexicon"]["words"].append(
            {"id": "pear", "semantic": "+++", "lexical": "+++", "phonological": "+++"}
        )
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "lexicon.words[1].semantic"

    def test_missing_seed(self):
        raw = minimal_raw()
        del raw["seed"]
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "seed"

    def test_seed_bounds(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(seed=-1))
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(seed=2**64))
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(seed=True))

    def test_unknown_target(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal_raw(target="pear"))
        assert path_of(e) == "target"

    def test_words_and_generator_exclusive(self):
        raw = minimal_raw()
        raw["lexicon"]["generator"] = {
            "count": 1,
            "lengths": {"semantic": 9, "lexical": 9, "phonological": 9},
        }
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "lexicon"

    def test_duplicate_word_ids(self):
        raw = minimal_raw()
        raw["lexicon"]["words"].append(dict(raw["lexicon"]["words"][0]))
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "lexicon.words"

    def test_slot_out_of_range(self):
        raw = minimal_raw()
        raw["lexicon"]["slots"] = {"first_letter": [8, 9]}
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "lexicon.slots"

    def test_damage_unknown_word(self):
        raw = minimal_raw(
            damage=[{"word": "pear", "component": "phonological", "fraction": 0.5}]
        )
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "damage[0].word"

    def test_damage_unknown_protected_slot(self):
        raw = minimal_raw(
            damage=[
                {
                    "word": "apple",
                    "component": "phonological",
                    "fraction": 0.5,
                    "protected_slots": ["first_letter"],
                }
            ]
        )
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "damage[0].protected_slots"

    def test_corruption_flip_count_bounded(self):
        raw = minimal_raw(
            metamemory_corruption=[
                {"word": "apple", "component": "lexical", "flips": 10}
            ]
        )
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "metamemory_corruption[0].flips"

    def test_priming_bonus_bounded(self):
        raw = minimal_raw(priming=[{"word": "apple", "bonus": 1.5, "decay_trials": 2}])
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "priming[0].bonus"

    def test_sweep_d_requires_damage(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal_raw(sweep={"d": [0.0, 0.5]}))
        assert path_of(e) == "sweep.d"

    def test_sweep_empty_grid(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal_raw(sweep={"q": []}))
        assert path_of(e) == "sweep.q"

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("q", [0.1, 0.2, 0.2]),
            ("d", [0.1, 0.2, 0.2]),
            ("flip_rate", [0.1, 0.2, 0.2]),
            ("q", [1, 0.5, 1.0]),
        ],
        ids=["q", "d", "flip_rate", "q-int-and-float"],
    )
    def test_sweep_values_must_be_distinct(self, axis, values):
        # Equal grid values would make two sweep points with one set of
        # coordinates, and summarize would merge them into one row.
        damage = [{"word": "apple", "component": "phonological", "fraction": 0.5}]
        raw = minimal_raw(damage=damage, sweep={axis: values})
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == f"sweep.{axis}[2]"

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("damage", {"word": "apple", "component": "phonological", "fraction": 0.5}),
            ("metamemory_corruption", {"word": "apple", "component": "phonological", "flips": 1}),
        ],
        ids=["damage", "metamemory_corruption"],
    )
    def test_one_entry_per_word_and_component(self, key, entry):
        # A repeat would act on the first entry's result: a second damage
        # draw that sweep_d does not report, or flips that may undo the first.
        other_component = {**entry, "component": "lexical"}
        raw = minimal_raw(**{key: [entry, other_component, dict(entry)]})
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == f"{key}[2]"
        assert f"{key}[0]" in str(e.value)
        cfg, _ = parse_config(minimal_raw(**{key: [entry, other_component]}))
        assert len(getattr(cfg, key)) == 2

    def test_priming_entries_on_one_word_sum(self):
        priming = [{"word": "apple", "bonus": 0.25, "decay_trials": 2}] * 2
        cfg, _ = parse_config(minimal_raw(priming=priming))
        assert materialize_bonuses(cfg, 1) == {"apple": 0.5}

    def test_priming_unknown_word(self):
        raw = minimal_raw(priming=[{"word": "pear", "bonus": 0.2, "decay_trials": 1}])
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "priming[0].word"

    def test_sweep_without_axes(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal_raw(sweep={}))
        assert path_of(e) == "sweep"

    def test_chronometry_spike_must_be_positive(self):
        raw = minimal_raw(recall={"chronometry": {"spike_ms": 0}})
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "recall.chronometry.spike_ms"

    def test_episodes_and_trials_minimum(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(episodes_per_trial=0))
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(n_trials=0))

    def test_strength_threshold_open_interval(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(recall={"strength_threshold": 1.0}))
        with pytest.raises(ConfigError):
            parse_config(minimal_raw(recall={"strength_threshold": 0.0}))

    def test_protected_slots_only_on_phonological(self):
        raw = minimal_raw(
            damage=[
                {
                    "word": "apple",
                    "component": "semantic",
                    "fraction": 0.5,
                    "protected_slots": ["first_letter"],
                }
            ]
        )
        raw["lexicon"]["slots"] = {"first_letter": [0, 1, 2]}
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "damage[0].protected_slots"

    def test_word_frequency_is_an_unknown_field(self):
        raw = minimal_raw()
        raw["lexicon"]["words"][0]["frequency"] = 1.0
        with pytest.raises(ConfigError, match="unknown field") as e:
            parse_config(raw)
        assert path_of(e) == "lexicon.words[0].frequency"

    def test_protected_slot_name_must_be_a_string(self):
        raw = minimal_raw(
            damage=[
                {
                    "word": "apple",
                    "component": "phonological",
                    "fraction": 0.5,
                    "protected_slots": [3],
                }
            ]
        )
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "damage[0].protected_slots[0]"


def _set(raw, path, value):
    """Set a dotted path with `[i]` list steps, e.g. `damage[0].fraction`."""
    *parents, last = path.replace("[", ".[").split(".")
    node = raw
    for key in parents:
        node = node[int(key[1:-1])] if key.startswith("[") else node[key]
    if last.startswith("["):
        node[int(last[1:-1])] = value
    else:
        node[last] = value


class TestNonFiniteNumbers:
    """`json.loads` reads bare NaN, Infinity and -Infinity; every range check
    compares false on NaN, so each number must be checked for finiteness."""

    PATHS = [
        "semantic_input_flip_rate",
        "lexicon.selection_threshold",
        "damage[0].fraction",
        "sweep.d[0]",
        "recall.chronometry.spike_ms",
    ]

    def raw(self):
        raw = minimal_raw(
            damage=[{"word": "apple", "component": "phonological", "fraction": 0.5}],
            sweep={"d": [0.1, 0.5]},
            recall={"chronometry": {"spike_ms": 1.0}},
        )
        raw["semantic_input_flip_rate"] = 0.1
        raw["lexicon"]["selection_threshold"] = 0.3
        return raw

    def test_the_finite_config_parses(self):
        parse_config(self.raw())

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("path", PATHS)
    def test_rejected_with_its_path(self, path, value):
        raw = self.raw()
        _set(raw, path, json.loads(value))
        with pytest.raises(ConfigError, match="finite") as e:
            parse_config(raw)
        assert path_of(e) == path

    def test_rejected_from_json_text(self, tmp_path):
        config = tmp_path / "config.json"
        raw = self.raw()
        raw["semantic_input_flip_rate"] = 0.125
        config.write_text(json.dumps(raw).replace("0.125", "NaN"))
        with pytest.raises(ConfigError) as e:
            parse_config(load_raw_config(config))
        assert path_of(e) == "semantic_input_flip_rate"

    def test_integer_too_large_for_a_float_rejected(self):
        raw = self.raw()
        raw["recall"]["chronometry"]["spike_ms"] = 10**400
        with pytest.raises(ConfigError, match="finite") as e:
            parse_config(raw)
        assert path_of(e) == "recall.chronometry.spike_ms"


def generated_raw(count, **overrides):
    raw = {
        "seed": 1,
        "lexicon": {
            "generator": {
                "count": count,
                "lengths": {"semantic": 9, "lexical": 9, "phonological": 9},
            }
        },
        "target": "w0",
    }
    raw.update(overrides)
    return raw


class TestGeneratedWordIds:
    def test_checking_ids_builds_no_string_per_word(self):
        count = 10**6
        raw = generated_raw(
            count,
            target=f"w{count - 1}",
            damage=[{"word": "w12345", "component": "phonological", "fraction": 0.5}],
            priming=[{"word": "w0", "bonus": 0.2, "decay_trials": 1}],
        )
        tracemalloc.start()
        try:
            parse_config(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("word_id", ["w0", "w7", "w999"])
    def test_generated_id_accepted(self, word_id):
        cfg, _ = parse_config(generated_raw(1000, target=word_id))
        assert cfg.target == word_id

    @pytest.mark.parametrize(
        "word_id",
        # w\u0661 is w followed by ARABIC-INDIC DIGIT ONE, a digit to str.isdigit.
        ["w01", "w00", "w1000", "w", "W1", "w-1", "w+1", "w 1", "w1.0", "w\u0661"]
        + [pytest.param("w" + "9" * 5000, id="w-and-5000-digits")],
    )
    def test_generated_id_rejected(self, word_id):
        with pytest.raises(ConfigError) as e:
            parse_config(generated_raw(1000, target=word_id))
        assert path_of(e) == "target"


class TestLexiconShape:
    def test_impossible_distance_rejected_at_parse_time(self):
        raw = generated_raw(3)
        raw["lexicon"]["generator"]["min_pairwise_distance"] = 10
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert path_of(e) == "lexicon.generator.min_pairwise_distance"

    def test_slot_map_is_built_once(self, monkeypatch):
        built = []
        real = SlotMap.__post_init__
        monkeypatch.setattr(SlotMap, "__post_init__", lambda m: built.append(1) or real(m))
        raw = minimal_raw()
        raw["lexicon"]["slots"] = {"first_letter": [0, 1, 2]}
        cfg, _ = parse_config(raw)
        lex = build_scenario_lexicon(cfg)
        assert len(built) == 1
        assert lex.node_by_id("apple").slot_map is cfg.lexicon.slot_map


# A generated lexicon with every optional table in use: slots, protected
# slots, a per-component cue, chronometry, corruption, priming and all
# three sweep axes.
RICH_GENERATED = {
    "seed": 9,
    "lexicon": {
        "selection_threshold": 0.25,
        "generator": {
            "count": 20,
            "lengths": {"semantic": 9, "lexical": 11, "phonological": 15},
            "min_pairwise_distance": 2,
        },
        "slots": {"first_letter": [0, 1, 2], "stress": [5]},
    },
    "target": "w3",
    "semantic_input_flip_rate": 0.05,
    "recall": {
        "cue_fraction": {"semantic": 0.2, "lexical": 0.3, "phonological": 0.4},
        "max_attempts": 8,
        "link_gain": 0.1,
        "chronometry": {"spike_ms": 2.0, "interval_ms": 5.0},
        "strength_threshold": 0.6,
        "fixed_cue_per_episode": True,
    },
    "damage": [
        {
            "word": "w3",
            "component": "phonological",
            "fraction": 0.3,
            "protected_slots": ["first_letter"],
        },
        {"word": "w4", "component": "lexical", "fraction": 0.1},
    ],
    "metamemory_corruption": [{"word": "w3", "component": "phonological", "flips": 2}],
    "priming": [{"word": "w5", "bonus": 0.2, "decay_trials": 3}],
    "episodes_per_trial": 2,
    "n_trials": 10,
    "sweep": {"q": [0.1, 0.2], "d": [0.0, 0.5], "flip_rate": [0.0, 0.1]},
}

ROUND_TRIP = {
    **{path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))},
    "rich_generated": RICH_GENERATED,
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(ROUND_TRIP))
    def test_normalized_config_parses_back_unchanged(self, name):
        cfg, _ = parse_config(copy.deepcopy(ROUND_TRIP[name]))
        echoed, defaults = parse_config(normalized_dict(cfg))
        assert echoed == cfg
        assert defaults == []

    def test_omitted_object_is_listed_once(self):
        _, defaults = parse_config(minimal_raw())
        assert "recall" in defaults
        assert not [path for path in defaults if path.startswith("recall.")]

    def test_omitted_alternatives_and_axes_are_not_listed(self):
        raw = copy.deepcopy(RICH_GENERATED)
        del raw["damage"][0]["protected_slots"]
        del raw["sweep"]["q"]
        _, defaults = parse_config(raw)
        assert defaults == []
        del raw["sweep"]
        _, defaults = parse_config(raw)
        assert defaults == []
