"""Scenario configuration: JSON schema parsing, validation with field-path
diagnostics, defaults resolution, and normalized re-emission.

Each JSON object has one field table `{key: (spec, default)}`, read by
`_read`. A spec is a reader `(value, path) -> parsed`, a nested table, or a
one-item list `[spec]` for a list of that item. The default is `_REQUIRED`,
`_ABSENT` (an alternative or a sweep axis: the key stays out and the dataclass
default stands), or a value read through the same spec when the key is
absent, whose path then goes to `defaults_applied`. Keys are the dataclass
field names, so `normalized_dict` is `asdict` with one fix-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from .errors import ConfigError, ParameterError
from .experiment import (
    CorruptionEntry,
    DamagePlanEntry,
    PrimingEntry,
    ScenarioConfig,
    SweepGrid,
)
from .lexicon import COMPONENTS, GeneratorSpec, LexiconSpec, WordSpec
from .patterns import BipolarPattern
from .recall import RecallParams

_MAX_SEED = 2**64 - 1

_REQUIRED = object()
_ABSENT = object()


def _join(path: str, key) -> str:
    key = str(key)
    if not path:
        return key
    if key.startswith("["):
        return path + key
    return f"{path}.{key}"


def _as_number(value, path: str, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    # json.loads reads NaN and Infinity, and NaN passes every range check.
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if lo is not None and (x < lo or (lo_open and x == lo)):
        raise ConfigError(path, f"value {value} below allowed range")
    if hi is not None and (x > hi or (hi_open and x == hi)):
        raise ConfigError(path, f"value {value} above allowed range")
    return x


def _as_int(value, path: str, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(path, f"value {value} below allowed minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"value {value} above allowed maximum {hi}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, f"expected a non-empty string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _pattern(value, path: str) -> BipolarPattern:
    text = _as_str(value, path)
    try:
        return BipolarPattern.from_text(text)
    except ParameterError as exc:
        raise ConfigError(path, str(exc)) from exc


def _as_component(value, path: str) -> str:
    comp = _as_str(value, path)
    if comp not in COMPONENTS:
        raise ConfigError(path, f"component must be one of {COMPONENTS}, got {comp!r}")
    return comp


_unit = partial(_as_number, lo=0.0, hi=1.0)
_positive = partial(_as_int, lo=1)
_natural = partial(_as_int, lo=0)


def _read(spec, value, path: str, applied: list[str]):
    """Read `value`, found at `path`, by `spec` (see the module docstring).
    The path of each absent field that took its default is appended to
    `applied`; an absent object is listed once, by its own path."""
    if callable(spec):
        return spec(value, path)
    if isinstance(spec, list):
        # A tuple is read as a list: the list defaults come from the dataclasses.
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, "expected a list")
        return tuple([_read(spec[0], v, f"{path}[{i}]", applied) for i, v in enumerate(value)])
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    for key in value:
        if key not in spec:
            raise ConfigError(_join(path, key), "unknown field")
    out = {}
    for key, (item, default) in spec.items():
        key_path = f"{path}.{key}" if path else key
        if key in value:
            item_value, item_applied = value[key], applied
        elif default is _REQUIRED:
            raise ConfigError(key_path, "missing required field")
        elif default is _ABSENT:
            continue
        else:
            applied.append(key_path)
            item_value, item_applied = default, []
        # Scalar readers are called directly, saving a frame per field:
        # parsing is a measurable share of a run's set-up time.
        out[key] = (
            item(item_value, key_path)
            if callable(item)
            else _read(item, item_value, key_path, item_applied)
        )
    return out


def _slots(value, path: str) -> dict[str, tuple[int, ...]]:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    slots = {}
    for name, indices in value.items():
        slot_path = _join(path, name)
        if not isinstance(indices, list) or not indices:
            raise ConfigError(slot_path, "expected a non-empty list of unit indices")
        slots[name] = tuple(_natural(i, slot_path) for i in indices)
    return slots


_CUE_PER_COMPONENT = {comp: (_unit, _REQUIRED) for comp in COMPONENTS}


def _cue_fraction(value, path: str) -> dict[str, float]:
    """One fraction for every component, or an object with one per component."""
    if isinstance(value, dict):
        return _read(_CUE_PER_COMPONENT, value, path, [])
    return dict.fromkeys(COMPONENTS, _unit(value, path))


def _grid(value, path: str) -> tuple[float, ...]:
    values = _read([_unit], value, path, [])
    if not values:
        raise ConfigError(path, "grid must be non-empty")
    for i, x in enumerate(values):
        if x in values[:i]:
            # Two equal grid values would be two sweep points with the same
            # coordinates, which the summary could not tell apart.
            raise ConfigError(
                f"{path}[{i}]", f"repeats {path}[{values.index(x)}]; values must be distinct"
            )
    return values


_WORD = {"id": (_as_str, _REQUIRED), **{comp: (_pattern, _REQUIRED) for comp in COMPONENTS}}

_LEXICON = {
    "selection_threshold": (
        partial(_as_number, lo=0.0, lo_open=True, hi=1.0),
        LexiconSpec.selection_threshold,
    ),
    "words": ([_WORD], _ABSENT),
    "generator": (
        {
            "count": (_positive, _REQUIRED),
            "lengths": ({comp: (_positive, _REQUIRED) for comp in COMPONENTS}, _REQUIRED),
            "min_pairwise_distance": (_natural, GeneratorSpec.min_pairwise_distance),
        },
        _ABSENT,
    ),
    "slots": (_slots, {}),
}

# RecallParams keeps these flat; the JSON nests them under `chronometry`.
_CHRONOMETRY = {
    "spike_ms": (partial(_as_number, lo=0.0, lo_open=True), RecallParams.spike_ms),
    "interval_ms": (partial(_as_number, lo=0.0), RecallParams.interval_ms),
}

_RECALL = {
    "cue_fraction": (_cue_fraction, 0.0),
    "max_attempts": (_positive, RecallParams.max_attempts),
    "link_gain": (_unit, RecallParams.link_gain),
    "chronometry": (_CHRONOMETRY, {}),
    "strength_threshold": (
        partial(_as_number, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
        RecallParams.strength_threshold,
    ),
    "fixed_cue_per_episode": (_as_bool, RecallParams.fixed_cue_per_episode),
}

_DAMAGE = {
    "word": (_as_str, _REQUIRED),
    "component": (_as_component, _REQUIRED),
    "fraction": (_unit, _REQUIRED),
    "protected_slots": ([_as_str], _ABSENT),
}

_CORRUPTION = {
    "word": (_as_str, _REQUIRED),
    "component": (_as_component, _REQUIRED),
    "flips": (_natural, _REQUIRED),
}

_PRIMING = {
    "word": (_as_str, _REQUIRED),
    "bonus": (_unit, _REQUIRED),
    "decay_trials": (_natural, _REQUIRED),
}

_SCENARIO = {
    "seed": (partial(_as_int, lo=0, hi=_MAX_SEED), _REQUIRED),
    "lexicon": (_LEXICON, _REQUIRED),
    "target": (_as_str, _REQUIRED),
    "semantic_input_flip_rate": (_unit, ScenarioConfig.semantic_input_flip_rate),
    "recall": (_RECALL, {}),
    "damage": ([_DAMAGE], ScenarioConfig.damage),
    "metamemory_corruption": ([_CORRUPTION], ScenarioConfig.metamemory_corruption),
    "priming": ([_PRIMING], ScenarioConfig.priming),
    "episodes_per_trial": (_positive, ScenarioConfig.episodes_per_trial),
    "n_trials": (_positive, ScenarioConfig.n_trials),
    "sweep": ({axis.name: (_grid, _ABSENT) for axis in fields(SweepGrid)}, _ABSENT),
}


def _lexicon(doc: dict) -> LexiconSpec:
    if "words" in doc:
        doc["words"] = tuple(WordSpec(**word) for word in doc["words"])
    if "generator" in doc:
        doc["generator"] = GeneratorSpec(**doc["generator"])
    return LexiconSpec(**doc)


def _check_word(lexicon: LexiconSpec, word_id: str, path: str) -> None:
    if not lexicon.has_word(word_id):
        raise ConfigError(path, f"unknown word id {word_id!r}")


def _check_one_per_component(entries, path: str) -> None:
    """Two entries on one (word, component) would compound silently: a
    second damage draw or a second set of flips on the first one's result."""
    first = {}
    for i, entry in enumerate(entries):
        j = first.setdefault((entry.word, entry.component), i)
        if j != i:
            raise ConfigError(
                f"{path}[{i}]",
                f"repeats the word and component of {path}[{j}]; one entry per (word, component)",
            )


def _check_references(cfg: ScenarioConfig) -> None:
    lexicon = cfg.lexicon
    _check_word(lexicon, cfg.target, "target")
    _check_one_per_component(cfg.damage, "damage")
    _check_one_per_component(cfg.metamemory_corruption, "metamemory_corruption")
    for i, entry in enumerate(cfg.damage):
        _check_word(lexicon, entry.word, f"damage[{i}].word")
        slots_path = f"damage[{i}].protected_slots"
        if entry.protected_slots and entry.component != "phonological":
            raise ConfigError(slots_path, "slots segment the phonological component only")
        for name in entry.protected_slots:
            if name not in lexicon.slots:
                raise ConfigError(slots_path, f"unknown slot {name!r}")
    for i, entry in enumerate(cfg.metamemory_corruption):
        _check_word(lexicon, entry.word, f"metamemory_corruption[{i}].word")
        n = lexicon.lengths[entry.component]
        if entry.flips > n:
            raise ConfigError(
                f"metamemory_corruption[{i}].flips",
                f"value {entry.flips} above allowed maximum {n}",
            )
    for i, entry in enumerate(cfg.priming):
        _check_word(lexicon, entry.word, f"priming[{i}].word")
    if cfg.sweep == SweepGrid():
        raise ConfigError("sweep", "declare at least one axis (q, d, flip_rate)")
    if cfg.sweep is not None and cfg.sweep.d is not None and not cfg.damage:
        raise ConfigError("sweep.d", "sweeping d requires at least one damage entry")


def parse_config(raw: dict) -> tuple[ScenarioConfig, list[str]]:
    """Validate a raw config dict; returns the scenario and the list of
    field paths that were filled in from defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    applied: list[str] = []
    doc = _read(_SCENARIO, raw, "", applied)
    doc["lexicon"] = _lexicon(doc["lexicon"])
    recall = doc["recall"]
    recall.update(recall.pop("chronometry"))
    doc["recall"] = RecallParams(**recall)
    for key, entry_type in (
        ("damage", DamagePlanEntry),
        ("metamemory_corruption", CorruptionEntry),
        ("priming", PrimingEntry),
    ):
        doc[key] = tuple(entry_type(**entry) for entry in doc[key])
    if "sweep" in doc:
        doc["sweep"] = SweepGrid(**doc["sweep"])
    cfg = ScenarioConfig(**doc)
    _check_references(cfg)
    return cfg, applied


def load_raw_config(path) -> dict:
    """Read a scenario file as a raw dict, without validation."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc


def _plain(value):
    """An `asdict` tree as JSON values: patterns as text, tuples as lists,
    None fields dropped."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, BipolarPattern):
        return value.to_text()
    return value


def normalized_dict(cfg: ScenarioConfig) -> dict:
    """Defaults-resolved config as a plain dict; parsing it back yields an
    identical scenario."""
    out = _plain(asdict(cfg))
    recall = out["recall"]
    recall["chronometry"] = {key: recall.pop(key) for key in _CHRONOMETRY}
    return out
