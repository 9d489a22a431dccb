"""Scenario configuration: JSON schema parsing, validation with field-path
diagnostics, defaults resolution, and normalized re-emission."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, DimensionError, ParameterError, TotsimError
from .experiment import (
    CorruptionEntry,
    DamagePlanEntry,
    PrimingEntry,
    ScenarioConfig,
    SweepGrid,
)
from .lexicon import COMPONENTS, GeneratorSpec, LexiconSpec, WordSpec
from .patterns import BipolarPattern, SlotMap
from .recall import RecallParams

_MAX_SEED = 2**64 - 1


def _join(path: str, key) -> str:
    key = str(key)
    if not path:
        return key
    if key.startswith("["):
        return path + key
    return f"{path}.{key}"


def _check_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown field")


def _get_obj(obj: dict, key: str, path: str, required=False, default=None):
    if key not in obj:
        if required:
            raise ConfigError(_join(path, key), "missing required field")
        return default
    value = obj[key]
    if not isinstance(value, dict):
        raise ConfigError(_join(path, key), "expected an object")
    return value


def _get_list(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, list):
        raise ConfigError(_join(path, key), "expected a list")
    return value


def _as_number(value, path: str, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    x = float(value)
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


class _Defaults:
    """Collects the field paths that were filled in from defaults."""

    def __init__(self):
        self.applied: list[str] = []

    def number(self, obj, key, path, default, **kw) -> float:
        if key not in obj:
            self.applied.append(_join(path, key))
            return default
        return _as_number(obj[key], _join(path, key), **kw)

    def integer(self, obj, key, path, default, **kw) -> int:
        if key not in obj:
            self.applied.append(_join(path, key))
            return default
        return _as_int(obj[key], _join(path, key), **kw)

    def boolean(self, obj, key, path, default) -> bool:
        if key not in obj:
            self.applied.append(_join(path, key))
            return default
        return _as_bool(obj[key], _join(path, key))

    def mark(self, path: str) -> None:
        self.applied.append(path)


def _parse_lexicon(obj: dict, defaults: _Defaults) -> LexiconSpec:
    path = "lexicon"
    _check_unknown(obj, {"selection_threshold", "words", "generator", "slots"}, path)
    threshold = defaults.number(
        obj, "selection_threshold", path, 0.3, lo=0.0, lo_open=True, hi=1.0
    )
    words_raw = _get_list(obj, "words", path)
    gen_raw = _get_obj(obj, "generator", path)
    if (words_raw is None) == (gen_raw is None):
        raise ConfigError(path, "declare exactly one of 'words' and 'generator'")

    words = None
    generator = None
    lengths: dict[str, int] = {}
    if words_raw is not None:
        if not words_raw:
            raise ConfigError(_join(path, "words"), "needs at least one word")
        parsed = []
        for i, entry in enumerate(words_raw):
            wpath = f"{path}.words[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(wpath, "expected an object")
            _check_unknown(entry, {"id", "frequency", *COMPONENTS}, wpath)
            if "id" not in entry:
                raise ConfigError(_join(wpath, "id"), "missing required field")
            word_id = _as_str(entry["id"], _join(wpath, "id"))
            frequency = defaults.number(entry, "frequency", wpath, 1.0, lo=0.0)
            patterns = {}
            for comp in COMPONENTS:
                if comp not in entry:
                    raise ConfigError(_join(wpath, comp), "missing required field")
                patterns[comp] = _pattern(entry[comp], _join(wpath, comp))
                if i == 0:
                    lengths[comp] = len(patterns[comp])
                elif len(patterns[comp]) != lengths[comp]:
                    raise ConfigError(
                        _join(wpath, comp),
                        f"length {len(patterns[comp])} != length {lengths[comp]} of word 0",
                    )
            parsed.append(WordSpec(id=word_id, patterns=patterns, frequency=frequency))
        ids = [w.id for w in parsed]
        if len(set(ids)) != len(ids):
            raise ConfigError(_join(path, "words"), "word ids must be unique")
        words = tuple(parsed)
    else:
        gpath = f"{path}.generator"
        _check_unknown(gen_raw, {"count", "lengths", "min_pairwise_distance"}, gpath)
        if "count" not in gen_raw:
            raise ConfigError(_join(gpath, "count"), "missing required field")
        count = _as_int(gen_raw["count"], _join(gpath, "count"), lo=1)
        lengths_raw = _get_obj(gen_raw, "lengths", gpath, required=True)
        _check_unknown(lengths_raw, set(COMPONENTS), _join(gpath, "lengths"))
        for comp in COMPONENTS:
            if comp not in lengths_raw:
                raise ConfigError(_join(f"{gpath}.lengths", comp), "missing required field")
            lengths[comp] = _as_int(lengths_raw[comp], _join(f"{gpath}.lengths", comp), lo=1)
        minimum = defaults.integer(gen_raw, "min_pairwise_distance", gpath, 1, lo=0)
        generator = GeneratorSpec(
            count=count, lengths=dict(lengths), min_pairwise_distance=minimum
        )

    slots_raw = _get_obj(obj, "slots", path)
    if slots_raw is None:
        defaults.mark(_join(path, "slots"))
        slots_raw = {}
    slots: dict[str, tuple[int, ...]] = {}
    for name, indices in slots_raw.items():
        spath = _join(f"{path}.slots", name)
        if not isinstance(indices, list) or not indices:
            raise ConfigError(spath, "expected a non-empty list of unit indices")
        slots[name] = tuple(_as_int(i, spath, lo=0) for i in indices)
    try:
        SlotMap(lengths["phonological"], dict(slots))
    except (ParameterError, DimensionError) as exc:
        raise ConfigError(_join(path, "slots"), str(exc)) from exc
    return LexiconSpec(
        selection_threshold=threshold, words=words, generator=generator, slots=slots
    )


def _parse_recall(obj: dict, defaults: _Defaults) -> RecallParams:
    path = "recall"
    _check_unknown(
        obj,
        {
            "cue_fraction",
            "max_attempts",
            "link_gain",
            "chronometry",
            "strength_threshold",
            "fixed_cue_per_episode",
        },
        path,
    )
    if "cue_fraction" not in obj:
        defaults.mark(_join(path, "cue_fraction"))
        cue = {comp: 0.0 for comp in COMPONENTS}
    elif isinstance(obj["cue_fraction"], dict):
        cpath = f"{path}.cue_fraction"
        _check_unknown(obj["cue_fraction"], set(COMPONENTS), cpath)
        cue = {}
        for comp in COMPONENTS:
            if comp not in obj["cue_fraction"]:
                raise ConfigError(_join(cpath, comp), "missing required field")
            cue[comp] = _as_number(obj["cue_fraction"][comp], _join(cpath, comp), lo=0.0, hi=1.0)
    else:
        q = _as_number(obj["cue_fraction"], _join(path, "cue_fraction"), lo=0.0, hi=1.0)
        cue = {comp: q for comp in COMPONENTS}
    max_attempts = defaults.integer(obj, "max_attempts", path, 64, lo=1)
    link_gain = defaults.number(obj, "link_gain", path, 0.0, lo=0.0, hi=1.0)
    chrono = _get_obj(obj, "chronometry", path)
    if chrono is None:
        defaults.mark(_join(path, "chronometry"))
        spike_ms, interval_ms = 1.0, 10.0
    else:
        cpath = f"{path}.chronometry"
        _check_unknown(chrono, {"spike_ms", "interval_ms"}, cpath)
        spike_ms = defaults.number(chrono, "spike_ms", cpath, 1.0, lo=0.0, lo_open=True)
        interval_ms = defaults.number(chrono, "interval_ms", cpath, 10.0, lo=0.0)
    strength = defaults.number(
        obj, "strength_threshold", path, 0.7, lo=0.0, hi=1.0, lo_open=True, hi_open=True
    )
    fixed_cue = defaults.boolean(obj, "fixed_cue_per_episode", path, False)
    return RecallParams(
        cue_fraction=cue,
        max_attempts=max_attempts,
        link_gain=link_gain,
        spike_ms=spike_ms,
        interval_ms=interval_ms,
        strength_threshold=strength,
        fixed_cue_per_episode=fixed_cue,
    )


def _word_ids(lexicon: LexiconSpec) -> set[str]:
    if lexicon.words is not None:
        return {w.id for w in lexicon.words}
    return {f"w{i}" for i in range(lexicon.generator.count)}


def _component_length(lexicon: LexiconSpec, component: str) -> int:
    if lexicon.words is not None:
        return len(lexicon.words[0].patterns[component])
    return lexicon.generator.lengths[component]


def _as_component(value, path: str) -> str:
    comp = _as_str(value, path)
    if comp not in COMPONENTS:
        raise ConfigError(path, f"component must be one of {COMPONENTS}, got {comp!r}")
    return comp


def _parse_plans(raw: dict, lexicon: LexiconSpec, defaults: _Defaults):
    ids = _word_ids(lexicon)
    damage = []
    for i, entry in enumerate(_get_list(raw, "damage", "", default=[]) or []):
        path = f"damage[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "expected an object")
        _check_unknown(entry, {"word", "component", "fraction", "protected_slots"}, path)
        for key in ("word", "component", "fraction"):
            if key not in entry:
                raise ConfigError(_join(path, key), "missing required field")
        word = _as_str(entry["word"], _join(path, "word"))
        if word not in ids:
            raise ConfigError(_join(path, "word"), f"unknown word id {word!r}")
        component = _as_component(entry["component"], _join(path, "component"))
        fraction = _as_number(entry["fraction"], _join(path, "fraction"), lo=0.0, hi=1.0)
        protected = tuple(
            _as_str(s, _join(path, "protected_slots"))
            for s in (_get_list(entry, "protected_slots", path, default=[]) or [])
        )
        if protected and component != "phonological":
            raise ConfigError(
                _join(path, "protected_slots"),
                "slots segment the phonological component only",
            )
        for name in protected:
            if name not in lexicon.slots:
                raise ConfigError(
                    _join(path, "protected_slots"), f"unknown slot {name!r}"
                )
        damage.append(
            DamagePlanEntry(
                word=word, component=component, fraction=fraction, protected_slots=protected
            )
        )

    corruption = []
    for i, entry in enumerate(
        _get_list(raw, "metamemory_corruption", "", default=[]) or []
    ):
        path = f"metamemory_corruption[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "expected an object")
        _check_unknown(entry, {"word", "component", "flips"}, path)
        for key in ("word", "component", "flips"):
            if key not in entry:
                raise ConfigError(_join(path, key), "missing required field")
        word = _as_str(entry["word"], _join(path, "word"))
        if word not in ids:
            raise ConfigError(_join(path, "word"), f"unknown word id {word!r}")
        component = _as_component(entry["component"], _join(path, "component"))
        flips = _as_int(
            entry["flips"],
            _join(path, "flips"),
            lo=0,
            hi=_component_length(lexicon, component),
        )
        corruption.append(CorruptionEntry(word=word, component=component, flips=flips))

    priming = []
    for i, entry in enumerate(_get_list(raw, "priming", "", default=[]) or []):
        path = f"priming[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "expected an object")
        _check_unknown(entry, {"word", "bonus", "decay_trials"}, path)
        for key in ("word", "bonus", "decay_trials"):
            if key not in entry:
                raise ConfigError(_join(path, key), "missing required field")
        word = _as_str(entry["word"], _join(path, "word"))
        if word not in ids:
            raise ConfigError(_join(path, "word"), f"unknown word id {word!r}")
        bonus = _as_number(entry["bonus"], _join(path, "bonus"), lo=0.0, hi=1.0)
        decay = _as_int(entry["decay_trials"], _join(path, "decay_trials"), lo=0)
        priming.append(PrimingEntry(word=word, bonus=bonus, decay_trials=decay))

    for key in ("damage", "metamemory_corruption", "priming"):
        if key not in raw:
            defaults.mark(key)
    return tuple(damage), tuple(corruption), tuple(priming)


def _parse_sweep(raw: dict, damage: tuple) -> SweepGrid | None:
    obj = _get_obj(raw, "sweep", "")
    if obj is None:
        return None
    _check_unknown(obj, {"q", "d", "flip_rate"}, "sweep")
    axes = {}
    for key in ("q", "d", "flip_rate"):
        values = _get_list(obj, key, "sweep")
        if values is None:
            axes[key] = None
            continue
        if not values:
            raise ConfigError(_join("sweep", key), "grid must be non-empty")
        parsed: list[float] = []
        for i, v in enumerate(values):
            path = f"sweep.{key}[{i}]"
            x = _as_number(v, path, lo=0.0, hi=1.0)
            if x in parsed:
                # Two equal grid values would be two sweep points with the
                # same coordinates, which the summary could not tell apart.
                raise ConfigError(
                    path, f"repeats sweep.{key}[{parsed.index(x)}]; values must be distinct"
                )
            parsed.append(x)
        axes[key] = tuple(parsed)
    if all(v is None for v in axes.values()):
        raise ConfigError("sweep", "declare at least one axis (q, d, flip_rate)")
    if axes["d"] is not None and not damage:
        raise ConfigError("sweep.d", "sweeping d requires at least one damage entry")
    return SweepGrid(q=axes["q"], d=axes["d"], flip_rate=axes["flip_rate"])


def parse_config(raw: dict) -> tuple[ScenarioConfig, list[str]]:
    """Validate a raw config dict; returns the scenario and the list of
    field paths that were filled in from defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    _check_unknown(
        raw,
        {
            "seed",
            "lexicon",
            "target",
            "semantic_input_flip_rate",
            "recall",
            "damage",
            "metamemory_corruption",
            "priming",
            "episodes_per_trial",
            "n_trials",
            "sweep",
        },
        "",
    )
    defaults = _Defaults()
    if "seed" not in raw:
        raise ConfigError("seed", "missing required field")
    seed = _as_int(raw["seed"], "seed", lo=0, hi=_MAX_SEED)
    lexicon = _parse_lexicon(_get_obj(raw, "lexicon", "", required=True), defaults)
    if "target" not in raw:
        raise ConfigError("target", "missing required field")
    target = _as_str(raw["target"], "target")
    if target not in _word_ids(lexicon):
        raise ConfigError("target", f"unknown word id {target!r}")
    flip_rate = defaults.number(raw, "semantic_input_flip_rate", "", 0.0, lo=0.0, hi=1.0)
    recall_obj = _get_obj(raw, "recall", "")
    if recall_obj is None:
        defaults.mark("recall")
        recall_obj = {}
    recall = _parse_recall(recall_obj, defaults)
    damage, corruption, priming = _parse_plans(raw, lexicon, defaults)
    episodes = defaults.integer(raw, "episodes_per_trial", "", 1, lo=1)
    n_trials = defaults.integer(raw, "n_trials", "", 1000, lo=1)
    sweep = _parse_sweep(raw, damage)
    try:
        cfg = ScenarioConfig(
            seed=seed,
            lexicon=lexicon,
            target=target,
            recall=recall,
            semantic_input_flip_rate=flip_rate,
            damage=damage,
            metamemory_corruption=corruption,
            priming=priming,
            episodes_per_trial=episodes,
            n_trials=n_trials,
            sweep=sweep,
        )
    except TotsimError as exc:
        raise ConfigError("config", str(exc)) from exc
    return cfg, defaults.applied


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


def normalized_dict(cfg: ScenarioConfig) -> dict:
    """Defaults-resolved config as a plain dict; parsing it back yields an
    identical scenario."""
    lex: dict = {"selection_threshold": cfg.lexicon.selection_threshold}
    if cfg.lexicon.words is not None:
        lex["words"] = [
            {
                "id": w.id,
                "frequency": w.frequency,
                **{comp: w.patterns[comp].to_text() for comp in COMPONENTS},
            }
            for w in cfg.lexicon.words
        ]
    else:
        gen = cfg.lexicon.generator
        lex["generator"] = {
            "count": gen.count,
            "lengths": {comp: gen.lengths[comp] for comp in COMPONENTS},
            "min_pairwise_distance": gen.min_pairwise_distance,
        }
    lex["slots"] = {name: list(idx) for name, idx in cfg.lexicon.slots.items()}
    out = {
        "seed": cfg.seed,
        "lexicon": lex,
        "target": cfg.target,
        "semantic_input_flip_rate": cfg.semantic_input_flip_rate,
        "recall": {
            "cue_fraction": {comp: cfg.recall.cue_fraction[comp] for comp in COMPONENTS},
            "max_attempts": cfg.recall.max_attempts,
            "link_gain": cfg.recall.link_gain,
            "chronometry": {
                "spike_ms": cfg.recall.spike_ms,
                "interval_ms": cfg.recall.interval_ms,
            },
            "strength_threshold": cfg.recall.strength_threshold,
            "fixed_cue_per_episode": cfg.recall.fixed_cue_per_episode,
        },
        "damage": [
            {
                "word": e.word,
                "component": e.component,
                "fraction": e.fraction,
                "protected_slots": list(e.protected_slots),
            }
            for e in cfg.damage
        ],
        "metamemory_corruption": [
            {"word": e.word, "component": e.component, "flips": e.flips}
            for e in cfg.metamemory_corruption
        ],
        "priming": [
            {"word": e.word, "bonus": e.bonus, "decay_trials": e.decay_trials}
            for e in cfg.priming
        ],
        "episodes_per_trial": cfg.episodes_per_trial,
        "n_trials": cfg.n_trials,
    }
    if cfg.sweep is not None:
        sweep = {}
        for key in ("q", "d", "flip_rate"):
            values = getattr(cfg.sweep, key)
            if values is not None:
                sweep[key] = list(values)
        out["sweep"] = sweep
    return out
