"""The shipped scenario configs, loaded by name.

Each file `configs/<name>.json` of the checkout is the one source of a
classic retrieval effect (see the README's scenario table); its stem is the
scenario's name.
"""

from __future__ import annotations

from pathlib import Path

from .config import load_raw_config
from .errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def names() -> list[str]:
    """The shipped scenario names, sorted."""
    return sorted(path.stem for path in CONFIGS.glob("*.json"))


def load(name: str, **overrides) -> dict:
    """The raw config of scenario `name`, with the given top-level keys replaced."""
    if name not in names():
        raise ConfigError("scenario", f"unknown scenario {name!r}; shipped: {', '.join(names())}")
    return {**load_raw_config(CONFIGS / f"{name}.json"), **overrides}
