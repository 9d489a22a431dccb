"""Bipolar spike patterns: the +1/-1 unit encoding, similarity measures,
slot segmentation, and deterministic pattern generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError


class BipolarPattern:
    """Immutable fixed-length vector of +1/-1 units.

    Units model simultaneous excitatory/inhibitory spike effects. They are
    stored as signed integers so overlaps and network activations stay exact
    integer arithmetic.
    """

    __slots__ = ("_units",)

    def __init__(self, units):
        self._units = checked_units(units, ndim=1)

    @classmethod
    def _view(cls, row: np.ndarray) -> "BipolarPattern":
        """A pattern on a read-only int64 row of +1/-1 units: one that
        `checked_units` has checked, or one built from such units."""
        pattern = object.__new__(cls)
        pattern._units = row
        return pattern

    @property
    def units(self) -> np.ndarray:
        """Read-only int64 view of the units."""
        return self._units

    def __len__(self) -> int:
        return self._units.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipolarPattern):
            return NotImplemented
        return self._units.shape == other._units.shape and bool(
            np.all(self._units == other._units)
        )

    def __repr__(self) -> str:
        return f"BipolarPattern({self.to_text()!r})"

    def negate(self) -> "BipolarPattern":
        return BipolarPattern(-self._units)

    def with_flipped(self, indices) -> "BipolarPattern":
        """Return a copy with the units at `indices` sign-flipped."""
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise DimensionError("flip index out of range")
        out = self._units.copy()
        out[idx] = -out[idx]
        return BipolarPattern(out)

    def to_text(self) -> str:
        """Serialize as a '+'/'-' string; round-trips through from_text."""
        return "".join("+" if u > 0 else "-" for u in self._units)

    @classmethod
    def from_text(cls, text: str) -> "BipolarPattern":
        if not text:
            raise ParameterError("empty pattern string")
        bad = set(text) - {"+", "-"}
        if bad:
            raise ParameterError(
                f"pattern string may only contain '+' and '-', got {sorted(bad)!r}"
            )
        return cls([1 if ch == "+" else -1 for ch in text])


def checked_units(units, ndim: int) -> np.ndarray:
    """A read-only int64 copy of `units`, an `ndim`-dimensional array whose
    rows along the last axis are patterns: at least one unit, every unit +1
    or -1. A `(rows, n)` stack is checked once for all its rows, with the
    errors of `BipolarPattern`."""
    arr = np.array(units, dtype=np.int64)
    if arr.ndim != ndim or arr.shape[-1] < 1:
        raise ParameterError("a pattern needs at least one unit")
    if not (np.abs(arr) == 1).all():
        raise ParameterError("pattern units must be +1 or -1")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SlotMap:
    """Named, pairwise-disjoint unit index sets over a fixed pattern length.

    Slots name recoverable fragments of a pattern (a word's first letter,
    its gender marker, ...) for partial-information scoring.
    """

    length: int
    slots: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.length < 1:
            raise ParameterError("slot map length must be >= 1")
        seen: set[int] = set()
        normalized: dict[str, tuple[int, ...]] = {}
        for name, indices in self.slots.items():
            if not name:
                raise ParameterError("slot names must be non-empty")
            idx = tuple(sorted(int(i) for i in indices))
            if not idx:
                raise ParameterError(f"slot {name!r} has no indices")
            if len(set(idx)) != len(idx):
                raise ParameterError(f"slot {name!r} repeats an index")
            if idx[0] < 0 or idx[-1] >= self.length:
                raise DimensionError(
                    f"slot {name!r} index out of range for length {self.length}"
                )
            if seen & set(idx):
                raise ParameterError(f"slot {name!r} overlaps another slot")
            seen.update(idx)
            normalized[name] = idx
        object.__setattr__(self, "slots", normalized)

    def names(self) -> tuple[str, ...]:
        return tuple(self.slots)


def random_pattern(n: int, rng: np.random.Generator) -> BipolarPattern:
    """Draw a pattern whose units are independently +1 or -1 with p = 1/2."""
    if n < 1:
        raise ParameterError(f"pattern length must be >= 1, got {n}")
    return BipolarPattern(rng.integers(0, 2, size=n) * 2 - 1)


def overlap(a: np.ndarray, b: np.ndarray):
    """Dot product over the unit axis: for two unit rows, one integer in
    [-N, N]; for a `(rows, N)` block and one row, one overlap per row."""
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return a @ b


_MAX_DENOMINATOR = 10**6


@lru_cache(maxsize=4096)
def exact_fraction(x) -> Fraction:
    """`x` as an exact rational.

    A Fraction is kept as it is. A float is read as the ratio it was written
    as: the nearest fraction with denominator at most 10**6, so 0.7 is 7/10,
    3 / 9 is 1/3 and 0.1 + 0.2 is 3/10. Exact for every decimal with up to
    six places and every ratio with denominator up to 10**6.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(x).limit_denominator(_MAX_DENOMINATOR)


def floor_count(fraction, total: int) -> int:
    """floor(fraction * total) in integer arithmetic on the exact fraction
    (see `exact_fraction`): how many of `total` units or weight pairs a
    fraction selects. A float floor undercounts 0.7 * 90 as 62."""
    if not isinstance(fraction, Fraction):
        fraction = exact_fraction(fraction)
    return fraction.numerator * total // fraction.denominator


def key_subset(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k of the units 0 .. n - 1, uniform over the C(n, k) subsets: the
    units of the k smallest of n uniform keys, drawn as one `rng.random(n)`
    row also when k is 0 or n. The units come in no set order. A redrawn
    cue takes each row of its key block the same way (see
    `recall.recall_component`)."""
    return np.argpartition(rng.random(n), k - 1)[:k]


def flip_by_rate(p: BipolarPattern, rate: float, rng: np.random.Generator) -> BipolarPattern:
    """Flip each unit independently with probability `rate`.

    Always consumes len(p) uniforms from the stream, so downstream draws do
    not shift when the rate changes.
    """
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"flip rate must be in [0, 1], got {rate}")
    units = p.units
    flipped = np.where(rng.random(units.shape[0]) < rate, -units, units)  # +1/-1 as p's are
    flipped.flags.writeable = False
    return BipolarPattern._view(flipped)


def slot_match(output: np.ndarray, reference: np.ndarray, slots: SlotMap) -> dict[str, bool]:
    """Per-slot exact agreement between an output row and its reference row.

    A slot matches iff output equals reference on every index of that slot.
    """
    if len(output) != len(reference):
        raise DimensionError(f"length mismatch: {len(output)} vs {len(reference)}")
    if slots.length != len(output):
        raise DimensionError(
            f"slot map is for length {slots.length}, patterns have {len(output)}"
        )
    return {
        name: bool(np.all(output[list(idx)] == reference[list(idx)]))
        for name, idx in slots.slots.items()
    }
