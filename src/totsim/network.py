"""Auto-associative component networks: Hebbian outer-product training,
one-pass sign retrieval, and the damage/masking degradation model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, TrainingError
from .patterns import BipolarPattern, checked_units, floor_count, key_subset


@dataclass(frozen=True, eq=False)
class ComponentNetwork:
    """A trained two-layer auto-associative network for one word component.

    `w_int` holds n times the weight matrix as exact integers: the sum of
    outer products of the stored patterns, diagonal retained. Retrieval
    evaluates unit signs on this integer matrix, which is sign-equivalent to
    the (1/n)-scaled real matrix and free of float rounding, so ties
    (activation exactly zero) are detected exactly.

    Degradation comes in two flavors: `damage` zeroes symmetric weight pairs
    (lost stored information, trait-like), `apply_mask` silences whole units
    for one retrieval episode (incomplete activation, state-like). Instances
    are immutable; both return new networks.
    """

    w_int: np.ndarray
    stored: tuple[BipolarPattern, ...]
    damage_fraction: float = 0.0
    mask: frozenset[int] = frozenset()

    def __post_init__(self):
        w = np.asarray(self.w_int, dtype=np.int64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError("weight matrix must be square")
        if not np.array_equal(w, w.T):
            raise ParameterError("weight matrix must be symmetric")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w_int", w)
        mask = frozenset(int(i) for i in self.mask)
        if mask and (min(mask) < 0 or max(mask) >= w.shape[0]):
            raise DimensionError("mask index out of range")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_mask_arr", np.array(sorted(mask), dtype=np.int64))
        object.__setattr__(self, "_held", None)

    @classmethod
    def _of(cls, w_int, stored, damage_fraction=0.0, mask=frozenset(), mask_arr=None):
        """A network on a read-only matrix that is already checked, with an
        in-range mask whose units `mask_arr` lists once each, in any order
        (None for no mask): the constructor without its copy and checks."""
        net = object.__new__(cls)
        net.__dict__.update(
            w_int=w_int,
            stored=stored,
            damage_fraction=damage_fraction,
            mask=mask,
            _mask_arr=mask_arr,
            _held=None,
        )
        return net

    @property
    def n(self) -> int:
        return self.w_int.shape[0]

    def retrieve_once(self, probe: np.ndarray) -> np.ndarray:
        """One synchronous pass: output_i = sgn(sum_j W_ij probe_j).

        Tie rule: sgn(0) = +1. Masked units contribute zero on the input
        side and are forced to +1 on the output side. There is no iteration
        to convergence; repetition happens at the attempt level. The
        matrix is symmetric (checked when the network is built), so the
        pass multiplies by it as it is, not by its transpose.

        `probe` is a +1/-1 unit array whose last axis has the n units: one
        row, or a `(rows, n)` block evaluated in one integer matmul. The
        output has the probe's shape and is read-only.
        """
        if probe.shape[-1] != self.n:
            raise DimensionError(f"probe length {probe.shape[-1]} != network size {self.n}")
        if self.mask:
            probe = probe.copy()
            probe[..., self._mask_arr] = 0
        out = np.where(probe @ self.w_int >= 0, 1, -1)
        if self.mask:
            out[..., self._mask_arr] = 1
        out.flags.writeable = False
        return out

    def image(self, units: np.ndarray) -> tuple[np.ndarray, int]:
        """`retrieve_once` of one int64 probe row of n units, with the
        output's overlap with that row.

        The network holds its last row and answer in one slot, keyed by the
        row's bytes, so asking again for the same row costs a key
        comparison; another row takes the slot. The answer depends only on
        the weights and the mask, which never change: a damaged or masked
        network is a new object and starts with the slot empty.
        """
        if units.shape != (self.n,):
            raise DimensionError(f"probe shape {units.shape} is not one row of {self.n} units")
        key = units.tobytes()
        held = self._held
        if held is None or held[0] != key:
            out = self.retrieve_once(units)
            held = key, out, int(out @ units)
            object.__setattr__(self, "_held", held)
        return held[1], held[2]

    def damage(
        self, fraction: float, rng: np.random.Generator, protected=()
    ) -> "ComponentNetwork":
        """Zero a uniformly chosen set of symmetric weight pairs.

        floor(fraction * P) unordered pairs {i, j} (i <= j, diagonal
        included; the floor is exact, see `floor_count`) are chosen without
        replacement from the P eligible pairs and zeroed on both sides.
        Pairs touching a `protected` unit index are not eligible; with no
        protection P = n(n+1)/2. Repeated calls draw independently;
        `damage_fraction` records the latest call.
        """
        if not 0 <= fraction <= 1:
            raise ParameterError(f"damage fraction must be in [0, 1], got {fraction}")
        prot = frozenset(int(i) for i in protected)
        if prot and (min(prot) < 0 or max(prot) >= self.n):
            raise DimensionError("protected index out of range")
        iu, ju = np.triu_indices(self.n)
        if prot:
            prot_arr = np.array(sorted(prot), dtype=np.int64)
            keep = ~(np.isin(iu, prot_arr) | np.isin(ju, prot_arr))
            iu, ju = iu[keep], ju[keep]
        k = floor_count(fraction, iu.size)
        sel = rng.choice(iu.size, size=k, replace=False)
        w = self.w_int.copy()
        w[iu[sel], ju[sel]] = 0
        w[ju[sel], iu[sel]] = 0
        return ComponentNetwork(w, self.stored, float(fraction), self.mask)

    def apply_mask(self, fraction: float, rng: np.random.Generator) -> "ComponentNetwork":
        """Mark floor(fraction * n) uniformly chosen units as deactivated.

        The floor is exact (see `floor_count`); a Fraction passes through
        unrounded. The k = floor(fraction * n) units are those of the k
        smallest of n uniform keys, one `rng.random(n)` row drawn also when
        k is 0 or n (see `key_subset`). New mask indices are unioned with
        any existing mask.
        """
        if not 0 <= fraction <= 1:
            raise ParameterError(f"mask fraction must be in [0, 1], got {fraction}")
        drawn = key_subset(self.n, floor_count(fraction, self.n), rng)
        mask = self.mask.union(drawn.tolist())
        # The drawn units are distinct, so they list an unmasked network's
        # new mask as they are. The masked network shares this network's
        # checked read-only matrix.
        units = np.union1d(self._mask_arr, drawn) if self.mask else drawn
        return ComponentNetwork._of(self.w_int, self.stored, self.damage_fraction, mask, units)


def train(patterns) -> ComponentNetwork:
    """Build a network from training patterns: W = (1/n) sum_k p_k p_k^T.

    Hebbian outer-product sum with the diagonal retained, so a single
    stored pattern obeys the exact one-pass law
    output = p if overlap(p, probe) > 0, negate(p) if < 0, all +1 on a tie.
    """
    pats = tuple(patterns)
    if not pats:
        raise TrainingError("training needs at least one pattern")
    n = len(pats[0])
    if any(len(p) != n for p in pats):
        raise TrainingError("training patterns must share one length")
    w = np.zeros((n, n), dtype=np.int64)
    for p in pats:
        w += np.outer(p.units, p.units)
    return ComponentNetwork(w, pats)


def train_each(units) -> list[ComponentNetwork]:
    """One network per row of a `(words, n)` unit array, each storing its
    row as its one pattern: the networks `train([p])` builds, row by row.

    The rows are checked once as one stack (see `checked_units`), the weights
    are one `(words, n, n)` stack of outer products (one broadcast product,
    symmetric by construction), and each network's `w_int` is a read-only
    slab of it; each stored pattern's units are a read-only row of the unit
    stack.
    """
    stack = checked_units(units, ndim=2)
    w = stack[:, :, None] * stack[:, None, :]
    w.flags.writeable = False
    return [
        ComponentNetwork._of(slab, (BipolarPattern._view(row),)) for row, slab in zip(stack, w)
    ]
