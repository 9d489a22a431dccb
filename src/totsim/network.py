"""Auto-associative component networks: Hebbian outer-product training,
one-pass sign retrieval, and the damage/masking degradation model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, TrainingError
from .patterns import BipolarPattern, floor_count, unit_rows


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

    @property
    def n(self) -> int:
        return self.w_int.shape[0]

    def retrieve_once(self, probe):
        """One synchronous pass: output_i = sgn(sum_j W_ij probe_j).

        Tie rule: sgn(0) = +1. Masked units contribute zero on the input
        side and are forced to +1 on the output side. There is no iteration
        to convergence; repetition happens at the attempt level.

        `probe` is one BipolarPattern, answered with one; or a `(rows, n)`
        block of +1/-1 unit rows, all evaluated in one integer matmul and
        answered with a `(rows, n)` block of outputs.
        """
        x, single = unit_rows(probe)
        if x.shape[1] != self.n:
            raise DimensionError(f"probe length {x.shape[1]} != network size {self.n}")
        if self.mask:
            x = x.copy()
            x[:, self._mask_arr] = 0
        out = np.where(x @ self.w_int.T >= 0, 1, -1)
        if self.mask:
            out[:, self._mask_arr] = 1
        return BipolarPattern(out[0]) if single else out

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
        unrounded. New mask indices are unioned with any existing mask.
        """
        if not 0 <= fraction <= 1:
            raise ParameterError(f"mask fraction must be in [0, 1], got {fraction}")
        k = floor_count(fraction, self.n)
        mask = self.mask.union(rng.choice(self.n, size=k, replace=False).tolist())
        # The masked network shares this network's validated read-only
        # matrix, so it skips the copy and symmetry check of __post_init__.
        masked = object.__new__(ComponentNetwork)
        masked.__dict__.update(
            self.__dict__, mask=mask, _mask_arr=np.array(sorted(mask), dtype=np.int64)
        )
        return masked


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
