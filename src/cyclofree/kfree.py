"""Materialize the k-free points of Z[zeta_n] inside centred boxes.

The box [-r, r]^d is sieved by removing, for every prime ideal P with
N(P)^k below the box norm bound (n r^2)^(d/2), the sublattice of P^k.
Survivors are exactly the k-free points: a point x killed by no consulted
lattice cannot have v_P(x) >= k for any P, because N(P)^k would then
divide |N(x)|, which the norm bound caps (norm_bound).

The lattices' points come from lattices.lattice_point_blocks, one
meet-in-the-middle join for every lattice: x = (x_A, x_B) lies in a lattice
exactly when (0, x_B) and (-x_A, 0) have one coset code, so the codes of
the two half boxes are sorted and matched, at about 2 (2r+1)^(d/2) coded
rows per lattice plus the points found.

Patch extraction, admissibility, and heredity checks operate on the
same occupancy grid.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .arith import ResourceCapError, integer_kth_root, ring_degree, validate_conductor
from .cyclotomic import norm_ceiling
from .lattices import ideal_lattice, lattice_point_blocks
from .prime_ideals import PrimeIdeal, enumerate_prime_ideals

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_MAX_POINTS = 20_000_000
HEREDITY_SEED = 0


def point_cap() -> int:
    value = os.environ.get("CYCLOFREE_MAX_POINTS")
    return int(value) if value else DEFAULT_MAX_POINTS


def check_box_cap(radii: Iterable[int], d: int, what: str) -> None:
    """Raise ResourceCapError, before a walk, when the boxes [-r, r]^d for
    the given radii r >= 1 hold more points in all than point_cap(); `what`
    starts the message.  Every side is >= 3, so side^b > cap at b =
    cap.bit_length(): no power of size d is formed, and the sum stops once
    past the cap."""
    cap = point_cap()
    b = min(d, cap.bit_length())
    total = 0
    for r in radii:
        total += (2 * r + 1) ** b
        if total > cap:
            raise ResourceCapError(f"{what}, above the cap of {cap}; raise CYCLOFREE_MAX_POINTS to override")


def norm_bound(n: int, r: int) -> int:
    """(n r^2)^(d/2) >= max |N(x)| over the box [-r, r]^d: the d embeddings
    of x have squares summing to at most n |x|_2^2 <= n d r^2 (Parseval), so
    AM-GM bounds their product (cyclotomic.norm_ceiling).  It equals (2r)^2
    at n = 4 and is never above the crude (d r)^d."""
    return norm_ceiling(n, ring_degree(n) * r * r)


@dataclass
class KFreeBox:
    """The k-free points inside [-r, r]^d, stored as an occupancy grid.

    Two boxes are equal when their parameters and ideals are and their
    grids are equal as whole arrays (np.array_equal)."""

    n: int
    k: int
    r: int
    grid: np.ndarray
    prime_ideals_used: tuple[PrimeIdeal, ...]

    @property
    def d(self) -> int:
        return self.grid.ndim

    @property
    def side(self) -> int:
        return 2 * self.r + 1

    @property
    def box_volume(self) -> int:
        return self.side**self.d

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.grid))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KFreeBox):
            return NotImplemented
        same = (self.n, self.k, self.r, self.prime_ideals_used) == (other.n, other.k, other.r, other.prime_ideals_used)
        return same and np.array_equal(self.grid, other.grid)

    def point_array(self) -> np.ndarray:
        """The k-free points as an (m, d) int64 array in lexicographic order
        (np.argwhere scans the grid in C order)."""
        return np.argwhere(self.grid) - self.r

    def cell_blocks(self, step: int) -> Iterator[np.ndarray]:
        """The grid coordinates x + r of the k-free points x, in lexicographic
        order, as (m, d) int64 blocks read from `step` grid cells at a time:
        each block holds the k-free cells of one run of the flat grid,
        unravelled in base side by d - 1 divmods, last column first.  A run
        with no k-free cell gives no block."""
        flat = self.grid.reshape(-1)
        for start in range(0, flat.size, step):
            index = np.flatnonzero(flat[start : start + step])
            if len(index):
                index += start
                coords = np.empty((len(index), self.d), dtype=np.int64)
                for column in range(self.d - 1, 0, -1):
                    np.divmod(index, self.side, out=(index, coords[:, column]))
                coords[:, 0] = index
                yield coords

    def sorted_points(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.point_array().tolist()))

    @property
    def empirical_density(self) -> Fraction:
        from fractions import Fraction  # here, so commands that form no density skip the module

        return Fraction(self.count, self.box_volume)


def sieve_box(
    n: int,
    k: int,
    r: int,
    ideal_norm_cap: int | None = None,
) -> KFreeBox:
    """Sieve [-r, r]^d down to the k-free points.

    The lattices of P^k for every P with N(P)^k <= norm_bound(n, r) =
    (n r^2)^(d/2) are enumerated together (lattices.lattice_point_blocks)
    and clear their points from a flat occupancy array, a block at a time,
    through the flat indices (x + r) . (side^(d-1), ..., side, 1).  Raises
    ResourceCapError when the box has more points than the cap
    (CYCLOFREE_MAX_POINTS or the built-in default).

    ideal_norm_cap restricts the sieve to ideals of norm at most that cap,
    which yields the lattice-periodic superset whose density brackets the
    true one from above; leave it None for the exact k-free set.  A cap
    at or above the k-th root of norm_bound(n, r) changes nothing.
    """
    validate_conductor(n)
    if k < 2:
        raise ValueError("k must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    d = ring_degree(n)
    side = 2 * r + 1
    check_box_cap([r], d, f"box has {side}^{d} points")
    cap_norm = integer_kth_root(norm_bound(n, r), k)
    if ideal_norm_cap is not None:
        cap_norm = min(cap_norm, ideal_norm_cap)
    ideals = tuple(enumerate_prime_ideals(n, cap_norm))
    flat = np.ones(side**d, dtype=bool)
    weights = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    offset = r * int(weights.sum())
    for block in lattice_point_blocks([ideal_lattice(P, k) for P in ideals], r):
        flat[block @ weights + offset] = False
    grid = flat.reshape((side,) * d)
    grid[(r,) * d] = False  # 0 is divisible by every ideal power
    return KFreeBox(n=n, k=k, r=r, grid=grid, prime_ideals_used=ideals)


# ---------------------------------------------------------------------------
# density


@dataclass
class DensityReport:
    """The empirical density of a sieved box, point_count / (2r+1)^d, next to
    the enclosure of 1/zeta_K(k) from the primes up to prime_bound."""

    n: int
    k: int
    r: int
    point_count: int
    reference_lower: Fraction
    reference_upper: Fraction
    prime_bound: int

    @property
    def box_volume(self) -> int:
        return (2 * self.r + 1) ** ring_degree(self.n)

    @property
    def empirical_density(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.point_count, self.box_volume)

    @property
    def reference_midpoint(self) -> Fraction:
        return (self.reference_lower + self.reference_upper) / 2

    @property
    def relative_gap(self) -> float:
        mid = self.reference_midpoint
        return float(abs(self.empirical_density - mid) / mid)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "r": self.r,
                "point_count": self.point_count,
                "box_volume": self.box_volume,
                "empirical_density": str(self.empirical_density),
                "reference_lower": str(self.reference_lower),
                "reference_upper": str(self.reference_upper),
                "relative_gap": self.relative_gap,
                "prime_bound": self.prime_bound,
            },
            sort_keys=True,
        )


def density_estimate(box: KFreeBox, prime_bound: int) -> DensityReport:
    """Empirical density of the box against the zeta reference interval."""
    from . import zeta as zeta_mod  # here, so commands that take no density skip the module

    reference = zeta_mod.density_constant(box.n, box.k, prime_bound)
    return DensityReport(
        n=box.n,
        k=box.k,
        r=box.r,
        point_count=box.count,
        reference_lower=reference.lower,
        reference_upper=reference.upper,
        prime_bound=prime_bound,
    )


# ---------------------------------------------------------------------------
# patches


@dataclass(frozen=True)
class PatchConfig:
    """A finite window shape with an occupied/empty fill pattern.

    fill is a bitmask over the shape's offset list: bit b set means the
    b-th offset is occupied.
    """

    shape: tuple[tuple[int, ...], ...]
    fill: int

    @property
    def fill_bits(self) -> str:
        return format(self.fill, f"0{len(self.shape)}b")[::-1]

    @property
    def occupied(self) -> tuple[tuple[int, ...], ...]:
        return tuple(off for off, bit in zip(self.shape, self.fill_bits) if bit == "1")


def patch_to_json(patch: PatchConfig, n: int, k: int) -> str:
    return json.dumps(
        {
            "n": n,
            "k": k,
            "shape": [list(off) for off in patch.shape],
            "fill": patch.fill_bits,
        },
        sort_keys=True,
    )


def patch_from_json(text: str) -> tuple[np.ndarray, int, int]:
    """Read a patch file: its occupied cells as one (m, d) array, in the
    order of the shape, with n and k.  Cells are int64, or Python ints when
    an offset is beyond int64.  A malformed file raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a patch file holds one JSON object")
    missing = [key for key in ("n", "k", "shape", "fill") if key not in data]
    if missing:
        raise ValueError(f"patch file lacks {', '.join(missing)}")
    # type(...) is int: a float, a string or a bool is not read as n or k.
    if type(data["n"]) is not int or type(data["k"]) is not int:
        raise ValueError("n and k must be integers")
    shape = shape_offsets(data["shape"])
    d = len(shape[0]) if shape else 0
    if set(map(len, shape)) - {d}:
        raise ValueError("shape offsets must share one length")
    bits = data["fill"]
    if not isinstance(bits, str) or not set(bits) <= {"0", "1"}:
        raise ValueError("fill must be a string of 0s and 1s")
    if len(bits) != len(shape):
        raise ValueError("fill bitstring length must match the shape")
    try:
        flat = np.fromiter(itertools.chain.from_iterable(shape), dtype=np.int64, count=len(shape) * d)
    except OverflowError:
        flat = np.array(list(itertools.chain.from_iterable(shape)), dtype=object)
    occupied = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
    return flat.reshape(len(shape), d)[occupied], data["n"], data["k"]


def shape_offsets(shape):
    """The offsets of a shape as given; ValueError unless shape is a list or
    tuple of lists or tuples of values of type int: a float, a string or a
    bool is not read as a cell.  Each check is one flat pass over a set of
    types, because a patch file can list tens of thousands of offsets."""
    if not (
        isinstance(shape, (list, tuple))
        and set(map(type, shape)) <= {list, tuple}
        and {type(v) for off in shape for v in off} <= {int}
    ):
        raise ValueError("shape offsets must be lists of integers")
    return shape


def _normalize_shape(shape: Sequence[Sequence[int]], d: int) -> tuple[tuple[int, ...], ...]:
    out = tuple(map(tuple, shape_offsets(shape)))
    if not out:
        raise ValueError("shape must contain at least one offset")
    if any(len(off) != d for off in out):
        raise ValueError(f"offsets must have length {d}")
    if len(set(out)) != len(out):
        raise ValueError("offsets must be distinct")
    if len(out) > 24:
        raise ValueError("shapes above 24 cells are not supported")
    return out


def extract_patches(box: KFreeBox, shape: Sequence[Sequence[int]]) -> dict[PatchConfig, int]:
    """Census of the fill patterns the shape takes over all anchors that
    keep it inside the box.  Counts divided by the anchor total are the
    empirical patch frequencies."""
    offsets = _normalize_shape(shape, box.d)
    side = box.side
    lo = [max(0, -min(off[t] for off in offsets)) for t in range(box.d)]
    hi = [side - max(0, max(off[t] for off in offsets)) for t in range(box.d)]
    if any(l >= h for l, h in zip(lo, hi)):
        raise ValueError("shape does not fit inside the box")
    code = None
    for b, off in enumerate(offsets):
        window = box.grid[tuple(slice(lo[t] + off[t], hi[t] + off[t]) for t in range(box.d))]
        piece = window.astype(np.int64) << b
        code = piece if code is None else code + piece
    fills, counts = np.unique(code, return_counts=True)
    return {
        PatchConfig(shape=offsets, fill=fill): cnt
        for fill, cnt in zip(fills.tolist(), counts.tolist())
    }


def patch_entropy_estimate(box: KFreeBox, shape: Sequence[Sequence[int]]) -> float:
    """log(distinct patterns) per shape cell; a slowly converging finite
    size proxy for the per-site patch counting entropy."""
    return census_entropy(extract_patches(box, shape))


def census_entropy(census: dict[PatchConfig, int]) -> float:
    """patch_entropy_estimate from a census extract_patches already took."""
    return math.log(len(census)) / len(next(iter(census)).shape)


# ---------------------------------------------------------------------------
# admissibility and heredity


def is_admissible(points: np.ndarray, n: int, k: int) -> bool:
    """A finite set, given as an (m, d) array of its points (or anything
    np.asarray reads as one), is admissible when it misses at least one
    coset of every lattice of an ideal power P^k.

    Only ideals with N(P)^k <= |set| can be covered, since the coset
    count of the others already exceeds the set size (repeated points
    only raise that cap).  A lattice is covered when the points take all
    of its index <= |set| coset codes, counted by np.bincount.  Raises
    ValueError unless the points are an (m, d) array, d = phi(n); a Python
    set is not one.
    """
    validate_conductor(n)
    if k < 2:
        raise ValueError("k must be >= 2")
    pts = np.asarray(points)
    if pts.ndim and not len(pts):  # a set reads as a 0-d array, which has no length
        return True
    d = ring_degree(n)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must be offsets of length {d} for conductor {n}")
    cap = integer_kth_root(len(pts), k)
    for ideal in enumerate_prime_ideals(n, cap):
        lattice = ideal_lattice(ideal, k)
        # codes < index <= |set|, so the cast from an object array is exact
        if np.count_nonzero(np.bincount(lattice.coset_codes(pts).astype(np.int64))) == lattice.index:
            return False
    return True


def hereditary_check(box: KFreeBox, trials: int) -> bool:
    """Admissibility of uniformly random subsets of the sieved window,
    drawn with seed HEREDITY_SEED.

    Heredity of the k-free configurations predicts every subset passes;
    returns the conjunction over the trials.
    """
    import random

    rng = random.Random(HEREDITY_SEED)
    pts = box.point_array()
    for _ in range(trials):
        keep = np.array([rng.random() < 0.5 for _ in range(len(pts))], dtype=bool)
        if not is_admissible(pts[keep], box.n, box.k):
            return False
    return True
