"""Stabiliser symmetries of the k-free points and their verification.

A stabiliser element is multiplication by a unit composed with a Galois
automorphism; on the embedded lattice Z^d it acts as an integer matrix of
determinant +-1.  The composition law is semi-direct:

    (eps, r) * (eps', r') = (eps * sigma_r(eps'), r r' mod n).

The module builds the Galois group, verified unit generators and the
elements' matrices, and checks on sieved points that the elements keep
k-freeness, W_k and coprimality to unramified primes.  The a_q
certificates that back the classification live in certificates.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import determinant, factor_integer, primes_up_to, ring_degree, validate_conductor
from .cyclotomic import CycInt, _exact_dtype, norm_array
from .lattices import BLOCK_ROWS, box_blocks
from .prime_ideals import kfree_mask, wk_mask
from . import kfree as kfree_mod

Matrix = tuple[tuple[int, ...], ...]
STACK_ROWS = 1 << 15  # images per kfree_mask call of verify_stabiliser_actions
WK_SEARCH_RADIUS = 5  # the box verify_Wk_preservation searches for W_k elements
# verify_coprimality_transport samples COPRIMALITY_SAMPLE points, with seed
# COPRIMALITY_SEED, from the k-free points of the box of radius
# COPRIMALITY_RADIUS, and tests the unramified primes up to COPRIMALITY_PRIMES.
COPRIMALITY_SAMPLE = 20
COPRIMALITY_SEED = 0
COPRIMALITY_RADIUS = 10
COPRIMALITY_PRIMES = 50


# ---------------------------------------------------------------------------
# Galois group


@dataclass(frozen=True)
class GaloisGroup:
    """(Z/nZ)^x as the Galois group of Q(zeta_n), read from n: its elements
    r in increasing order and, per prime power p^a of n, (p, a, phi(p^a))."""

    n: int

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(r for r in range(1, self.n) if math.gcd(r, self.n) == 1)

    @property
    def crt_factors(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((p, a, (p - 1) * p ** (a - 1)) for p, a in factor_integer(self.n).items())

    @property
    def order(self) -> int:
        return len(self.elements)


def galois_group(n: int) -> GaloisGroup:
    """The group (Z/nZ)^x acting by zeta -> zeta^r, with its CRT shape."""
    return GaloisGroup(validate_conductor(n))


# ---------------------------------------------------------------------------
# units


def unit_generators(n: int) -> list[CycInt]:
    """Verified units generating a finite-index subgroup of the unit group.

    Always -1 and zeta; for n with two or more prime factors also 1 - zeta;
    for prime powers the cyclotomic units (1 - zeta^a)/(1 - zeta) with a
    coprime to n, one representative 2 <= a <= n/2 per pair {a, n-a}.  Each
    element is checked to have norm of absolute value 1.  The full unit
    group may be larger by finite index; nothing here claims otherwise.
    """
    validate_conductor(n)
    gens = [CycInt.from_int(n, -1), CycInt.root(n)]
    if len(factor_integer(n)) >= 2:
        gens.append(CycInt.one(n) - CycInt.root(n))
    else:
        # No candidate is a root of unity: |1 + ... + zeta^(a-1)| = sin(pi a/n)/sin(pi/n) > 1.
        for a in range(2, n // 2 + 1):
            if math.gcd(a, n) == 1:
                gens.append(CycInt.from_polynomial(n, (1,) * a))
    for u in gens:
        if abs(u.norm()) != 1:
            raise ArithmeticError(f"generator {u} is not a unit")
    return gens


# ---------------------------------------------------------------------------
# symmetry elements


@dataclass(frozen=True)
class SymmetryElement:
    """A unit-times-Galois map x -> unit * sigma_r(x) as its integer matrix
    on Z^d; the unit is the image of 1, column 0 of the matrix."""

    n: int
    r: int
    matrix: Matrix

    @property
    def d(self) -> int:
        return len(self.matrix)

    @property
    def unit(self) -> CycInt:
        return CycInt(self.n, tuple(row[0] for row in self.matrix))

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        """self after other: the matrix product, with r r' mod n."""
        if other.n != self.n:
            raise ValueError("conductor mismatch")
        cols = list(zip(*other.matrix))
        matrix = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.matrix)
        return SymmetryElement(self.n, (self.r * other.r) % self.n, matrix)

    def inverse(self) -> "SymmetryElement":
        """The exact inverse of the unimodular matrix, with r^-1 mod n."""
        return SymmetryElement(self.n, pow(self.r, -1, self.n), _unimodular_inverse(self.matrix))

    def describe(self) -> dict:
        """(unit, r), plus the matrix when it is not the map of (unit, r)."""
        unit = self.unit
        out = {"unit_coeffs": list(unit.coeffs), "r": self.r}
        if self.matrix != _map_matrix(unit, self.r):
            out["matrix"] = [list(row) for row in self.matrix]
        return out


def _map_matrix(unit: CycInt, r: int) -> Matrix:
    """The matrix of x -> unit * sigma_r(x) on the power basis."""
    n = unit.n
    cols = [(unit * CycInt.root(n, (i * r) % n)).coeffs for i in range(ring_degree(n))]
    return tuple(zip(*cols))


def _unimodular_inverse(matrix: Matrix) -> Matrix:
    """Inverse of an integer matrix of determinant +-1: det times the adjugate."""
    det = determinant(matrix)
    if abs(det) != 1:
        raise ArithmeticError(f"symmetry matrix has determinant {det}")
    d = len(matrix)

    def cofactor(i: int, j: int) -> int:
        minor = [row[:j] + row[j + 1 :] for t, row in enumerate(matrix) if t != i]
        return (-1) ** (i + j) * determinant(minor)

    return tuple(tuple(det * cofactor(j, i) for j in range(d)) for i in range(d))


def symmetry_element(unit: CycInt, r: int) -> SymmetryElement:
    """Build the matrix of x -> unit * sigma_r(x).  Its determinant is
    +-N(unit), so it is unimodular exactly when the multiplier is a unit."""
    n = unit.n
    if math.gcd(r, n) != 1:
        raise ValueError(f"{r} is not invertible modulo {n}")
    matrix = _map_matrix(unit, r)
    if abs(determinant(matrix)) != 1:
        raise ValueError("multiplier must be a unit")
    return SymmetryElement(n=n, r=r, matrix=matrix)


def identity_element(n: int) -> SymmetryElement:
    return symmetry_element(CycInt.one(n), 1)


def generator_elements(n: int) -> list[SymmetryElement]:
    """One element per unit generator plus one per nontrivial Galois index."""
    out = [symmetry_element(u, 1) for u in unit_generators(n)]
    out.extend(symmetry_element(CycInt.one(n), r) for r in galois_group(n).elements if r != 1)
    return out


# ---------------------------------------------------------------------------
# action verification


@dataclass
class ActionReport:
    """How many points a check tested for one element (described as
    SymmetryElement.describe gives it) and the points that failed."""

    n: int
    k: int
    element: dict
    checked: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """The report as JSON values, each failure as a list."""
        return {
            "element": self.element,
            "n": self.n,
            "k": self.k,
            "checked": self.checked,
            "failures": [list(p) for p in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _act(rows: np.ndarray, matrix: Matrix) -> np.ndarray:
    """rows @ matrix.T exactly: the images of (m, d) integer rows."""
    matrix = np.array(matrix, dtype=object)
    # An image entry is at most max |entry| times the L1 norm of a matrix row.
    dtype = _exact_dtype(int(np.abs(rows).max(initial=0)) * int(np.abs(matrix).sum(axis=1).max()))
    return rows.astype(dtype) @ matrix.T.astype(dtype)


def sample_rows(box: kfree_mod.KFreeBox, sample_size: int, seed: int) -> np.ndarray:
    """The rows rng.sample(box.sorted_points(), sample_size) picks, or all
    of them when there are no more than sample_size.  The picks are ranks
    in lexicographic order; the running point counts of the slabs x_1 = c
    tell which slab holds each, so only the slabs holding a pick are read
    and no array of all the points is built."""
    count = box.count
    if count <= sample_size:
        ranks = np.arange(count)
    else:
        ranks = np.array(random.Random(seed).sample(range(count), sample_size), dtype=np.int64)
    slabs = box.grid.reshape(box.side, -1)
    sizes = np.count_nonzero(slabs, axis=1)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    order = np.argsort(ranks)
    first, last = (np.searchsorted(ranks, bound, sorter=order) for bound in (starts, ends))
    cells = np.empty_like(ranks)
    for s in np.flatnonzero(last > first):
        picked = order[first[s] : last[s]]
        cells[picked] = s * slabs.shape[1] + np.flatnonzero(slabs[s])[ranks[picked] - starts[s]]
    return np.stack(np.unravel_index(cells, box.grid.shape), axis=-1) - box.r


def verify_stabiliser_action(
    element: SymmetryElement, box: kfree_mod.KFreeBox, sample_size: int = 1000, seed: int = 0
) -> ActionReport:
    """Check that the element and its inverse map the k-free points
    sample_rows(box, sample_size, seed) to k-free points; the expected
    failure count is zero.  One element of verify_stabiliser_actions."""
    return verify_stabiliser_actions([element], box, sample_rows(box, sample_size, seed))[0]


def verify_stabiliser_actions(
    elements: Sequence[SymmetryElement], box: kfree_mod.KFreeBox, sample: np.ndarray
) -> list[ActionReport]:
    """verify_stabiliser_action of each element on one sample: the images
    under every element and its inverse are stacked and tested by one
    kfree_mask per slice of the sample, so each distinct norm of a slice
    is factored once.  A slice holds at most STACK_ROWS images (at least
    one sample row)."""
    if any(element.n != box.n for element in elements):
        raise ValueError("conductor mismatch")
    if not elements:
        return []
    maps = [m for el in elements for m in (el, el.inverse())]
    ok = np.empty((len(maps), len(sample)), dtype=bool)  # ok[i]: the images under maps[i]
    step = max(1, STACK_ROWS // len(maps))
    for start in range(0, len(sample), step):
        images = np.concatenate([_act(sample[start : start + step], m.matrix) for m in maps])
        ok[:, start : start + step] = kfree_mask(images, box.n, box.k).reshape(len(maps), -1)
    return [
        ActionReport(box.n, box.k, el.describe(), 2 * len(sample),
                     [tuple(p) for block in ok[2 * i : 2 * i + 2] for p in sample[~block].tolist()])
        for i, el in enumerate(elements)
    ]


def _joined(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Consecutive blocks joined, in order, into arrays of at least
    BLOCK_ROWS rows (the last may hold fewer)."""
    pending, size = [], 0
    for block in blocks:
        pending.append(block)
        size += len(block)
        if size >= BLOCK_ROWS:
            yield np.concatenate(pending)
            pending, size = [], 0
    if pending:
        yield np.concatenate(pending)


def scan_for_violation(
    matrix: Matrix, n: int, k: int, radius_cap: int = 100
) -> Optional[tuple[int, ...]]:
    """First k-free point (by growing sup norm, then lexicographically)
    whose image under the raw integer matrix is not k-free; None if none
    exists up to the cap.

    Each radius's shell is the rows of box_blocks(radius, d) with sup norm
    radius, joined into blocks of at least BLOCK_ROWS rows.  A matrix
    outside the unit-Galois family is expected to produce one, though this
    scan cannot certify where.  Raises ResourceCapError first when the
    boxes of radius 1 to radius_cap hold more rows in all than the point cap.
    """
    d = ring_degree(n)
    walk = f"scan to radius {radius_cap} walks boxes of 3^{d} to {2 * radius_cap + 1}^{d} points"
    kfree_mod.check_box_cap(range(1, radius_cap + 1), d, walk)
    for radius in range(1, radius_cap + 1):
        shell = (block[np.abs(block).max(axis=1) == radius] for block in box_blocks(radius, d))
        for block in _joined(shell):
            rows = block[kfree_mask(block, n, k)]
            bad = np.flatnonzero(~kfree_mask(_act(rows, matrix), n, k))
            if len(bad):
                return tuple(rows[bad[0]].tolist())
    return None


def verify_Wk_preservation(element: SymmetryElement, k: int, norm_bound: int) -> ActionReport:
    """Image and preimage, under the element's matrix, stay in W_k for every
    W_k element found in the box of radius WK_SEARCH_RADIUS with |norm| <=
    norm_bound.

    W_k contains infinitely many elements (all roots of unity, for one),
    so the enumeration is box-bounded by construction; a box above the
    point cap is refused with ResourceCapError.
    """
    n, d = element.n, element.d
    kfree_mod.check_box_cap([WK_SEARCH_RADIUS], d, f"W_k search box has {2 * WK_SEARCH_RADIUS + 1}^{d} points")
    inverse = element.inverse()
    failures = []
    checked = 0
    for block in box_blocks(WK_SEARCH_RADIUS, d):
        norms = norm_array(n, block)
        rows = block[(norms != 0) & (norms <= norm_bound)]
        rows = rows[wk_mask(rows, n, k)]
        checked += len(rows)
        kept = wk_mask(_act(rows, element.matrix), n, k) & wk_mask(_act(rows, inverse.matrix), n, k)
        failures.extend(map(tuple, rows[~kept].tolist()))
    return ActionReport(n=n, k=k, element=element.describe(), checked=checked, failures=failures)


def verify_coprimality_transport(element: SymmetryElement, k: int) -> ActionReport:
    """Ideal-coprimality with unramified primes survives the action of the
    element's matrix: if no prime ideal above p divides x, none divides the
    image either, for x in a sample of k-free points (see COPRIMALITY_SAMPLE).
    Some P above p divides x exactly when p divides N(x), so the norms of
    the sample and of its images are taken once."""
    n = element.n
    sample = sample_rows(kfree_mod.sieve_box(n, k, COPRIMALITY_RADIUS), COPRIMALITY_SAMPLE, COPRIMALITY_SEED)
    images = _act(sample, element.matrix)
    x_norms, y_norms = norm_array(n, sample), norm_array(n, images)
    failures = []
    checked = 0
    for ell in (p for p in primes_up_to(COPRIMALITY_PRIMES) if n % p):
        x_coprime = x_norms % ell != 0
        y_coprime = y_norms % ell != 0
        checked += int(np.count_nonzero(x_coprime))
        failures.extend((int(i), ell) for i in np.flatnonzero(x_coprime & ~y_coprime))
    failures.sort()
    return ActionReport(
        n=n, k=k, element=element.describe(), checked=checked,
        failures=[(tuple(sample[i].tolist()), ell) for i, ell in failures],
    )
