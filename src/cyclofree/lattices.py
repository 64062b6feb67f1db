"""Full-rank sublattices of Z^d in lower-triangular Hermite normal form.

The HNF convention: basis rows b_0, ..., b_{d-1} with b_i[j] = 0 for j > i,
positive diagonal, and 0 <= b_i[j] < b_j[j] for j < i.  This form is unique
per lattice, so equal lattices compare equal.  The lattice index in Z^d is
the product of the diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import xgcd
from .cyclotomic import CycInt, _exact_dtype

# Frontier rows per step of lattice_point_blocks; larger blocks of several
# lattices' tail boxes raise peak memory and are no faster.
BLOCK_ROWS = 1 << 12


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    n = len(matrix)
    m = [list(map(int, row)) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


class RankError(ValueError):
    pass


@dataclass(frozen=True)
class IdealLattice:
    """A full-rank sublattice of Z^d with its canonical HNF basis.

    n is the conductor of the ambient cyclotomic ring when the lattice
    came from an ideal, and 0 for a plain geometric lattice.
    """

    n: int
    d: int
    basis: tuple[tuple[int, ...], ...]
    index: int

    def coset_id(self, point: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative with 0 <= r[j] < diagonal[j]."""
        if len(point) != self.d:
            raise ValueError(f"point has length {len(point)}, lattice rank {self.d}")
        residue = list(point)
        for j in range(self.d - 1, -1, -1):
            q = residue[j] // self.basis[j][j]
            if q:
                row = self.basis[j]
                for t in range(j + 1):
                    residue[t] -= q * row[t]
        return tuple(residue)

    def coset_codes(self, points) -> np.ndarray:
        """coset_id of every row of an (m, d) integer array, as one integer.

        The residue r is encoded in mixed radix over the diagonal,
        r[0] + b_00*(r[1] + b_11*(r[2] + ...)), which lies in [0, index).
        Rows are first reduced mod index (index * Z^d lies in the lattice),
        so entries stay below about 2^d * index^2 during the reduction.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError(f"points have shape {points.shape}, lattice rank {self.d}")
        dtype = _exact_dtype(self.index**2 << self.d)
        residue = (points % self.index).astype(dtype)
        basis = np.array(self.basis, dtype=dtype)
        code = np.zeros(len(residue), dtype=dtype)
        for j in range(self.d - 1, -1, -1):
            row = basis[j]
            q = residue[:, j] // row[j]
            residue[:, : j + 1] -= q[:, None] * row[: j + 1]
            code = code * row[j] + residue[:, j]
        return code

    def point_blocks(self, radius: int) -> Iterator[np.ndarray]:
        """All lattice points with sup norm <= radius (lattice_point_blocks)."""
        return lattice_point_blocks((self,), radius)

    def points_in_box(self, radius: int) -> Iterator[tuple[int, ...]]:
        """The points of point_blocks, one tuple at a time."""
        return (tuple(p) for block in self.point_blocks(radius) for p in block.tolist())

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "d": self.d,
                "basis": [list(row) for row in self.basis],
                "index": str(self.index),
            }
        )

    @staticmethod
    def from_json(text: str) -> "IdealLattice":
        data = json.loads(text)
        return IdealLattice(
            int(data["n"]),
            int(data["d"]),
            tuple(tuple(int(v) for v in row) for row in data["basis"]),
            int(data["index"]),
        )


def lattice_point_blocks(lattices: Sequence[IdealLattice], radius: int) -> Iterator[np.ndarray]:
    """The points with sup norm <= radius of lattices of one rank d, as
    (m, d) int64 arrays.

    Breadth first over the basis rows from the last one down: the
    coefficient of row j fixes coordinate j, so each prefix (a partial sum
    of the rows below j) expands to the run of coefficients that keeps
    coordinate j in [-radius, radius].  Past the last diagonal entry above 1,
    at row t - 1, row j is e_j plus entries in columns below t (0 <= b_j[i] <
    b_ii = 1 clears the rest), so the walk starts at row t - 1 from the tail
    box [-radius, radius]^(d-t) (box_blocks) with head tail @ basis[t:, :t].
    Frontier rows carry their lattice, so all lattices walk together.  Seeds
    come in blocks of about BLOCK_ROWS rows, and a larger frontier is split
    in halves.
    """
    if not lattices or not lattices[0].d:
        return
    d = lattices[0].d
    # The coefficients have sum |c_i| < radius * 2^d and no basis entry
    # exceeds the index, so partial sums stay below their product.
    dtype = _exact_dtype((radius << d) * max(lat.index for lat in lattices))
    bases = np.array([lat.basis for lat in lattices], dtype=dtype)
    tails = np.array([max((i + 1 for i in range(d) if lat.basis[i][i] > 1), default=0) for lat in lattices])
    for t in sorted(set(tails.tolist())):
        group = np.flatnonzero(tails == t)
        for tail in box_blocks(radius, d - t):
            tail = tail.astype(dtype)
            for ids in np.array_split(group, -(-len(group) * len(tail) // BLOCK_ROWS)):
                head = tail @ bases[ids, t:, :t]
                seed = np.concatenate([head, np.broadcast_to(tail, head.shape[:2] + tail.shape[1:])], axis=2)
                stack = [(t - 1, seed.reshape(-1, d), np.repeat(ids, len(tail)))]
                while stack:
                    j, prefixes, owners = stack.pop()
                    if j < 0:
                        yield prefixes.astype(np.int64, copy=False)
                        continue
                    diag, base = bases[owners, j, j], prefixes[:, j]
                    lo = -((radius + base) // diag)
                    counts = np.maximum((radius - base) // diag - lo + 1, 0).astype(np.int64)
                    total = int(counts.sum())
                    if total > BLOCK_ROWS and len(prefixes) > 1:
                        half = len(prefixes) // 2
                        stack += [(j, prefixes[half:], owners[half:]), (j, prefixes[:half], owners[:half])]
                        continue
                    owner = np.repeat(np.arange(len(prefixes)), counts)
                    coef = lo[owner] + (np.arange(total) - (np.cumsum(counts) - counts)[owner])
                    points, owners = prefixes[owner], owners[owner]
                    points[:, : j + 1] += coef[:, None] * bases[owners, j, : j + 1]
                    if total:
                        stack.append((j - 1, points, owners))


def hnf(generators: Sequence[Sequence[int]], n: int = 0, modulus: Optional[int] = None) -> IdealLattice:
    """Canonical lower-triangular HNF lattice spanned by the generators.

    Raises RankError unless the generators span a full-rank subgroup.
    When a modulus M with M*Z^d contained in the lattice is known, passing
    it bounds intermediate entries (the rows M*e_i are added and every
    incoming row is reduced mod M).
    """
    if not generators:
        raise RankError("no generators")
    d = len(generators[0])
    pivot_rows: list[Optional[list[int]]] = [None] * d

    def insert(vec: list[int]):
        for j in range(d - 1, -1, -1):
            if not vec[j]:
                continue
            row = pivot_rows[j]
            if row is None:
                pivot_rows[j] = vec
                return
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for t in range(j + 1):
                    vec[t] -= q * row[t]
            else:
                g, x, y = xgcd(a, b)
                au, bu = a // g, b // g
                for t in range(j + 1):
                    rt, vt = row[t], vec[t]
                    row[t] = x * rt + y * vt
                    vec[t] = au * vt - bu * rt
        return

    rows = [list(map(int, g)) for g in generators]
    if modulus is not None:
        for i in range(d):
            unit = [0] * d
            unit[i] = modulus
            rows.append(unit)
        rows = [[v % modulus for v in row] for row in rows[: -d]] + rows[-d:]
    for vec in rows:
        if len(vec) != d:
            raise ValueError("generators must share one length")
        insert(vec)
    if any(row is None for row in pivot_rows):
        raise RankError("generators do not span a full-rank lattice")
    basis = [list(row) for row in pivot_rows]  # type: ignore[arg-type]
    for j in range(d):
        if basis[j][j] < 0:
            basis[j] = [-v for v in basis[j]]
    for i in range(d):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            if q:
                for t in range(j + 1):
                    basis[i][t] -= q * basis[j][t]
    index = math.prod(basis[j][j] for j in range(d))
    return IdealLattice(n, d, tuple(tuple(row) for row in basis), index)


@lru_cache(maxsize=None)
def ideal_lattice(prime_ideal, m: int = 1) -> IdealLattice:
    """HNF lattice of the m-th power of a prime ideal P = (ell, pi) under the
    embedding.

    P^m is generated as an ideal by the monomials ell^(m-j) pi^j, 0 <= j <= m,
    so as a group by their multiples by zeta^t, t < d.  The j = 0 monomial
    spans ell^m Z^d, which is the HNF modulus; the m*d rows of the others are
    reduced mod ell^m in one HNF.  The index is checked against N(P)^m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n, ell = prime_ideal.n, prime_ideal.ell
    _, pi = prime_ideal.generators()
    zeta = CycInt.root(n)
    vectors = []
    power = CycInt.one(n)
    for j in range(1, m + 1):
        power = power * pi
        x = power * ell ** (m - j)
        for _ in range(len(x.coeffs)):
            vectors.append(x.embed())
            x = x * zeta
    lat = hnf(vectors, n=n, modulus=ell**m)
    target = prime_ideal.norm**m
    if lat.index != target:
        raise ArithmeticError(f"ideal power lattice has index {lat.index}, expected {target}")
    return lat


def box_blocks(radius: int, d: int) -> Iterator[np.ndarray]:
    """The points of [-radius, radius]^d in lexicographic order, as int64
    arrays of at most BLOCK_ROWS rows."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    side = 2 * radius + 1
    count = side**d
    digits = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    for first in range(0, count, BLOCK_ROWS):
        yield np.arange(first, min(first + BLOCK_ROWS, count))[:, None] // digits % side - radius
