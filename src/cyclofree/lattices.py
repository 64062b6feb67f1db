"""Full-rank sublattices of Z^d in lower-triangular Hermite normal form.

The HNF convention: basis rows b_0, ..., b_{d-1} with b_i[j] = 0 for j > i,
positive diagonal, and 0 <= b_i[j] < b_j[j] for j < i.  This form is unique
per lattice, so equal lattices compare equal.  The lattice index in Z^d is
the product of the diagonal.

Ideal powers P^m are built in closed form for unramified P of degree 1,
from the root of unity mod ell^m that lifts a root of Phi_n mod ell, and
from one HNF otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import factor_integer, xgcd
from .cyclotomic import CycInt, _exact_dtype, ring_degree

# Rows per step of lattice_point_blocks: walk frontier rows, join key and
# target rows per lattice group, and points per block.  Larger blocks raise
# peak memory and are no faster.
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
    """A full-rank sublattice of Z^d with its canonical HNF basis."""

    d: int
    basis: tuple[tuple[int, ...], ...]
    index: int

    @property
    def tail(self) -> int:
        """One past the last diagonal entry above 1: each row j from here on is
        e_j plus entries in columns below it (0 <= b_j[i] < b_ii = 1)."""
        return max((j + 1 for j in range(self.d) if self.basis[j][j] > 1), default=0)

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
        in Python ints when the index is beyond int64, so entries stay below
        about 2^d * index^2 during the reduction.  Rows from the tail t on
        add nothing to the code and clear x_{>=t} in one product,
        x_{<t} - x_{>=t} B[t:, :t]; the loop runs over the t head rows.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError(f"points have shape {points.shape}, lattice rank {self.d}")
        if points.dtype.kind not in "iuO":  # a float array has already lost what it rounded
            raise ValueError(f"points have dtype {points.dtype}, not integers")
        dtype = _exact_dtype(self.index**2 << self.d)
        if self.index >= 1 << 63:
            points = points.astype(object)
        residue = (points % self.index).astype(dtype)
        basis = np.array(self.basis, dtype=dtype)
        t = self.tail
        head = residue[:, :t] - residue[:, t:] @ basis[t:, :t]
        code = np.zeros(len(residue), dtype=dtype)
        for j in range(t - 1, -1, -1):
            row = basis[j]
            q = head[:, j] // row[j]
            head[:, : j + 1] -= q[:, None] * row[: j + 1]
            code = code * row[j] + head[:, j]
        return code

    def points_in_box(self, radius: int) -> Iterator[tuple[int, ...]]:
        """The points of lattice_point_blocks, one tuple at a time."""
        return (tuple(p) for block in lattice_point_blocks((self,), radius) for p in block.tolist())


def lattice_point_blocks(lattices: Sequence[IdealLattice], radius: int) -> Iterator[np.ndarray]:
    """The points with sup norm <= radius of lattices of one rank d, as
    (m, d) int64 arrays.

    Rows from a lattice's tail t on are e_j plus entries in columns below
    t, so the points come from the tail box [-radius, radius]^(d-t).

    A cyclic lattice, t = 1 with HNF diagonal (N, 1, ..., 1), holds x exactly
    when x_0 = sum_{j >= 1} b_j x_j (mod N), b_j = basis[j][0].  Split
    coordinates 1..d-1 into a half A (the first floor((d-1)/2)) and a half
    B; then x is a point when (x_0 - A . b_A) mod N equals B . b_B mod N.
    The join (_join_blocks) tabulates about |B| + (2r+1)|A| rows per lattice
    where the walk expands the (2r+1)^(d-1) = |A||B| rows of the tail box,
    and it is taken whenever that count is smaller: from d = 4 on, never at
    d = 2.  Other lattices walk (_walk_blocks).
    """
    if not lattices or not lattices[0].d:
        return
    d = lattices[0].d
    side = 2 * radius + 1
    half = (d - 1) // 2
    join = side ** (d - 1 - half) + side ** (half + 1) < side ** (d - 1)
    tails = [lat.tail for lat in lattices]
    joined = [join and t == 1 for t in tails]
    yield from _join_blocks([lat for lat, j in zip(lattices, joined) if j], radius, half)
    walked = [(lat, t) for lat, t, j in zip(lattices, tails, joined) if not j]
    if walked:
        yield from _walk_blocks(*zip(*walked), radius)


def _join_blocks(lattices: Sequence[IdealLattice], radius: int, half: int) -> Iterator[np.ndarray]:
    """The points of cyclic lattices by a sort-merge join of the congruence
    x_0 = sum_j b_j x_j (mod N), split at coordinate half (Horowitz and
    Sahni, J. ACM 21, 1974).

    For a group of lattices, keys lattice * N_max + (B . b_B mod N) over the
    box B of coordinates half+1..d-1 are sorted once; for every x_0 in
    [-radius, radius] and row of the box A of coordinates 1..half, the
    matching keys lattice * N_max + (x_0 - A . b_A) mod N form one run found
    by searchsorted.  Groups hold about BLOCK_ROWS key and target rows, and
    the runs expand into blocks of at most BLOCK_ROWS points.
    """
    if not lattices:
        return
    d = lattices[0].d
    heads = np.concatenate(list(box_blocks(radius, half)))
    rest = np.concatenate(list(box_blocks(radius, d - 1 - half)))
    x0 = np.arange(-radius, radius + 1)[:, None, None]
    size = max(1, BLOCK_ROWS // max(len(rest), len(x0) * len(heads)))
    for first in range(0, len(lattices), size):
        group = lattices[first : first + size]
        n_max = max(lat.index for lat in group)
        # Keys stay below len(group) * N_max, and A . b_A below half * radius * N_max.
        if _exact_dtype(max(len(group), half * radius) * n_max) is object:
            raise OverflowError(f"cyclic lattice of index {n_max} has join keys beyond int64")
        modulus = np.array([lat.index for lat in group])
        columns = np.array([[row[0] for row in lat.basis[1:]] for lat in group]).T
        offsets = np.arange(len(group)) * n_max
        # Key i * |B| + beta belongs to lattice i and row beta of B; target
        # (x_0 + radius, i, alpha) is flat in the same way.
        keys = ((rest @ columns[half:]) % modulus + offsets).T.ravel()
        # The stable sort pages in less of numpy than the default one: about
        # 0.1 MB of peak RSS against 0.35 MB in a density command.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        s_a = ((heads @ columns[:half]) % modulus).T
        targets = ((x0 - s_a) % modulus[:, None] + offsets[:, None]).ravel()
        lo = np.searchsorted(keys, targets, "left")
        counts = np.searchsorted(keys, targets, "right") - lo
        ends = np.cumsum(counts)
        for start in range(0, int(ends[-1]), BLOCK_ROWS):
            pos = np.arange(start, min(start + BLOCK_ROWS, int(ends[-1])))
            target = np.searchsorted(ends, pos, "right")
            key = order[lo[target] + pos - (ends[target] - counts[target])]
            head = target // (len(group) * len(heads)) - radius
            yield np.concatenate([head[:, None], heads[target % len(heads)], rest[key % len(rest)]], axis=1)


def _walk_blocks(lattices: Sequence[IdealLattice], tails: Sequence[int], radius: int) -> Iterator[np.ndarray]:
    """The points of lattices with tail starts t, breadth first over the
    basis rows from row t - 1 down.

    The coefficient of row j fixes coordinate j, so each prefix (a partial
    sum of the rows below j) expands to the run of coefficients that keeps
    coordinate j in [-radius, radius].  The walk starts from the tail box
    (box_blocks) with head tail @ basis[t:, :t].  Frontier rows carry their
    lattice, so all lattices walk together.  Seeds come in blocks of about
    BLOCK_ROWS rows, and a larger frontier is split in halves.
    """
    d = lattices[0].d
    # The coefficients have sum |c_i| < radius * 2^d and no basis entry
    # exceeds the index, so partial sums stay below their product.
    dtype = _exact_dtype((radius << d) * max(lat.index for lat in lattices))
    bases = np.array([lat.basis for lat in lattices], dtype=dtype)
    tails = np.array(tails)
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


def hnf(generators: Sequence[Sequence[int]], modulus: Optional[int] = None) -> IdealLattice:
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
    return IdealLattice(d, tuple(tuple(row) for row in basis), index)


@lru_cache(maxsize=None)
def ideal_lattice(prime_ideal, m: int = 1) -> IdealLattice:
    """HNF lattice of the m-th power of a prime ideal P under the embedding.

    An unramified P of degree 1 is (ell, zeta - a) for a root a of Phi_n
    mod ell.  As ell does not divide n, those roots are the a of order
    exactly n mod ell.  Their Teichmueller lift w = a^(ell^(m-1)) mod ell^m
    has w = a mod ell and w^n = 1 mod ell^m; Phi_e(w) is a unit for every
    proper divisor e of n, so Phi_n(w) = 0 mod ell^m, and zeta -> w maps
    Z[zeta_n] onto Z/ell^m with kernel P^m.  P^m is then the cyclic lattice
    with rows ell^m e_0 and e_j + (-w^j mod ell^m) e_0, of index ell^m =
    N(P)^m.  Raises ArithmeticError unless a has order n mod ell and
    w^n = 1 mod ell^m.  Every other P goes through one HNF
    (_ideal_lattice_by_hnf).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (prime_ideal.e == prime_ideal.f == 1):
        return _ideal_lattice_by_hnf(prime_ideal, m)
    n, ell = prime_ideal.n, prime_ideal.ell
    modulus = ell**m
    a = -prime_ideal.g_poly[0] % ell
    if pow(a, n, ell) != 1 or any(pow(a, n // q, ell) == 1 for q in factor_integer(n)):
        raise ArithmeticError(f"{a} is not a root of Phi_{n} mod {ell}")
    w = pow(a, ell ** (m - 1), modulus)
    if pow(w, n, modulus) != 1:
        raise ArithmeticError(f"{w} is not a root of Phi_{n} mod {ell}^{m}")
    d = ring_degree(n)
    basis = [(modulus,) + (0,) * (d - 1)]
    power = 1
    for j in range(1, d):
        power = power * w % modulus
        basis.append((-power % modulus,) + (0,) * (j - 1) + (1,) + (0,) * (d - 1 - j))
    return IdealLattice(d, tuple(basis), modulus)


def _ideal_lattice_by_hnf(prime_ideal, m: int) -> IdealLattice:
    """HNF lattice of P^m for any prime ideal P = (ell, pi).

    P^m is generated as an ideal by the monomials ell^(m-j) pi^j, 0 <= j <= m,
    so as a group by their multiples by zeta^t, t < d.  The j = 0 monomial
    spans ell^m Z^d, which is the HNF modulus; the m*d rows of the others are
    reduced mod ell^m in one HNF.  The index is checked against N(P)^m.
    """
    n, ell = prime_ideal.n, prime_ideal.ell
    _, pi = prime_ideal.generators()
    zeta = CycInt.root(n)
    vectors = []
    power = CycInt.one(n)
    for j in range(1, m + 1):
        power = power * pi
        x = power * ell ** (m - j)
        for _ in range(len(x.coeffs)):
            vectors.append(x.coeffs)
            x = x * zeta
    lat = hnf(vectors, modulus=ell**m)
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
