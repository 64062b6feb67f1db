"""Full-rank sublattices of Z^d in lower-triangular Hermite normal form.

The HNF convention: basis rows b_0, ..., b_{d-1} with b_i[j] = 0 for j > i,
positive diagonal, and 0 <= b_i[j] < b_j[j] for j < i.  This form is unique
per lattice, so equal lattices compare equal.  The lattice index in Z^d is
the product of the diagonal.

Ideal powers P^m are built in closed form for unramified P of degree 1,
from the root of unity mod ell^m that lifts a root of Phi_n mod ell, and
from one HNF otherwise.

Coset codes (IdealLattice.coset_codes) number the cosets of a lattice in
[0, index).  The same reduction lists the points of lattices in a box
(lattice_point_blocks): a point is a pair of half-box rows with equal
codes, found by one sort-merge join whatever the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import factor_integer, ring_degree, xgcd
from .cyclotomic import CycInt, _exact_dtype

# Rows per step of lattice_point_blocks: rows of the larger half box per
# lattice group, and points per block.  Groups of two or four times as many
# rows cleared a box slower, and larger blocks raise peak memory.
BLOCK_ROWS = 1 << 12


class RankError(ValueError):
    pass


@dataclass(frozen=True)
class IdealLattice:
    """A full-rank sublattice of Z^d given by its canonical HNF basis; the
    rank d and the index in Z^d (the product of the diagonal) are read from it."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        return math.prod(row[j] for j, row in enumerate(self.basis))

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
        in Python ints when the index is beyond int64, and then go through
        the reduction of lattice_point_blocks (_codes), in int64 while
        2 d index^2 < 2^62.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError(f"points have shape {points.shape}, lattice rank {self.d}")
        if points.dtype.kind not in "iuO":  # a float array has already lost what it rounded
            raise ValueError(f"points have dtype {points.dtype}, not integers")
        if self.index >= 1 << 63:
            points = points.astype(object)
        return _codes(points % self.index, (self,), self.index)[0]

    def points_in_box(self, radius: int) -> Iterator[tuple[int, ...]]:
        """The points of lattice_point_blocks, one tuple at a time."""
        return (tuple(p) for block in lattice_point_blocks((self,), radius) for p in block.tolist())


def _codes(points: np.ndarray, lattices: Sequence[IdealLattice], bound: int) -> np.ndarray:
    """Row i of the result holds i * N_max plus the coset code in lattice i
    of every row of points, whose entries are at most bound in absolute
    value; the lattices share one rank d and one tail start t.

    Rows from t on add nothing to the code: they clear x_{>=t} in one
    product, x_{<t} - x_{>=t} B[t:, :t], with the B of all lattices stacked.
    The head rows j = t-1, ..., 0 then each give one digit of the code, and
    the quotient by b_jj is taken mod index / b_jj before b_j[:j] is
    subtracted: (index / b_jj) b_j and index e_j lie in the lattice.
    Entries stay below d (bound + index) index, so the codes are int64
    while max(d (bound + N_max), len(lattices)) N_max < 2^62 and Python
    ints past that.
    """
    d, t, n_max = points.shape[1], lattices[0].tail, max(lat.index for lat in lattices)
    dtype = _exact_dtype(max(d * (bound + n_max), len(lattices)) * n_max)
    points = points.astype(dtype)
    bases = np.array([lat.basis for lat in lattices], dtype=dtype)
    index = np.array([lat.index for lat in lattices], dtype=dtype)[:, None]
    # Row j * len(lattices) + i of folded is column j of lattice i's B[t:].
    folded = bases[:, t:, :t].transpose(2, 0, 1).reshape(t * len(lattices), d - t)
    head = points[:, :t].T[:, None] - (folded @ points[:, t:].T).reshape(t, len(lattices), len(points))
    code = np.zeros((len(lattices), len(points)), dtype=dtype)
    for j in range(t - 1, -1, -1):
        diag = bases[:, j, j, None]
        residue = head[j] % diag
        code *= diag
        code += residue
        if j:
            quotient = (head[j] - residue) // diag % (index // diag)
            head[:j] -= quotient * bases[:, j, :j].T[:, :, None]
    code += np.arange(len(lattices)).astype(dtype)[:, None] * n_max
    return code


def lattice_point_blocks(lattices: Sequence[IdealLattice], radius: int) -> Iterator[np.ndarray]:
    """The points with sup norm <= radius of lattices of one rank d, as
    (m, d) int64 arrays of at most BLOCK_ROWS rows.

    A point x lies in a lattice exactly when its coset code is 0, and codes
    tell cosets apart, so with x = (x_A, x_B) split after coordinate
    a = floor(d/2), x is a point exactly when (0, x_B) and (-x_A, 0) have
    one code.  For a group of lattices of one tail start, the rows of both
    half boxes [-r, r]^a and [-r, r]^(d-a) are coded together (_codes).
    The keys lattice * N_max + code(0, x_B) and the targets lattice * N_max
    + code(-x_A, 0) are sorted, one searchsorted finds each target's run
    among the distinct keys, and the runs expand into blocks of points: a
    sort-merge join (Horowitz and Sahni, J. ACM 21, 1974).  A group holds
    about BLOCK_ROWS rows of the larger half box.
    """
    if not lattices or not lattices[0].d:
        return
    d = lattices[0].d
    a = d // 2
    box_a = np.concatenate(list(box_blocks(radius, a)))
    box_b = np.concatenate(list(box_blocks(radius, d - a)))
    # Rows (-x_A, 0) of the targets, then (0, x_B) of the keys.
    halves = np.zeros((len(box_a) + len(box_b), d), dtype=np.int64)
    halves[: len(box_a), :a] = -box_a
    halves[len(box_a) :, a:] = box_b
    size = max(1, BLOCK_ROWS // max(len(box_a), len(box_b)))
    tails = [lat.tail for lat in lattices]
    for t in sorted(set(tails)):
        same = [lat for lat, s in zip(lattices, tails) if s == t]
        for first in range(0, len(same), size):
            codes = _codes(halves, same[first : first + size], radius)
            # Target i * |A| + alpha belongs to lattice i and row alpha of
            # A, and key i * |B| + beta to lattice i and row beta of B.
            targets = codes[:, : len(box_a)].ravel()
            keys = codes[:, len(box_a) :].ravel()
            # searchsorted runs faster on sorted targets.
            by_key, by_target = np.argsort(keys), np.argsort(targets)
            keys, targets = keys[by_key], targets[by_target]
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            run = np.minimum(np.searchsorted(keys[starts], targets), len(starts) - 1)
            lo = starts[run]
            counts = np.where(keys[lo] == targets, np.diff(starts, append=len(keys))[run], 0)
            ends = np.cumsum(counts)
            # Point p pairs sorted target i = searchsorted(ends, p, "right")
            # with sorted key p + skip[i].
            skip = lo - ends + counts
            rows_a, rows_b = by_target % len(box_a), by_key % len(box_b)
            # Only what the expansion reads stays alive while it runs.
            del codes, targets, keys, by_key, by_target, starts, run, lo, counts
            for start in range(0, int(ends[-1]), BLOCK_ROWS):
                pos = np.arange(start, min(start + BLOCK_ROWS, int(ends[-1])))
                target = np.searchsorted(ends, pos, "right")
                yield np.concatenate([box_a[rows_a[target]], box_b[rows_b[pos + skip[target]]]], axis=1)


def hnf(generators: Sequence[Sequence[int]], modulus: Optional[int] = None) -> IdealLattice:
    """Canonical lower-triangular HNF lattice spanned by the generators.

    Raises RankError unless the generators span a full-rank subgroup.
    When a modulus M with M*Z^d contained in the lattice is known, passing
    it bounds intermediate entries: the rows M*e_0, ..., M*e_(d-1) go in
    after the generators, which are reduced mod M, and a step at column c
    reduces columns 0..c-1 of both rows it changes mod M.  That moves the
    span by vectors of M*Z^d; while M*e_j goes in (c <= j), by vectors of
    M*Z^c, which the pivot rows of columns 0..c-1 already span, so the
    result is the span of the generators and M*Z^d.
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
            if modulus is not None:
                for t in range(j):
                    row[t] %= modulus
                    vec[t] %= modulus
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
    return IdealLattice(tuple(tuple(row) for row in basis))


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
    return IdealLattice(tuple(basis))


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
