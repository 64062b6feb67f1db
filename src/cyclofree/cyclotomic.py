"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

An element is stored by its coefficient vector on the power basis
1, zeta, ..., zeta^(d-1) with d = phi(n), reduced modulo the n-th
cyclotomic polynomial.  Conductors follow the convention n > 2 and
n != 2 mod 4, so every cyclotomic field appears exactly once.

All coefficients are Python ints (arbitrary precision); every operation
is exact.  norm_array takes the norms of many elements at once on numpy
arrays, in 64-bit words where a bound proves it exact and in Python ints
otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, constant coefficient first."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def divmod_monic(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder by a monic divisor, exactly over Z."""
        if divisor.is_zero() or divisor.leading() != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                quot[i - dd] = c
                for j, dc in enumerate(divisor.coeffs):
                    rem[i - dd + j] -= c * dc
        return IntPolynomial(quot), IntPolynomial(rem)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __repr__(self):
        return f"IntPolynomial({self.coeffs})"


def _pseudo_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # lc(b)^(deg a - deg b + 1) * a = q*b + r with deg r < deg b
    lb = b.leading()
    rem = list(a.coeffs)
    db = b.degree
    for i in range(a.degree, db - 1, -1):
        c = rem[i]
        for j in range(len(rem)):
            rem[j] *= lb
        if c:
            # after scaling, the top coefficient is c*lb; cancel with c*lb/lb * b
            top = rem[i]
            for j, bc in enumerate(b.coeffs):
                rem[i - db + j] -= (top // lb) * bc
        rem[i] = 0
    return IntPolynomial(rem)


def resultant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Res(a, b) over Z via the subresultant remainder sequence.

    Exact with controlled coefficient growth; agrees with the determinant
    of the Sylvester matrix.
    """
    if a.is_zero() or b.is_zero():
        return 0
    sign = 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -1
        a, b = b, a
    if b.degree == 0:
        return sign * b.coeffs[0] ** a.degree
    ca, cb = a.content(), b.content()
    scale = ca ** b.degree * cb ** a.degree
    a = IntPolynomial(tuple(c // ca for c in a.coeffs))
    b = IntPolynomial(tuple(c // cb for c in b.coeffs))
    g = h = 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        a = b
        denom = g * h**delta
        b = IntPolynomial(tuple(c // denom for c in r.coeffs))
        g = a.leading()
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
        if b.is_zero():
            return 0
        if b.degree == 0:
            break
    da = a.degree
    value = b.coeffs[0] ** da // h ** (da - 1) if da > 0 else 1
    return sign * scale * value


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    Computed by exact division of x^n - 1 by the product of the
    cyclotomic polynomials of the proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPolynomial((-1, 1))
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    den = IntPolynomial((1,))
    for m in range(1, n):
        if n % m == 0:
            den = den * cyclotomic_polynomial(m)
    quot, rem = num.divmod_monic(den)
    assert rem.is_zero()
    return quot


def euler_phi(n: int) -> int:
    phi = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            phi -= phi // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        phi -= phi // m
    return phi


class ConductorError(ValueError):
    pass


def validate_conductor(n: int) -> int:
    """Enforce n > 2 and n != 2 mod 4, the one-field-one-n convention."""
    if not isinstance(n, int) or n <= 2:
        raise ConductorError(f"conductor must be an integer > 2, got {n}")
    if n % 4 == 2:
        raise ConductorError(
            f"conductor {n} is 2 mod 4; the field coincides with the one "
            f"of conductor {n // 2}, use that instead"
        )
    return n


@lru_cache(maxsize=None)
def _ring_data(n: int) -> tuple[int, IntPolynomial, tuple[tuple[int, ...], ...]]:
    """(degree d, Phi_n, table of zeta^t mod Phi_n for t = 0..n-1)."""
    validate_conductor(n)
    phi = cyclotomic_polynomial(n)
    d = phi.degree
    # zeta^(t+1) = zeta * zeta^t: shift the row up and reduce the carried
    # x^d term once by the monic Phi_n.
    row = [1] + [0] * (d - 1)
    powers = []
    for _ in range(n):
        powers.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [c - top * pc for c, pc in zip(row, phi.coeffs)]
    return d, phi, tuple(powers)


def ring_degree(n: int) -> int:
    return _ring_data(n)[0]


def _exact_dtype(bound: int):
    """int64 when every value that must come out exact stays below bound, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def norm_ceiling(n: int, squares: int) -> int:
    """floor((n s / d)^(d/2)) >= |N(x)| for all x in Z[zeta_n] with |x|_2^2 <= s:
    |N(x)| is the product of the |sigma(x)| over the d = phi(n) (even)
    embeddings, whose squares sum to at most n s (Parseval over all n-th
    roots of unity), so AM-GM gives the bound."""
    half = ring_degree(n) // 2
    return (n * squares) ** half // (2 * half) ** half


@lru_cache(maxsize=None)
def _norm_tables(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(the n x d table of zeta^t, its rows t mod n for t < 2d - 1, which
    reduce a product of two elements, and for r = -1 and each unit
    1 < r < n/2 the rows i r mod n of sigma_r)."""
    d, _, powers = _ring_data(n)
    table = np.array(powers, dtype=np.int64)
    reduce = table[np.arange(2 * d - 1) % n]
    units = [n - 1] + [r for r in range(2, (n + 1) // 2) if math.gcd(r, n) == 1]
    galois = tuple(np.arange(d) * r % n for r in units)
    for array in (table, reduce, *galois):
        array.setflags(write=False)
    return table, reduce, galois


def norm_array(n: int, points) -> np.ndarray:
    """The exact field norm of every row of an (m, d) integer array.

    N(x) is the product of the phi(n) Galois conjugates of x.  Conjugates
    pair up under sigma_-1, so N(x) = prod sigma_r(y) over the units
    0 < r < n/2, with y = x sigma_-1(x): phi/2 products in all.  sigma_r
    sends the row c to c @ G_r, where row i of G_r is zeta^(i r mod n).  A
    product is a convolution into 2d - 1 coefficients, reduced through
    zeta^(t mod n) as CycInt.__mul__ does; memory and work per product are
    O(m d^2).

    Every step is a ring operation, so the same steps in Z/2^64 (uint64,
    which wraps by definition) give N(x) mod 2^64.  N(x) >= 0 since the
    field is totally complex, and N(x) <= norm_ceiling(n, |x|_2^2).  When
    that bound is below 2^62 the residue is N(x) itself, and otherwise the
    steps run in Python ints.  The resultant in CycInt.norm is the scalar
    reference.
    """
    d = ring_degree(n)
    rows = np.asarray(points)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"points have shape {rows.shape}, ring degree {d}")
    m = len(rows)
    table, reduce, galois = _norm_tables(n)
    squares = max((sum(v * v for v in row) for row in rows.tolist()), default=0)
    if _exact_dtype(norm_ceiling(n, squares) + 1) is object:
        acc, table, reduce = rows.astype(object), table.astype(object), reduce.astype(object)
    else:
        acc = rows.astype(np.int64).view(np.uint64)
        table, reduce = table.view(np.uint64), reduce.view(np.uint64)
    base = acc
    # The outer product a_i b_j goes into the first d columns of buf; read
    # with rows of length 2d - 1, row i starts i places further right, so
    # the column sums of skewed are the convolution.
    buf = np.zeros((m, d, 2 * d), dtype=acc.dtype)
    skewed = buf.reshape(m, 2 * d * d)[:, : d * (2 * d - 1)].reshape(m, d, 2 * d - 1)
    for step, gather in enumerate(galois):
        conjugate = base @ table.take(gather, axis=0)
        np.multiply(acc[:, :, None], conjugate[:, None, :], out=buf[:, :, :d])
        acc = np.add.reduce(skewed, axis=1) @ reduce
        if step == 0:
            base = acc
    if acc[:, 1:].any():
        raise ArithmeticError("a product of all Galois conjugates is not rational")
    return acc[:, 0] if acc.dtype == object else acc[:, 0].view(np.int64)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_n], reduced on the power basis of length phi(n)."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        d = ring_degree(self.n)
        if len(self.coeffs) != d:
            raise ValueError(f"need exactly {d} coefficients for conductor {self.n}")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CycInt":
        return CycInt(n, (0,) * ring_degree(n))

    @staticmethod
    def one(n: int) -> "CycInt":
        return CycInt.from_int(n, 1)

    @staticmethod
    def from_int(n: int, value: int) -> "CycInt":
        return CycInt(n, (int(value),) + (0,) * (ring_degree(n) - 1))

    @staticmethod
    def root(n: int, t: int = 1) -> "CycInt":
        """zeta_n^t."""
        _, _, powers = _ring_data(n)
        return CycInt(n, powers[t % n])

    @staticmethod
    def from_polynomial(n: int, poly: IntPolynomial) -> "CycInt":
        """The canonical representative of poly(zeta_n)."""
        d, _, powers = _ring_data(n)
        out = [0] * d
        for e, c in enumerate(poly.coeffs):
            if not c:
                continue
            e %= n
            if e < d:
                out[e] += c
            else:
                for j, pc in enumerate(powers[e]):
                    out[j] += c * pc
        return CycInt(n, tuple(out))

    # ---- ring structure -----------------------------------------------

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            if other.n != self.n:
                raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.n, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.n, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, _, powers = _ring_data(self.n)
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        out = list(raw[:d])
        for e in range(d, 2 * d - 1):
            c = raw[e]
            if c:
                for j, pc in enumerate(powers[e % self.n]):
                    out[j] += c * pc
        return CycInt(self.n, tuple(out))

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    # ---- field structure ----------------------------------------------

    def galois(self, r: int) -> "CycInt":
        """Apply the automorphism zeta -> zeta^r; requires gcd(r, n) = 1."""
        if math.gcd(r, self.n) != 1:
            raise ValueError(f"{r} is not invertible modulo {self.n}")
        d, _, powers = _ring_data(self.n)
        out = [0] * d
        for i, c in enumerate(self.coeffs):
            if c:
                for j, pc in enumerate(powers[(i * r) % self.n]):
                    out[j] += c * pc
        return CycInt(self.n, tuple(out))

    def norm(self) -> int:
        """Field norm over Q, exact (resultant with the cyclotomic polynomial)."""
        if not self:
            return 0
        _, phi, _ = _ring_data(self.n)
        return resultant(phi, IntPolynomial(self.coeffs))

    def inverse_unit(self) -> "CycInt":
        """Inverse of a unit: the product of the other conjugates over the norm."""
        nrm = self.norm()
        if abs(nrm) != 1:
            raise ValueError("element is not a unit")
        acc = CycInt.one(self.n)
        for r in range(2, self.n):
            if math.gcd(r, self.n) == 1:
                acc = acc * self.galois(r)
        return acc * nrm

    # ---- embedding and serialization ----------------------------------

    def embed(self) -> tuple[int, ...]:
        """Coordinates on the power basis (the Cartesian embedding)."""
        return self.coeffs

    @staticmethod
    def unembed(n: int, vector) -> "CycInt":
        return CycInt(n, tuple(int(v) for v in vector))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "coeffs": [str(c) for c in self.coeffs]})

    @staticmethod
    def from_json(text: str) -> "CycInt":
        data = json.loads(text)
        return CycInt(int(data["n"]), tuple(int(c) for c in data["coeffs"]))

    def __repr__(self):
        return f"CycInt({self.n}, {self.coeffs})"


def reduce_polynomial(poly: IntPolynomial, n: int) -> CycInt:
    """Canonical representative of poly modulo the n-th cyclotomic polynomial."""
    return CycInt.from_polynomial(n, poly)
