"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

An element is stored by its coefficient vector on the power basis
1, zeta, ..., zeta^(d-1) with d = phi(n), reduced modulo the n-th
cyclotomic polynomial.  Every polynomial over Z, Phi_n among them, is a
tuple of coefficients, constant first; a reduction folds exponents mod n
and divides by Phi_n, so a conductor costs O(n) memory.  Conductors
follow the convention n > 2 and n != 2 mod 4, so every cyclotomic field
appears exactly once.

All coefficients are Python ints (arbitrary precision); every operation
is exact.  norm_array takes the norms of many elements at once on numpy
arrays, from their values at the n-th roots of unity modulo word-size
primes, joined by CRT.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import factor_integer, is_prime, ring_degree, root_of_unity


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, monic of degree phi(n), as its
    coefficients, constant first.

    Phi_n = prod over squarefree s | n of (x^(n/s) - 1)^mu(s): the factors
    with mu(s) = +1 are multiplied in, then those with mu(s) = -1 are
    divided out exactly, by q_i = q_(i-e) - c_i for the divisor x^e - 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    primes = list(factor_integer(n))
    factors = ([], [])
    for size in range(len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            factors[size % 2].append(n // math.prod(subset))
    poly = [1]
    for e in factors[0]:
        poly = [0] * e + poly
        for i in range(len(poly) - e):
            poly[i] -= poly[i + e]
    for e in factors[1]:
        quot = [0] * (len(poly) - e)
        for i in range(len(quot)):
            quot[i] = (quot[i - e] if i >= e else 0) - poly[i]
        poly = quot
    return tuple(poly)


def _reduce(n: int, raw) -> "CycInt":
    """The element sum_e raw[e] zeta_n^e: the exponents fold mod n
    (zeta^n = 1), then the terms of degree >= d are divided out by the
    monic Phi_n, top down."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    out = list(raw[:n]) + [0] * (d - len(raw))
    for e in range(n, len(raw)):
        out[e % n] += raw[e]
    for top in range(len(out) - 1, d - 1, -1):
        c = out.pop()
        if c:
            for j, pc in enumerate(phi[:d], top - d):
                out[j] -= c * pc
    return CycInt(n, tuple(out))


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


# A sum of d products of two residues mod p stays below this bound when
# d (p - 1)^2 < _WORD_BOUND, so the evaluations run in int64.
_WORD_BOUND = 1 << 63


@lru_cache(maxsize=None)
def _exponents(n: int) -> np.ndarray:
    """The d x d index i r mod n, for i < d and the units r of Z/n in order."""
    units = [r for r in range(1, n) if math.gcd(r, n) == 1]
    index = np.outer(np.arange(ring_degree(n)), units) % n
    index.setflags(write=False)
    return index


@lru_cache(maxsize=None)
def _evaluation_prime(n: int, i: int) -> tuple[int, np.ndarray]:
    """The i-th prime p = 1 mod n below the word bound, counting down, and
    the powers h^t mod p for t < n of an h of multiplicative order n.

    Raises ArithmeticError when no such prime is left."""
    if i:
        p = _evaluation_prime(n, i - 1)[0] - n
    else:
        p = math.isqrt((_WORD_BOUND - 1) // ring_degree(n)) // n * n + 1
    while p > 1 and not is_prime(p):
        p -= n
    if p == 1:
        raise ArithmeticError(f"no word-size prime p = 1 mod {n} is left for the norm")
    h = root_of_unity(n, p)
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * h % p)
    powers = np.array(powers, dtype=np.int64)
    powers.setflags(write=False)
    return p, powers


def norm_array(n: int, points) -> np.ndarray:
    """The exact field norm of every row of an (m, d) integer array.

    zeta -> h, with h of order n mod a prime p = 1 mod n, is a ring map
    Z[zeta_n] -> F_p, and the h^r over the units r of Z/n are the roots of
    Phi_n mod p; so prod_r x(h^r) = N(x) mod p.  The evaluations are one
    int64 product of the residues with the table h^(i r) per prime.
    N(x) >= 0 since the field is totally complex, and N(x) <=
    norm_ceiling(n, |x|_2^2); primes are taken, counting down from the
    word bound, until their product exceeds that ceiling, and the
    residues are joined by CRT, one prime at a time.  The result is int64
    when the ceiling fits, Python ints otherwise.  Raises ArithmeticError
    when the word-size primes run out before the ceiling.
    """
    d = ring_degree(n)
    rows = np.asarray(points)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"points have shape {rows.shape}, ring degree {d}")
    big = int(np.abs(rows).max(initial=0))
    rows = rows.astype(_exact_dtype(d * big * big + 1))
    ceiling = norm_ceiling(n, int((rows * rows).sum(axis=1).max(initial=0)))
    norms = np.zeros(len(rows), dtype=_exact_dtype(ceiling + 1))
    index = _exponents(n)
    modulus, i = 1, 0
    while modulus <= ceiling:
        p, powers = _evaluation_prime(n, i)
        values = (rows % p).astype(np.int64) @ powers[index] % p
        # The product of the columns mod p, pairing column j with j + half.
        width = d
        while width > 1:
            half = (width + 1) // 2
            values[:, : width - half] = values[:, : width - half] * values[:, half:width] % p
            width = half
        step = (values[:, 0] - (norms % p).astype(np.int64)) * pow(modulus, -1, p) % p
        norms += modulus * step.astype(norms.dtype)
        modulus, i = modulus * p, i + 1
    return norms


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
        return _reduce(n, (0,) * (t % n) + (1,))

    @staticmethod
    def from_polynomial(n: int, coeffs) -> "CycInt":
        """The canonical representative of sum_e coeffs[e] zeta_n^e, for
        any sequence of integer coefficients, constant first."""
        return _reduce(n, tuple(int(c) for c in coeffs))

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
        d = ring_degree(self.n)
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        return _reduce(self.n, raw)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    # ---- field structure ----------------------------------------------

    def galois(self, r: int) -> "CycInt":
        """Apply the automorphism zeta -> zeta^r; requires gcd(r, n) = 1."""
        if math.gcd(r, self.n) != 1:
            raise ValueError(f"{r} is not invertible modulo {self.n}")
        raw = [0] * self.n
        for i, c in enumerate(self.coeffs):
            raw[(i * r) % self.n] += c
        return _reduce(self.n, raw)

    def norm(self) -> int:
        """Field norm over Q, exact: the one-row norm_array."""
        return int(norm_array(self.n, np.array([self.coeffs], dtype=object))[0])

    def __repr__(self):
        return f"CycInt({self.n}, {self.coeffs})"

