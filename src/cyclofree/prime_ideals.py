"""Prime ideal splitting in Z[zeta_n], valuations, and k-free predicates.

Because Z[zeta_n] is the full ring of integers, the prime ideals above a
rational prime ell are read off the factors of the n-th cyclotomic
polynomial modulo ell: each distinct monic irreducible factor g gives the
prime ideal (ell, g(zeta_n)), with residue degree deg(g) and ramification
equal to the multiplicity of g.  The shape (e, f, g) is known beforehand:
with n = ell^a m and ell not dividing m, arith.prime_shape reads it from
n and ell alone, ramified or not, f being the order of ell mod m
(splitting_type returns it).  The factors for f = 1 (ell = 1 mod m) are
x - h^r, with h of order m mod ell and r a unit mod m; for g = 1 Phi_m
mod ell is the one factor, and otherwise gfpoly.cyclotomic_factors splits
Phi_m mod ell by its traces, with no random draw.

Valuations are computed geometrically: v_P(x) is the largest m for which
the embedded point lies in the lattice of P^m (coset code 0).  The k-free
and W_k tests work on arrays of points: exact norms, one factorization per
distinct norm, and membership in P^k by coset codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import (
    factor_integer, is_prime, prime_power_part, prime_shape, primes_up_to, root_of_unity,
    validate_conductor,
)
from .cyclotomic import CycInt, cyclotomic_polynomial, norm_array
from .lattices import ideal_lattice


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal (ell, g(zeta_n)).  Its residue degree f is deg g, and
    its ramification index e is phi(ell^a) for the exact power ell^a
    dividing n."""

    ell: int
    n: int
    g_poly: tuple[int, ...]  # monic factor of Phi_n mod ell, lifted to [0, ell)

    @property
    def e(self) -> int:
        power, _ = prime_power_part(self.ell, self.n)
        return power - power // self.ell

    @property
    def f(self) -> int:
        return len(self.g_poly) - 1

    @property
    def norm(self) -> int:
        return self.ell**self.f

    @property
    def ramified(self) -> bool:
        return self.e > 1

    def generators(self) -> list[CycInt]:
        return [
            CycInt.from_int(self.n, self.ell),
            CycInt.from_polynomial(self.n, self.g_poly),
        ]

    def sort_key(self):
        return (self.norm, self.ell, self.g_poly)


@lru_cache(maxsize=None)
def splitting_type(ell: int, n: int) -> tuple[int, int, int]:
    """(e, f, g) for the rational prime ell in conductor n, no factorization:
    arith.prime_shape, once ell and n are checked."""
    validate_conductor(n)
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    return prime_shape(ell, n)


@lru_cache(maxsize=None)
def split_prime(ell: int, n: int) -> tuple[PrimeIdeal, ...]:
    """All prime ideals above ell, in canonical order.

    With n = ell^a m and ell not dividing m, Phi_n = Phi_m^e mod ell, and
    Phi_m mod ell is squarefree with g irreducible factors of degree f.
    When f = 1 (ell = 1 mod m), ramified or not, they are the x - h^r for
    h of order exactly m mod ell (arith.root_of_unity) and r in (Z/m)^x,
    and the ideals are (ell, zeta - h^r).  When g = 1 (ell inert in
    Q(zeta_m)), Phi_m mod ell is itself the one factor.  Otherwise the
    deterministic trace split gfpoly.cyclotomic_factors gives every factor.
    """
    _, f, g = splitting_type(ell, n)
    _, m = prime_power_part(ell, n)
    if f == 1:
        h = root_of_unity(m, ell)
        factors = [(-pow(h, r, ell) % ell, 1) for r in range(m) if math.gcd(r, m) == 1]
    elif g == 1:
        factors = [tuple(c % ell for c in cyclotomic_polynomial(m))]
    else:
        from . import gfpoly  # here, so conductors whose primes need no split skip the module

        factors = gfpoly.cyclotomic_factors(gfpoly.gf_from_int_poly(cyclotomic_polynomial(m), ell), m, f, ell)
    ideals = [PrimeIdeal(ell=ell, n=n, g_poly=c) for c in factors]
    return tuple(sorted(ideals, key=PrimeIdeal.sort_key))


def enumerate_prime_ideals(n: int, norm_bound: int) -> Iterator[PrimeIdeal]:
    """Every prime ideal of norm <= norm_bound, once, sorted by
    (norm, ell, coefficients of the defining factor): the primes ell are
    sorted by (ell^f, ell) and each yields its split_prime tuple, already
    in that order.  A norm ell^f <= norm_bound < ell^2 forces f = 1, which
    needs ell | n or ell = 1 mod n."""
    validate_conductor(n)
    found: list[tuple[int, int]] = []
    for ell in primes_up_to(norm_bound):
        if ell * ell > norm_bound and ell % n != 1 and n % ell:
            continue
        norm = ell ** splitting_type(ell, n)[1]
        if norm <= norm_bound:
            found.append((norm, ell))
    for _, ell in sorted(found):
        yield from split_prime(ell, n)


def valuation(x: CycInt, ideal: PrimeIdeal) -> int:
    """v_P(x): the largest m with x in P^m, that is with coset code 0 in the
    lattice of P^m.  Infinite (an error) for x = 0."""
    if not x:
        raise ValueError("the valuation of 0 is infinite")
    if x.n != ideal.n:
        raise ValueError("conductor mismatch")
    row = np.array([x.coeffs], dtype=object)
    m = 0
    while ideal_lattice(ideal, m + 1).coset_codes(row)[0] == 0:
        m += 1
    return m


def candidate_ideals(norm: int, primes, n: int, k: int) -> list[PrimeIdeal]:
    """The P above the given prime factors of a norm N with N(P)^k | N, the
    only P with v_P(x) >= k possible at |N(x)| = N; N(P) = ell^f for all P above ell."""
    return [
        ideal for ell in primes if norm % ell ** (splitting_type(ell, n)[1] * k) == 0
        for ideal in split_prime(ell, n)
    ]


def _kfree_with_norms(points, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """kfree_mask of the rows, with the norms N(x) >= 0 it was read from."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rows = np.asarray(points)
    norms = norm_array(n, rows)
    ok = norms != 0
    values, which = np.unique(norms, return_inverse=True)
    order = np.argsort(which, kind="stable")
    rows_of = np.split(order, np.cumsum(np.bincount(which))[:-1])
    candidates: dict[PrimeIdeal, list[int]] = {}
    for i, value in enumerate(values.tolist()):
        if value > 1:
            for ideal in candidate_ideals(value, factor_integer(value), n, k):
                candidates.setdefault(ideal, []).append(i)
    for ideal, group in candidates.items():
        index = np.concatenate([rows_of[i] for i in group])
        codes = ideal_lattice(ideal, k).coset_codes(rows[index])
        ok[index[codes == 0]] = False
    return ok, norms


def kfree_mask(points, n: int, k: int = 2) -> np.ndarray:
    """For each row of an (m, d) integer array, is that element k-free?

    A zero row is not.  v_P(x) >= k forces N(P)^k | N(x), so the only
    ideals consulted for a row are the P above a prime factor of |N(x)|
    with N(P)^k dividing it; |N| is factored once per distinct value, and
    each such P tests all of its rows at once: x lies in P^k exactly when
    its coset code in the lattice of P^k is 0.
    """
    return _kfree_with_norms(points, n, k)[0]


def wk_mask(points, n: int, k: int = 2) -> np.ndarray:
    """For each row of an (m, d) integer array, is that element in W_k:
    k-free, with only ramified primes (those above the divisors of n)
    dividing it?  Read from the norms kfree_mask computed: some P above ell
    divides x exactly when ell divides N = |N(x)|, and every prime factor of
    N divides n exactly when N divides n^e, e = bit length of N."""
    ok, norms = _kfree_with_norms(points, n, k)
    ramified = [v > 0 and pow(n, v.bit_length(), v) == 0 for v in norms.tolist()]
    return ok & np.array(ramified, dtype=bool)


def is_kfree(x: CycInt, k: int = 2) -> bool:
    """True when no prime ideal divides (x) to the k-th power; x = 0 is
    divisible by every power and reports False.  One row of kfree_mask."""
    return bool(kfree_mask(np.array([x.coeffs], dtype=object), x.n, k)[0])


def is_in_Wk(x: CycInt, k: int = 2) -> bool:
    """True when x is k-free and only ramified primes (those above the
    divisors of n) divide the ideal (x).  One row of wk_mask."""
    return bool(wk_mask(np.array([x.coeffs], dtype=object), x.n, k)[0])


def ramified_primes(n: int) -> list[int]:
    """The rational primes that ramify: exactly the divisors of n."""
    validate_conductor(n)
    return sorted(factor_integer(n))
