"""Rational integer utilities: primes, factoring, orders, integer roots,
the Bareiss determinant, and the conductor arithmetic of Z[zeta_n]: its
validation, its degree phi(n), and how each rational prime splits in it.

Everything here is deterministic.  Factoring is trial division backed by
Brent's cycle-finding rho with a fixed parameter schedule, so repeated runs
produce identical factorizations.  Inputs at or beyond FACTOR_LIMIT are
rejected, and rho stops after RHO_STEP_BUDGET steps, instead of being
allowed to run for an unbounded time; prime sieves above PRIME_BOUND_LIMIT
are refused instead of allocating gigabytes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, compress
from typing import Iterator, Sequence

FACTOR_LIMIT = 1 << 128

# Steps y -> y^2 + c that one _brent_rho call may take: ten times the most
# any test takes (64,894, on a 67-bit norm).  Products of two random 32-bit
# primes took at most 236,286 steps in 300 tries.
RHO_STEP_BUDGET = 650_000

# primes_up_to holds a byte per odd integer up to its bound (half a byte per
# integer) and the primes found: a 32 MB peak at 10^7, 0.32 GB at this limit.
PRIME_BOUND_LIMIT = 10**8

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# _PSI[j - 1] = psi_j, the least strong pseudoprime to the first j prime
# bases (OEIS A014233; Sorenson and Webster, Math. Comp. 86, 2017).
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


class ResourceCapError(RuntimeError):
    """A request exceeds a fixed cap on points, primes or factoring steps.
    The CLI exits 3 and prefixes the message with the class's label."""

    label = "resource limit"


class FactorBudgetError(ResourceCapError):
    """Rho took more than RHO_STEP_BUDGET steps on one number."""


class ConductorError(ValueError):
    pass


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by an Eratosthenes byte sieve over the odd numbers.

    Raises ResourceCapError, before any allocation, for a bound above
    PRIME_BOUND_LIMIT."""
    return list(_sieved_primes(bound)) if bound >= 2 else []


def _sieved_primes(bound: int) -> Iterator[int]:
    """The primes <= bound, for a bound >= 2, in increasing order, read
    lazily from the byte sieve over the odd numbers, which is built here and
    is all the memory they hold.  Raises ResourceCapError, before any
    allocation, for a bound above PRIME_BOUND_LIMIT."""
    if bound > PRIME_BOUND_LIMIT:
        raise ResourceCapError(f"prime bound {bound} is above the limit of {PRIME_BOUND_LIMIT}")
    # entry i stands for the odd number 2i + 1
    size = (bound + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for p in range(3, math.isqrt(bound) + 1, 2):
        if sieve[p // 2]:
            start = p * p // 2
            sieve[start::p] = bytes((size - 1 - start) // p + 1)
    return chain((2,), compress(range(1, bound + 1, 2), sieve))


def is_prime(m: int) -> bool:
    """Strong Miller-Rabin tests to the prime bases 2..41, in order.

    An m that passes the first j bases and lies below psi_j, the least
    strong pseudoprime to them, is prime, so the answer is returned there:
    four bases decide every m below 3.2e9.  The answer is proven below
    psi_13 ~ 3.3e24 and probable above, where the fixed bases make it
    reproducible with error probability < 4^-13, which is adequate for the
    < 2^128 inputs this library accepts.
    """
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, d, m)
        if x != 1 and x != m - 1:
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        if m < psi:
            return True
    return True


def _brent_rho(m: int) -> int:
    """A nontrivial factor of the odd composite m (Brent's variant).

    The polynomial increment c walks 1, 2, 3, ... so the search is
    deterministic.  The steps y -> y^2 + c of all increments are counted
    once per doubling of the cycle length r, and FactorBudgetError is
    raised once they pass RHO_STEP_BUDGET.  A round of length r takes at
    most 2 r steps, two more than all rounds before it at this c, so a call
    stops within twice the budget plus two.
    """
    if m % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, x, ys = 1, y, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += 128
            steps += r + min(k, r)
            if g == 1 and steps > RHO_STEP_BUDGET:
                raise FactorBudgetError(f"rho took {steps} steps on {m} without a factor")
            r <<= 1
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g
    raise ArithmeticError(f"rho failed to split {m}")  # pragma: no cover


def factor_integer(m: int) -> dict[int, int]:
    """Factor |m| into primes, as an exponent map sorted by prime.

    Raises ValueError for |m| >= FACTOR_LIMIT and for m = 0, and
    FactorBudgetError when rho takes more than RHO_STEP_BUDGET steps to
    split one composite factor.
    """
    m = abs(m)
    if m == 0:
        raise ValueError("cannot factor 0")
    if m >= FACTOR_LIMIT:
        raise ValueError(f"refusing to factor {m} >= 2^128; out of supported range")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= m and p < 100_000:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += wheel[i]
        i = (i + 1) % 8
    if 1 < m < p * p:
        # No prime below p divides m, so trial division has proven it prime.
        factors[m] = factors.get(m, 0) + 1
    elif m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
            else:
                g = _brent_rho(v)
                stack.append(g)
                stack.append(v // g)
    return dict(sorted(factors.items()))


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)^x; requires gcd(a, modulus) = 1."""
    if modulus <= 1 or math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit modulo {modulus}")
    order, factors = _group_exponent_multiple(modulus)
    for p, e in factors:
        for _ in range(e):
            if pow(a, order // p, modulus) == 1:
                order //= p
            else:
                break
    return order


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
def ring_degree(n: int) -> int:
    """d = phi(n), the rank of Z[zeta_n], for a valid conductor n, from the
    factorization of n: no O(n) work, so a size check can refuse first."""
    validate_conductor(n)
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factor_integer(n).items())


def prime_power_part(ell: int, n: int) -> tuple[int, int]:
    """(ell^a, m) with n = ell^a m and ell not dividing m, for a prime ell.
    Raises ValueError for ell < 2, which no power of ell strips from n."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    m = n
    while m % ell == 0:
        m //= ell
    return n // m, m


def prime_shape(ell: int, n: int) -> tuple[int, int, int]:
    """(e, f, g) of the rational prime ell in Z[zeta_n], for a valid conductor n.

    With n = ell^a m and ell not dividing m, e = phi(ell^a), f is the order
    of ell mod m (1 for m = 1), and g = phi(n) / (e f) (Washington,
    Introduction to Cyclotomic Fields, Thm 2.13); an unramified ell has
    a = 0, so e = 1.  Raises ArithmeticError if e f does not divide phi(n).
    """
    d = ring_degree(n)
    power, m = prime_power_part(ell, n)
    e = power - power // ell
    f = multiplicative_order(ell, m) if m > 1 else 1
    g, rest = divmod(d, e * f)
    if rest:
        raise ArithmeticError(f"splitting e = {e}, f = {f} of {ell} in conductor {n} breaks e f g = {d}")
    return e, f, g


def root_of_unity(n: int, p: int) -> int:
    """The element c^((p-1)/n) of multiplicative order exactly n modulo a
    prime p = 1 mod n, for the least c >= 1 that gives one (1 for n = 1).

    F_p^x is cyclic of order p - 1, a multiple of n, so h = c^((p-1)/n) has
    order dividing n, and exactly n unless h^(n/q) = 1 for some prime q | n.
    """
    primes = list(factor_integer(n))
    for c in range(1, p):
        h = pow(c, (p - 1) // n, p)
        if all(pow(h, n // q, p) != 1 for q in primes):
            return h
    raise ValueError(f"no element of order {n} modulo {p}")


@lru_cache(maxsize=None)
def _group_exponent_multiple(modulus: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Carmichael lambda of modulus (any multiple of the exponent works) and its factorization."""
    lam = 1
    for p, e in factor_integer(modulus).items():
        if p == 2 and e >= 3:
            piece = 1 << (e - 2)
        else:
            piece = (p - 1) * p ** (e - 1)
        lam = lam * piece // math.gcd(lam, piece)
    return lam, tuple(factor_integer(lam).items())


def integer_kth_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 0, k >= 1, exactly."""
    if m < 0 or k < 1:
        raise ValueError("integer_kth_root needs m >= 0 and k >= 1")
    if m < 2 or k == 1:
        return m
    # Integer Newton steps from 2^ceil(b/k) > m^(1/k), b the bit length of
    # m, decrease strictly until they reach the floor of the root.
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


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


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0
