"""Certificates behind the symmetry classification, in exact arithmetic.

The splitting prime sets S_m (primes ell = 1 mod m), the least integer a_q
with the three order and divisibility properties (H1) (H2) (H3), the
factor checks on zeta_m^j - a_q^(n/m) (2-free, outside W_2, every prime
factor splitting completely mod m), and the exhaustive search for
vanishing four-term sums of roots of unity.

None of this acts on point sets, so the module imports neither the sieve
(kfree) nor the stabiliser code (symmetries), and ``cyclofree aq`` loads
neither.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .arith import (
    FactorBudgetError, ResourceCapError, factor_integer, is_prime, multiplicative_order, primes_up_to,
    validate_conductor,
)
from .cyclotomic import CycInt
from .lattices import ideal_lattice
from .prime_ideals import candidate_ideals


# ---------------------------------------------------------------------------
# splitting primes and the a_q search


def splitting_primes(m: int, bound: int) -> tuple[int, ...]:
    """S_m up to a bound: the primes ell <= bound with ell = 1 mod m
    (complete splitting)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(ell for ell in primes_up_to(bound) if m == 1 or ell % m == 1)


class AqNotFound(ResourceCapError):
    """No a up to the search bound meets (H1), (H2) and the bounded (H3)."""

    label = "search exhausted"


def _h3_moduli(n: int, ell_bound: int, q: int) -> list[int]:
    """The splitting primes consulted by (H3): ell in S_m for some divisor
    m >= 3 of n with m != 2 mod 4, up to the bound, excluding q itself
    (whose condition already follows from (H1)).

    Such an m exists exactly when gcd(ell - 1, n) > 2: every such m divides
    the gcd; conversely an odd prime factor of the gcd is such an m, and a
    gcd with no odd prime factor is a power of 2 above 2, so 4 is one."""
    return [ell for ell in primes_up_to(ell_bound) if ell != q and math.gcd(ell - 1, n) > 2]


def _check_h1(a: int, n: int, q: int) -> bool:
    return math.gcd(a, q) == 1 and multiplicative_order(a, q * q) == n * q


def _meets_h1_h3(a: int, n: int, q: int, h3_primes: list[int]) -> bool:
    """(H1), and (H3) at the given primes: a^n != 1 mod ell^2."""
    return _check_h1(a, n, q) and all(pow(a, n, ell * ell) != 1 for ell in h3_primes)


@dataclass(frozen=True)
class AqCandidate:
    """An integer a with (H1) order nq mod q^2, (H2) divisible by every
    prime factor of n, and (H3) a^n != 1 mod ell^2 verified for the
    splitting primes up to ell_bound."""

    n: int
    q: int
    a: int
    ell_bound: int

    def validate(self) -> bool:
        n, q, a = self.n, self.q, self.a
        h2 = all(a % p == 0 for p in factor_integer(n))
        return h2 and _meets_h1_h3(a, n, q, _h3_moduli(n, self.ell_bound, q))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "q": self.q, "a": self.a, "ell_bound": self.ell_bound},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "AqCandidate":
        data = json.loads(text)
        cand = AqCandidate(
            n=int(data["n"]), q=int(data["q"]), a=int(data["a"]), ell_bound=int(data["ell_bound"])
        )
        if not cand.validate():
            raise ValueError("stored candidate fails its hypotheses")
        return cand


def aq_search(n: int, q: int, ell_bound: int, a_bound: int) -> AqCandidate:
    """Least a <= a_bound satisfying (H1), (H2), and bounded (H3).

    The scan walks multiples of the radical of n in increasing order, so
    the result is the global minimum; raises AqNotFound with the scanned
    range when no candidate exists below the bound.
    """
    validate_conductor(n)
    if not is_prime(q) or q % n != 1:
        raise ValueError(f"q must be a prime splitting completely, q = 1 mod {n}")
    if ell_bound < q:
        raise ValueError("ell_bound must be at least q")
    radical = math.prod(factor_integer(n))
    h3_primes = _h3_moduli(n, ell_bound, q)
    for a in range(radical, a_bound + 1, radical):
        if _meets_h1_h3(a, n, q, h3_primes):
            return AqCandidate(n=n, q=q, a=a, ell_bound=ell_bound)
    raise AqNotFound(f"no candidate for n={n}, q={q} in [1, {a_bound}]")


# ---------------------------------------------------------------------------
# factor checks on zeta_m^j - a^(n/m)


@dataclass(frozen=True)
class LemmaFactorsReport:
    """The checks on y = zeta_m^j - a^(n/m) for a candidate a.  Only what
    was measured is stored: the prime factors of |N(y)|, and whether the
    norm could be factored (complete); y, its norm and each property follow
    from them.  An incomplete report lists no factor and claims no property."""

    n: int
    m: int
    j: int
    a: int
    prime_factors: tuple[int, ...]
    complete: bool

    @cached_property
    def element(self) -> CycInt:
        return CycInt.root(self.m, self.j) - self.a ** (self.n // self.m)

    @cached_property
    def norm(self) -> int:
        return abs(self.element.norm())

    @cached_property
    def two_free(self) -> bool:
        """is_kfree(y, 2) from the factors at hand: y is in P^2 when its coset code is 0."""
        if not self.complete:
            return False
        row = np.array([self.element.coeffs], dtype=object)
        ideals = candidate_ideals(self.norm, self.prime_factors, self.m, 2)
        return all(ideal_lattice(P, 2).coset_codes(row)[0] for P in ideals)

    @property
    def outside_W2(self) -> bool:
        """W_2: 2-free with every prime factor of |N(y)| dividing m."""
        return self.complete and not (self.two_free and all(self.m % ell == 0 for ell in self.prime_factors))

    @property
    def factors_split(self) -> bool:
        return self.complete and all(ell % self.m == 1 for ell in self.prime_factors)

    @property
    def factors_coprime_to_m(self) -> bool:
        return self.complete and all(self.m % ell != 0 for ell in self.prime_factors)

    @property
    def passed(self) -> bool:
        return self.two_free and self.outside_W2 and self.factors_split and self.factors_coprime_to_m


def verify_lemma_factors(candidate: AqCandidate, m: int, j: int) -> LemmaFactorsReport:
    """Exact checks on y = zeta_m^j - a^(n/m) in the ring of conductor m:
    y is 2-free, lies outside W_2, and every rational prime below a
    divisor of y splits completely mod m (in particular none divides m).

    If the norm is past FACTOR_LIMIT or rho runs out of its step budget,
    the report is returned partial instead of wrong.
    """
    if candidate.n % m != 0 or m < 3 or m % 4 == 2:
        raise ValueError("m must be a divisor of n, at least 3, and not 2 mod 4")
    if math.gcd(j, m) != 1:
        raise ValueError("j must be a unit modulo m")
    unfactored = LemmaFactorsReport(candidate.n, m, j, candidate.a, prime_factors=(), complete=False)
    norm = unfactored.norm
    try:
        factors = tuple(sorted(factor_integer(norm)))
    except (ValueError, FactorBudgetError):
        return unfactored
    return replace(unfactored, prime_factors=factors, complete=True)


# ---------------------------------------------------------------------------
# vanishing four-term sums of roots of unity


@dataclass(frozen=True)
class FourSumSolution:
    """A vanishing sum sum_i signs[i] zeta_n^exponents[i] with no vanishing
    proper subsum, normalized to first sign +1 and first exponent 0."""

    signs: tuple[int, int, int, int]
    exponents: tuple[int, int, int, int]  # first is always 0
    reduced_order: int  # n / gcd(n, exponents)

    @property
    def divides_six(self) -> bool:
        return 6 % self.reduced_order == 0


@dataclass
class FourSumsReport:
    """Every vanishing four-term sum of n-th roots of unity found, and
    whether each reduced order divides 6."""

    n: int
    solutions: list[FourSumSolution]

    @property
    def all_divide_six(self) -> bool:
        return all(s.divides_six for s in self.solutions)


# The largest n whose four-term sums vanishing_four_sums enumerates.
FOUR_SUMS_CAP = 120


@lru_cache(maxsize=None)
def _roots_of_order(order: int) -> tuple[CycInt, ...]:
    """zeta_order^t for t = 0..order-1, realized in a valid host conductor."""
    if order <= 2:
        one = CycInt.one(4)
        return (one,) if order == 1 else (one, -one)
    if order % 4 == 2:
        m = order // 2
        half = pow(2, -1, m)
        return tuple(
            CycInt.root(m, (t * half) % m) * (1 if t % 2 == 0 else -1)
            for t in range(order)
        )
    return tuple(CycInt.root(order, t) for t in range(order))


def vanishing_four_sums(n: int) -> FourSumsReport:
    """Exhaustive enumeration of +-1 four-term vanishing sums of n-th roots
    of unity with no vanishing proper subsum, normalized to first exponent
    0 and first sign +1.

    Every survivor's reduced order n/gcd must divide 6; the report records
    the survivors and whether that held.  Coefficients are restricted to
    +-1 (the general statement allows rationals).

    No survivor exists, so that holds vacuously: four unit vectors +-zeta^j
    summing to zero split into two opposite pairs, as the unordered pair of
    unit vectors with a given sum is unique, so every vanishing four-term
    +-1 sum has a vanishing proper subsum (Poonen and Rubinstein, 1998).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FOUR_SUMS_CAP:
        raise ValueError(f"n = {n} exceeds the cap {FOUR_SUMS_CAP}")
    roots = _roots_of_order(n)
    table = np.array([r.coeffs for r in roots], dtype=np.int64)
    d = table.shape[1]
    solutions: list[FourSumSolution] = []
    sign_choices = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    base = table[0]
    jk_j = np.repeat(np.arange(n), n)
    jk_k = np.tile(np.arange(n), n)
    jk_mask = jk_j <= jk_k
    for s1, s2, s3 in sign_choices:
        plane = (s2 * table[jk_j] + s3 * table[jk_k]).reshape(n * n, d)
        for i in range(n):
            total = base + s1 * table[i] + plane
            zero = np.flatnonzero(np.all(total == 0, axis=1) & jk_mask & (jk_j >= i))
            for flat in zero.tolist():
                exps = (0, i, int(jk_j[flat]), int(jk_k[flat]))
                signs = (1, s1, s2, s3)
                # With i <= j <= k, two candidates are one multiset only if
                # they swap opposite signs on an equal exponent, a vanishing
                # pair, so every survivor is listed once.
                if _has_vanishing_subsum(signs, exps, roots):
                    continue
                g = math.gcd(n, math.gcd(math.gcd(exps[1], exps[2]), exps[3]))
                solutions.append(
                    FourSumSolution(signs=signs, exponents=exps, reduced_order=n // g)
                )
    solutions.sort(key=lambda s: (s.exponents, s.signs))
    return FourSumsReport(n=n, solutions=solutions)


def _has_vanishing_subsum(signs, exps, roots) -> bool:
    zero = roots[0] - roots[0]
    for mask in range(1, 15):  # proper nonempty subsets of 4 terms
        acc = zero
        for b in range(4):
            if (mask >> b) & 1:
                acc = acc + signs[b] * roots[exps[b]]
        if not acc:
            return True
    return False
