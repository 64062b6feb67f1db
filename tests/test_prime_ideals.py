import math
import random
import time

import numpy as np
import pytest
from _oracles import (
    degree_one_primes,
    equal_degree_split,
    euler_phi,
    is_irreducible,
    is_kfree_bruteforce,
    is_kfree_by_valuations,
    norm_by_resultant,
    norm_valuation_profile,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofree import arith, gfpoly, kfree
from cyclofree.arith import (
    FACTOR_LIMIT,
    FactorBudgetError,
    ResourceCapError,
    factor_integer,
    integer_kth_root,
    is_prime,
    multiplicative_order,
    prime_shape,
    primes_up_to,
)
from cyclofree.cyclotomic import (
    CycInt,
    cyclotomic_polynomial,
    norm_array,
    ring_degree,
)
from cyclofree.lattices import ideal_lattice
from cyclofree.symmetries import unit_generators
from cyclofree.prime_ideals import (
    PrimeIdeal,
    enumerate_prime_ideals,
    is_in_Wk,
    is_kfree,
    kfree_mask,
    ramified_primes,
    split_prime,
    splitting_type,
    valuation,
)

CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 15, 16]


class TestIntegerArithmetic:
    def test_small_primality(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 2**31 - 1}
        for p in primes:
            assert is_prime(p)
        for c in (0, 1, 4, 9, 91, 561, 2**31):
            assert not is_prime(c)

    def test_pseudoprime_table_is_checked_not_trusted(self):
        # psi_j, the least strong pseudoprime to the first j prime bases, is
        # composite and passes each of those bases; below psi_13, is_prime
        # must refuse it.  psi_13's factors lie past rho's step budget.
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        known = {3317044064679887385961981: 1287836182261}
        for j, psi in enumerate(arith._PSI, start=1):
            divisor = known.get(psi) or min(factor_integer(psi))
            assert 1 < divisor < psi and psi % divisor == 0, j
            d, s = psi - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            for a in bases[:j]:
                x = pow(a, d, psi)
                assert x in (1, psi - 1) or any(pow(x, 2**i, psi) == psi - 1 for i in range(1, s)), (j, a)
            assert is_prime(psi) == (j == 13), j

    def test_twelve_base_pseudoprime_factors(self):
        assert factor_integer(318665857834031151167461) == {399165290221: 1, 798330580441: 1}

    def test_primality_agrees_with_the_sieve_below_a_million(self):
        primes = set(primes_up_to(10**6))
        assert {m for m in range(10**6) if is_prime(m)} == primes

    def test_factor_matches_product(self):
        rng = random.Random(0)
        for _ in range(40):
            m = rng.randrange(2, 10**12)
            factors = factor_integer(m)
            assert math.prod(p**e for p, e in factors.items()) == m
            assert all(is_prime(p) for p in factors)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=2**64))
    def test_factorisation_multiplies_back(self, m):
        factors = factor_integer(m)
        assert math.prod(p**e for p, e in factors.items()) == m
        assert all(is_prime(p) for p in factors)

    def test_trial_division_proves_the_cofactor_prime(self, monkeypatch):
        # 221 = 13 * 17: once 17 < 17^2 is left, no Miller-Rabin is needed.
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda m: calls.append(m) or is_prime(m))
        assert factor_integer(13 * 17) == {13: 1, 17: 1}
        assert factor_integer(2**3 * 99_991) == {2: 3, 99_991: 1}
        assert calls == []
        # Past the trial bound the cofactor still goes through is_prime.
        assert factor_integer(1_000_000_007 * 999_999_937) == {999_999_937: 1, 1_000_000_007: 1}
        assert calls

    def test_large_semiprime(self):
        p, q = 1_000_000_007, 999_999_937
        assert factor_integer(p * q) == {q: 1, p: 1}

    def test_factor_limit_guard(self):
        with pytest.raises(ValueError, match="2\\^128"):
            factor_integer(FACTOR_LIMIT)

    def test_rho_stops_at_its_step_budget(self, monkeypatch):
        # rho takes about 2 * 10^5 steps to split this product of two 34-bit primes
        p, q = 15_032_385_569, 16_106_139_713
        assert factor_integer(p * q) == {p: 1, q: 1}
        monkeypatch.setattr(arith, "RHO_STEP_BUDGET", 10**4)
        with pytest.raises(FactorBudgetError, match="steps"):
            factor_integer(p * q)
        assert issubclass(FactorBudgetError, ResourceCapError)

    def test_balanced_120_bit_semiprime_is_refused_within_seconds(self):
        p, q = 1_008_806_316_530_991_113, 1_080_863_910_568_931_389
        start = time.perf_counter()
        with pytest.raises(FactorBudgetError):
            factor_integer(p * q)
        assert time.perf_counter() - start < 5

    def test_kth_root(self):
        assert integer_kth_root(624, 4) == 4
        assert integer_kth_root(625, 4) == 5
        assert integer_kth_root(10**18, 2) == 10**9

    def test_kth_root_beyond_the_float_range(self):
        m = 10**400
        for k in range(2, 8):
            r = integer_kth_root(m, k)
            assert r**k <= m < (r + 1) ** k, k

    def test_multiplicative_order(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(6, 169) == 156
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    def test_primes_up_to(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1) == []

    def test_primes_up_to_matches_trial_division(self):
        def trial_division(bound):
            return [m for m in range(2, bound + 1) if all(m % p for p in range(2, math.isqrt(m) + 1))]

        small = trial_division(3000)
        for bound in range(3001):
            assert primes_up_to(bound) == [p for p in small if p <= bound], bound
        large = trial_division(99992)
        assert large[-1] == 99991
        assert primes_up_to(99991) == large
        assert primes_up_to(99992) == large

    def test_prime_bound_above_the_limit_is_refused(self, monkeypatch):
        # The limit is lowered so that no bound here could allocate much
        # if the refusal were missing.
        monkeypatch.setattr(arith, "PRIME_BOUND_LIMIT", 100)
        assert primes_up_to(100)[-1] == 97
        with pytest.raises(arith.ResourceCapError):
            primes_up_to(101)

    def test_ideals_beyond_the_prime_limit_are_refused(self):
        # isqrt(41^20) = 41^10 is far beyond the limit: a byte sieve that
        # size cannot be allocated, so a missing refusal is a MemoryError.
        assert kfree.ResourceCapError is arith.ResourceCapError
        assert math.isqrt(kfree.norm_bound(41, 1)) > arith.PRIME_BOUND_LIMIT
        with pytest.raises(arith.ResourceCapError):
            list(enumerate_prime_ideals(41, math.isqrt(kfree.norm_bound(41, 1))))


class TestSplitting:
    def test_five_splits_in_gaussians(self):
        ideals = split_prime(5, 4)
        assert len(ideals) == 2
        assert all(P.e == 1 and P.f == 1 and P.norm == 5 for P in ideals)

    def test_two_ramifies_in_gaussians(self):
        (P,) = split_prime(2, 4)
        assert (P.e, P.f, P.norm) == (2, 1, 2)
        assert P.g_poly == (1, 1)

    def test_thirteen_splits_completely_mod_twelve(self):
        ideals = split_prime(13, 12)
        assert len(ideals) == euler_phi(12) == 4
        assert all(P.norm == 13 for P in ideals)

    def test_splitting_degrees_sum_to_field_degree(self):
        for n in CONDUCTORS:
            d = ring_degree(n)
            for ell in primes_up_to(100):
                ideals = split_prime(ell, n)
                assert sum(P.e * P.f for P in ideals) == d
                assert math.prod(P.norm**P.e for P in ideals) == ell**d

    def test_ramified_exactly_at_divisors(self):
        for n in CONDUCTORS:
            for ell in primes_up_to(60):
                e, _, _ = splitting_type(ell, n)
                assert (e > 1) == (n % ell == 0)
        assert ramified_primes(12) == [2, 3]

    def test_residue_table_covers_every_prime(self):
        # One formula answers every prime, ramified or not, ell = n among them.
        primes = primes_up_to(10**4)
        for n in range(3, 121):
            if n % 4 == 2:
                continue
            d = euler_phi(n)
            for ell in primes:
                e, f, g = prime_shape(ell, n)
                assert e * f * g == d, (n, ell)
                assert (e > 1) == (n % ell == 0), (n, ell)
        assert prime_shape(10007, 10007) == (10006, 1, 1)

    def test_residue_table_refuses_a_broken_shape(self, monkeypatch):
        # e f g = phi(n) is checked by a raise, which python -O keeps.
        monkeypatch.setattr(arith, "multiplicative_order", lambda a, m: 3)
        with pytest.raises(ArithmeticError, match="breaks e f g"):
            prime_shape(2, 5)

    def test_splitting_type_matches_factorisation_mod_ell(self):
        # The g distinct factors split_prime finds, each monic, irreducible
        # (Rabin's test) and of degree f, multiply back to Phi_n mod ell when
        # each is raised to the e-th power; by unique factorisation that also
        # proves the (e, f, g) of splitting_type.
        visited = set()
        for n in range(3, 61):
            if n % 4 == 2:
                continue
            phi = cyclotomic_polynomial(n)
            for ell in primes_up_to(200):
                e, f, g = splitting_type(ell, n)
                ideals = split_prime(ell, n)
                assert len({P.g_poly for P in ideals}) == len(ideals) == g, (n, ell)
                product = gfpoly.ONE
                for P in ideals:
                    assert (P.e, P.f, len(P.g_poly) - 1, P.g_poly[-1]) == (e, f, f, 1), (n, ell)
                    assert is_irreducible(P.g_poly, ell), (n, ell)
                    for _ in range(e):
                        product = gfpoly.gf_mul(product, P.g_poly, ell)
                assert product == gfpoly.gf_from_int_poly(phi, ell), (n, ell)
                visited.add((ell, n, e > 1, f > 1))
        # ell = 2 and ell = 3 with f > 1 take the trace split with e = 1, so
        # no power; 3 in 33 is ramified with g = 2
        assert {(2, 7, False, True), (2, 31, False, True), (3, 33, True, True)} <= visited

    def test_degree_one_split_matches_equal_degree_split(self):
        # The roots h^r of Phi_n mod ell, read from one h of order n, are
        # the linear factors a random equal-degree split finds.
        for n in range(3, 61):
            if n % 4 == 2:
                continue
            phi = cyclotomic_polynomial(n)
            for ell in degree_one_primes(n, 8):
                ideals = split_prime(ell, n)
                assert all((P.e, P.f) == (1, 1) for P in ideals)
                factors = equal_degree_split(gfpoly.gf_from_int_poly(phi, ell), 1, ell, random.Random(0))
                assert [P.g_poly for P in ideals] == sorted(factors), (n, ell)

    def test_inert_split_matches_equal_degree_split(self):
        # An inert prime (g = 1) has Phi_n mod ell itself as its one
        # factor, which is what an equal-degree split returns unsplit.
        cases = 0
        for n in range(3, 61):
            if n % 4 == 2:
                continue
            phi = cyclotomic_polynomial(n)
            for ell in primes_up_to(200):
                if n % ell == 0 or multiplicative_order(ell, n) != euler_phi(n):
                    continue
                base = gfpoly.gf_from_int_poly(phi, ell)
                factors = equal_degree_split(base, euler_phi(n), ell, random.Random(0))
                assert [P.g_poly for P in split_prime(ell, n)] == factors, (n, ell)
                cases += 1
        assert cases > 100

    def test_trace_split_matches_equal_degree_split(self):
        # Where f > 1 and g > 1 the deterministic trace split of Phi_m mod
        # ell finds the factors the randomized equal-degree split finds.
        visited = set()
        for n in range(3, 41):
            if n % 4 == 2:
                continue
            for ell in primes_up_to(50):
                _, f, g = splitting_type(ell, n)
                if f == 1 or g == 1:
                    continue
                _, m = arith.prime_power_part(ell, n)
                base = gfpoly.gf_from_int_poly(cyclotomic_polynomial(m), ell)
                factors = sorted(equal_degree_split(base, f, ell, random.Random(0)))
                assert [P.g_poly for P in split_prime(ell, n)] == factors, (n, ell)
                visited.add(ell)
        assert {2, 3, 5, 47} <= visited

    def test_degree_one_split_needs_no_equal_degree_split(self, monkeypatch):
        # With n = ell^a m, a prime of residue degree 1 splits by one root of
        # unity of order m mod ell, ramified or not (m = 1 at n = 2^a).
        def refuse(*args):
            raise AssertionError("cyclotomic_factors called for f = 1")

        monkeypatch.setattr(gfpoly, "cyclotomic_factors", refuse)
        split_prime.cache_clear()
        expected = {
            (7, 21): [(3, 1), (5, 1)],
            (5, 20): [(2, 1), (3, 1)],
            (13, 52): [(5, 1), (8, 1)],
            (3, 9): [(2, 1)],
            (2, 8): [(1, 1)],
            (2, 4): [(1, 1)],
        }
        for (ell, n), g_polys in expected.items():
            ideals = split_prime(ell, n)
            assert all(P.e > 1 and P.f == 1 for P in ideals), (ell, n)
            assert [P.g_poly for P in ideals] == g_polys, (ell, n)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            split_prime(6, 4)

    def test_ramified_prime_with_two_distinct_ideals(self):
        # 3 ramifies in conductor 33 yet still splits into two distinct
        # ideals: e = 2, f = ord(3 mod 11) = 5, g = 2
        ideals = split_prime(3, 33)
        assert len(ideals) == 2
        assert all(P.e == 2 and P.f == 5 for P in ideals)
        assert len({P.g_poly for P in ideals}) == 2

    def test_residue_data_is_read_from_the_defining_data(self):
        # e and f are not arguments: f is deg g_poly and e = phi(ell^a).
        P = PrimeIdeal(3, 36, (1, 0, 1))  # (3, zeta^2 + 1), 36 = 3^2 * 4
        assert P == split_prime(3, 36)[0]
        assert (P.e, P.f, P.norm) == (6, 2, 9)
        with pytest.raises(TypeError):
            PrimeIdeal(5, 4, 1, 1, (2, 1))

    @pytest.mark.parametrize("ell", [-1, 0, 1])
    def test_ell_below_two_is_refused(self, ell):
        # ell = 1 divides every n, so stripping its powers never ended.
        with pytest.raises(ValueError, match="ell must be >= 2"):
            arith.prime_power_part(ell, 4)
        with pytest.raises(ValueError, match="ell must be >= 2"):
            PrimeIdeal(ell, 4, (0, 1)).e

    def test_generators_lie_in_the_ideal(self):
        # g(zeta) must reduce to 0 modulo the ideal: its norm is divisible by ell
        for ell, n in ((5, 4), (13, 12), (7, 9)):
            for P in split_prime(ell, n):
                g_elem = CycInt.from_polynomial(n, P.g_poly)
                assert g_elem.norm() % ell == 0

    def test_derived_residue_data_and_power_indices(self):
        # Conductors n <= 40 and primes ell <= 100; the same checks up to
        # n = 80 take about a minute, most of it in equal-degree splits and HNFs.
        for n in range(3, 41):
            if n % 4 == 2:
                continue
            for ell in primes_up_to(100):
                for P in split_prime(ell, n):
                    assert (P.e, P.f) == splitting_type(ell, n)[:2], (n, ell)
                    for m in (1, 2):
                        assert ideal_lattice(P, m).index == P.norm**m, (n, ell, m)


class TestValuation:
    def test_unit_has_valuation_zero(self):
        one = CycInt.one(4)
        for P in split_prime(2, 4) + split_prime(5, 4):
            assert valuation(one, P) == 0

    def test_one_plus_i(self):
        (P,) = split_prime(2, 4)
        assert valuation(CycInt(4, (1, 1)), P) == 1

    def test_two_has_valuation_two_at_ramified_prime(self):
        (P,) = split_prime(2, 4)
        assert valuation(CycInt.from_int(4, 2), P) == 2

    def test_zero_rejected(self):
        (P,) = split_prime(2, 4)
        with pytest.raises(ValueError):
            valuation(CycInt.zero(4), P)

    def test_additivity_on_products(self):
        rng = random.Random(6)
        for n in (4, 5, 12):
            d = ring_degree(n)
            ideals = split_prime(2, n) + split_prime(5, n)
            for _ in range(10):
                x = CycInt(n, tuple(rng.randrange(-5, 6) for _ in range(d)))
                y = CycInt(n, tuple(rng.randrange(-5, 6) for _ in range(d)))
                if not x or not y:
                    continue
                for P in ideals:
                    assert valuation(x * y, P) == valuation(x, P) + valuation(y, P)

    def test_ultrametric_inequality(self):
        rng = random.Random(13)
        n = 4
        ideals = split_prime(2, n) + split_prime(5, n)
        for _ in range(40):
            x = CycInt(n, (rng.randrange(-9, 10), rng.randrange(-9, 10)))
            y = CycInt(n, (rng.randrange(-9, 10), rng.randrange(-9, 10)))
            if not x or not y or not (x + y):
                continue
            for P in ideals:
                vx, vy, vs = valuation(x, P), valuation(y, P), valuation(x + y, P)
                assert vs >= min(vx, vy)
                if vx != vy:
                    assert vs == min(vx, vy)

    def test_valuations_reproduce_norm_factorization(self):
        rng = random.Random(17)
        for n in (4, 5, 12):
            d = ring_degree(n)
            for _ in range(8):
                x = CycInt(n, tuple(rng.randrange(-6, 7) for _ in range(d)))
                if not x:
                    continue
                profile = norm_valuation_profile(x)
                assert profile == factor_integer(abs(x.norm())) or (
                    abs(x.norm()) == 1 and profile == {}
                )


MASK_CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21]


@st.composite
def element_rows(draw):
    """(n, k, elements): small elements, zero rows, and a few elements
    blown up by a power of a unit of infinite order (of 2 where the units
    are finite), large enough that norm_array works in Python ints."""
    n = draw(st.sampled_from(MASK_CONDUCTORS))
    k = draw(st.sampled_from([2, 3]))
    d = ring_degree(n)
    coords = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    xs = [CycInt(n, tuple(c)) for c in draw(st.lists(coords, min_size=1, max_size=10))]
    xs += [CycInt.zero(n)] * draw(st.integers(0, 2))
    units = unit_generators(n)[2:]
    scale = units[0] if units else CycInt.from_int(n, 2)
    for i in range(draw(st.integers(0, min(2, len(xs))))):
        for _ in range(draw(st.integers(20, 40))):
            xs[i] = xs[i] * scale
    return n, k, draw(st.permutations(xs))


class TestKFree:
    @settings(max_examples=40, deadline=None)
    @given(element_rows())
    def test_mask_matches_valuation_oracle(self, case):
        n, k, xs = case
        rows = np.array([x.coeffs for x in xs], dtype=object)
        assert kfree_mask(rows, n, k).tolist() == [is_kfree_by_valuations(x, k) for x in xs]

    @settings(max_examples=40, deadline=None)
    @given(element_rows())
    def test_norm_array_matches_resultant(self, case):
        n, _, xs = case
        rows = np.array([x.coeffs for x in xs], dtype=object)
        assert [int(v) for v in norm_array(n, rows)] == [norm_by_resultant(n, x.coeffs) for x in xs]

    def test_norm_array_across_the_word_size(self):
        # Coefficients of 1 to 40 bits put the norms on both sides of 2^63,
        # where norm_array returns Python ints in place of int64.
        for n in (5, 12, 13):
            rng = random.Random(n)
            d = ring_degree(n)
            xs = [
                CycInt(n, tuple(rng.randint(-(1 << b), 1 << b) for _ in range(d)))
                for b in range(1, 41)
            ]
            rows = np.array([x.coeffs for x in xs], dtype=object)
            got = [int(norm_array(n, rows[i : i + 1])[0]) for i in range(len(xs))]
            assert got == [norm_by_resultant(n, x.coeffs) for x in xs], n

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([31, 101]), st.data())
    def test_norm_array_over_several_primes(self, n, data):
        # Entries up to 2^60 put norms of up to about 6,000 bits together
        # from up to about 200 word-size primes, with zero rows among them.
        d = ring_degree(n)
        coords = st.lists(st.integers(-(1 << 60), 1 << 60), min_size=d, max_size=d)
        rows = data.draw(st.lists(coords, min_size=1, max_size=2))
        rows += [[0] * d] * data.draw(st.integers(0, 1))
        rows = data.draw(st.permutations(rows))
        got = norm_array(n, np.array(rows, dtype=object))
        assert [int(v) for v in got] == [norm_by_resultant(n, row) for row in rows]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 4, 5, 12, 13]), st.data())
    def test_norm_array_mixes_small_and_huge_rows(self, n, data):
        # Small rows, zero rows and rows with entries up to 10^30 share one
        # batch, in any order; the batch is evaluated up to its largest ceiling.
        d = ring_degree(n)
        small = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
        huge = st.lists(st.integers(-(10**30), 10**30), min_size=d, max_size=d)
        rows = data.draw(st.lists(small, min_size=1, max_size=20))
        rows += data.draw(st.lists(huge, min_size=1, max_size=3))
        rows = data.draw(st.permutations(rows))
        got = norm_array(n, np.array(rows, dtype=object))
        assert [int(v) for v in got] == [norm_by_resultant(n, row) for row in rows]

    def test_mask_and_norms_at_degree_ten_and_more(self):
        # Small rows need few primes and come out in int64, powers of a unit
        # need many and Python ints; a batch takes the dtype of its largest row.
        for n in (11, 13, 25):
            rng = random.Random(n)
            d = ring_degree(n)
            xs = [CycInt(n, tuple(rng.randint(-3, 3) for _ in range(d))) for _ in range(8)]
            unit = CycInt.one(n)
            for g in unit_generators(n)[2:]:
                unit = unit * g
            power = unit
            for j in range(2, 15):
                power = power * unit
                if j % 3 == 0:
                    xs += [power, power * xs[j % 8]]
            xs += [unit, CycInt.zero(n)]
            rows = np.array([x.coeffs for x in xs], dtype=object)
            norms = [norm_by_resultant(n, x.coeffs) for x in xs]
            assert [int(v) for v in norm_array(n, rows)] == norms, n
            # One row at a time, each row's own bound picks the dtype.
            assert [int(norm_array(n, rows[i : i + 1])[0]) for i in range(len(xs))] == norms, n
            for k in (2, 3):
                assert kfree_mask(rows, n, k).tolist() == [
                    is_kfree_by_valuations(x, k) for x in xs
                ], (n, k)

    def test_units_are_kfree_for_all_k(self):
        for n in (4, 5, 12):
            for k in (2, 3, 7):
                assert is_kfree(CycInt.root(n), k)
                assert is_kfree(-CycInt.one(n), k)

    def test_four_in_gaussians(self):
        four = CycInt.from_int(4, 4)
        assert not is_kfree(four, 2)
        assert not is_kfree(four, 4)
        assert is_kfree(four, 5)

    def test_zero_is_never_kfree(self):
        assert not is_kfree(CycInt.zero(4), 2)

    def test_agrees_with_bruteforce_oracle(self):
        rng = random.Random(23)
        for n in (3, 4, 5):
            d = ring_degree(n)
            for _ in range(25):
                x = CycInt(n, tuple(rng.randrange(-4, 5) for _ in range(d)))
                if not x:
                    continue
                for k in (2, 3):
                    assert is_kfree(x, k) == is_kfree_bruteforce(x, k)

    def test_square_beyond_int64_in_an_int64_row(self):
        # pi = 75497 + 53760i has norm p = 8589934609, the least prime = 1
        # mod 4 above 2^33, so the lattice of P^2 has index p^2 > 2^63.
        square = (2809659409, 8117437440)  # pi^2
        assert kfree_mask(np.array([square], dtype=np.int64), 4, 2).tolist() == [False]
        assert not is_kfree(CycInt(4, square), 2)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_kfree(CycInt.one(4), 1)


class TestWk:
    def test_roots_of_unity_are_members(self):
        for n in (4, 5, 12):
            for t in range(n):
                assert is_in_Wk(CycInt.root(n, t), 2)

    def test_one_plus_i_is_member(self):
        assert is_in_Wk(CycInt(4, (1, 1)), 2)

    def test_norm_five_element_is_not(self):
        assert not is_in_Wk(CycInt(4, (1, 2)), 2)

    def test_ramified_square_is_not(self):
        assert not is_in_Wk(CycInt.from_int(4, 2), 2)  # (2) = P^2 fails 2-freeness


class TestEnumeration:
    def test_gaussian_ideals_up_to_five(self):
        norms = [P.norm for P in enumerate_prime_ideals(4, 5)]
        assert norms == [2, 5, 5]

    def test_bound_one_is_empty(self):
        assert list(enumerate_prime_ideals(4, 1)) == []

    def test_count_matches_independent_splitting_sum(self):
        # independent path: for each rational prime, add phi(n)/(e f) when
        # ell^f clears the bound, using only the (e, f, g) splitting data
        for n in (4, 5, 12):
            enumerated = sum(1 for _ in enumerate_prime_ideals(n, 100))
            expected = 0
            for ell in primes_up_to(100):
                e, f, g = splitting_type(ell, n)
                if ell**f <= 100:
                    expected += g
            assert enumerated == expected

    @pytest.mark.parametrize("n", (3, 4, 5, 7, 8, 12, 15, 16, 20, 21))
    def test_equals_a_scan_of_every_prime(self, n):
        # At bound 10, 5 in conductor 20 and 7 in 21 divide n, have f = 1 and
        # ell^2 > 10, and 7 = 1 mod 3.
        for bound in (1, 2, 10, 100, 10**4):
            scan = [
                P for ell in primes_up_to(bound) if ell ** splitting_type(ell, n)[1] <= bound
                for P in split_prime(ell, n)
            ]
            assert list(enumerate_prime_ideals(n, bound)) == sorted(scan, key=PrimeIdeal.sort_key)

    def test_only_primes_that_can_fit_are_asked_their_shape(self):
        # An ideal of norm <= B above ell needs ell^2 <= B, ell | n or ell = 1 mod n.
        bound = 10**5
        splitting_type.cache_clear()
        list(enumerate_prime_ideals(5, bound))
        small = len(primes_up_to(math.isqrt(bound)))
        split = sum(1 for ell in primes_up_to(bound) if ell % 5 == 1)
        assert splitting_type.cache_info().currsize <= small + split + 1

    def test_sorted_by_norm_then_prime(self):
        ideals = list(enumerate_prime_ideals(12, 200))
        keys = [(P.norm, P.ell, P.g_poly) for P in ideals]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
