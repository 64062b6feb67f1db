import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from _oracles import euler_phi, poly_divmod_monic, poly_mul, poly_trim, powers_by_division, resultant
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofree.cyclotomic import (
    CycInt,
    cyclotomic_polynomial,
    ring_degree,
)
from cyclofree import cyclotomic
from cyclofree.arith import ConductorError, determinant, factor_integer, is_prime

CONDUCTORS = [3, 4, 5, 8, 12]


def random_element(n, rng, span=9):
    d = ring_degree(n)
    return CycInt(n, tuple(rng.randrange(-span, span + 1) for _ in range(d)))


def norm_via_multiplication_matrix(x):
    # independent oracle: the determinant of y -> x*y on the power basis
    d = ring_degree(x.n)
    cols = [(x * CycInt.root(x.n, i)).coeffs for i in range(d)]
    return determinant([[cols[c][r] for c in range(d)] for r in range(d)])


class TestCyclotomicPolynomial:
    def test_first_polynomial_is_x_minus_one(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_fourth_is_x_squared_plus_one(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_twelfth_matches_exact_division(self):
        # (x^12 - 1) / (Phi_1 Phi_2 Phi_3 Phi_4 Phi_6) with the classical
        # low-order polynomials written out by hand
        classical = {
            1: (-1, 1),
            2: (1, 1),
            3: (1, 1, 1),
            4: (1, 0, 1),
            6: (1, -1, 1),
        }
        product = (1,)
        for poly in classical.values():
            product = poly_mul(product, poly)
        x12 = (-1,) + (0,) * 11 + (1,)
        quotient, remainder = poly_divmod_monic(x12, product)
        assert remainder == ()
        assert quotient == (1, 0, -1, 0, 1)
        assert cyclotomic_polynomial(12) == quotient

    def test_degree_is_totient(self):
        for n in range(1, 61):
            assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)

    def test_product_over_divisors_is_x_pow_n_minus_one(self):
        # 105 and 210 have three odd prime factors, so Phi_n divides out
        # several factors x^(n/s) - 1 with mu(s) = -1
        for n in list(range(1, 61)) + [105, 210]:
            product = (1,)
            for m in range(1, n + 1):
                if n % m == 0:
                    product = poly_mul(product, cyclotomic_polynomial(m))
            assert product == (-1,) + (0,) * (n - 1) + (1,), n

    def test_phi_105_has_coefficients_minus_two(self):
        # the least n with a coefficient of Phi_n outside {-1, 0, 1}
        phi = cyclotomic_polynomial(105)
        assert len(phi) - 1 == 48
        assert {i: c for i, c in enumerate(phi) if abs(c) > 1} == {7: -2, 41: -2}
        assert all(abs(c) <= 1 for n in range(1, 105) for c in cyclotomic_polynomial(n))

    def test_ring_degree_is_the_degree_of_phi(self):
        # ring_degree reads phi(n) off the factorization of n; __wrapped__
        # keeps these polynomials out of the cache
        for n in range(3, 2001):
            if n % 4 != 2:
                assert ring_degree(n) == len(cyclotomic_polynomial.__wrapped__(n)) - 1, n

    def test_ring_degree_memory_is_linear_in_n(self):
        # Only Phi_n is kept, O(n) integers; a table of zeta^t mod Phi_n for
        # every t < n would hold n phi(n) of them, about 125 MB at n = 4001.
        script = (
            "import tracemalloc\n"
            "from cyclofree.cyclotomic import ring_degree\n"
            "tracemalloc.start()\n"
            "assert ring_degree(4001) == 4000\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 8 << 20


class TestReduction:
    def test_zeta4_fourth_power_is_one(self):
        assert CycInt.from_polynomial(4, (0, 0, 0, 0, 1)).coeffs == (1, 0)

    def test_zeta4_square_is_minus_one(self):
        assert CycInt.from_polynomial(4, (0, 0, 1)).coeffs == (-1, 0)

    def test_degree_three_in_conductor_five_untouched(self):
        got = CycInt.from_polynomial(5, (1, 1, 1, 1))
        assert got.coeffs == (1, 1, 1, 1)
        # and the defining relation: Phi_5(zeta_5) reduces to 0
        assert not CycInt.from_polynomial(5, cyclotomic_polynomial(5))

    def test_minus_fourth_power_matches(self):
        # -zeta_5^4 = 1 + zeta + zeta^2 + zeta^3
        assert (-CycInt.root(5, 4)).coeffs == (1, 1, 1, 1)

    def test_reductions_match_division_by_phi(self):
        """from_polynomial, products and Galois images share one reduction
        of exponents >= d; division by Phi_n is the reference."""
        rng = random.Random(5)

        def by_division(n, coeffs):
            _, rem = poly_divmod_monic(coeffs, cyclotomic_polynomial(n))
            return CycInt(n, rem + (0,) * (ring_degree(n) - len(rem)))

        for n in CONDUCTORS + [15, 16, 21]:
            poly = [rng.randrange(-9, 10) for _ in range(3 * n)]
            assert CycInt.from_polynomial(n, poly) == by_division(n, poly)
            x, y = random_element(n, rng), random_element(n, rng)
            assert x * y == by_division(n, poly_mul(x.coeffs, y.coeffs))
            for r in (r for r in range(1, n) if math.gcd(r, n) == 1):
                raw = [0] * (r * len(x.coeffs))
                for i, c in enumerate(x.coeffs):
                    raw[i * r] += c
                assert x.galois(r) == by_division(n, raw), (n, r)

    def test_power_table_matches_division(self):
        for n in range(3, 121):
            if n % 4 != 2:
                table = tuple(CycInt.root(n, t).coeffs for t in range(n))
                assert table == powers_by_division(n), n


class TestRingOperations:
    def test_one_times_root(self):
        assert CycInt.one(4) * CycInt.root(4) == CycInt.root(4)

    def test_root_squared_is_minus_one(self):
        assert CycInt.root(4) * CycInt.root(4) == CycInt.from_int(4, -1)

    def test_norm_two_product(self):
        a = CycInt(4, (1, 1))
        b = CycInt(4, (1, -1))
        assert (a * b) == CycInt.from_int(4, 2)

    def test_conductor_mismatch_rejected(self):
        with pytest.raises(ValueError, match="conductor"):
            CycInt.one(4) + CycInt.one(5)

    def test_ring_laws_on_random_triples(self):
        rng = random.Random(7)
        for n in CONDUCTORS:
            for _ in range(15):
                a, b, c = (random_element(n, rng) for _ in range(3))
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


class TestGalois:
    def test_identity_automorphism(self):
        rng = random.Random(3)
        for n in CONDUCTORS:
            x = random_element(n, rng)
            assert x.galois(1) == x

    def test_conductor_four_sends_root_to_its_negative(self):
        assert CycInt.root(4).galois(3) == -CycInt.root(4)

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            CycInt.root(4).galois(2)

    def test_composition_is_group_law_mod_twelve(self):
        rng = random.Random(5)
        x = random_element(12, rng)
        units = [r for r in range(1, 12) if r % 2 and r % 3]
        for r in units:
            for s in units:
                assert x.galois(r).galois(s) == x.galois((r * s) % 12)

    def test_ring_homomorphism_and_norm_preservation(self):
        rng = random.Random(11)
        for n in CONDUCTORS:
            for r in range(2, n):
                if euler_phi(n) < 2 or math.gcd(r, n) != 1:
                    continue
                a, b = random_element(n, rng), random_element(n, rng)
                assert (a + b).galois(r) == a.galois(r) + b.galois(r)
                assert (a * b).galois(r) == a.galois(r) * b.galois(r)
                assert a.galois(r).norm() == a.norm()


class TestNorm:
    def test_norm_of_one(self):
        for n in CONDUCTORS:
            assert CycInt.one(n).norm() == 1

    def test_norm_of_one_plus_i(self):
        assert CycInt(4, (1, 1)).norm() == 2
        assert resultant((1, 0, 1), (1, 1)) == 2

    def test_norm_of_zero(self):
        assert CycInt.zero(4).norm() == 0

    def test_multiplicative_on_hundred_pairs(self):
        rng = random.Random(1)
        pairs = 0
        while pairs < 100:
            n = rng.choice(CONDUCTORS)
            a, b = random_element(n, rng), random_element(n, rng)
            assert (a * b).norm() == a.norm() * b.norm()
            pairs += 1

    def test_resultant_agrees_with_multiplication_matrix(self):
        rng = random.Random(2)
        for n in CONDUCTORS:
            for _ in range(25):
                x = random_element(n, rng, span=30)
                assert x.norm() == norm_via_multiplication_matrix(x)

    def test_roots_of_unity_are_units(self):
        for n in CONDUCTORS:
            for t in range(n):
                assert abs(CycInt.root(n, t).norm()) == 1
                assert abs((-CycInt.root(n, t)).norm()) == 1

    def test_one_minus_root_is_unit_for_composite_conductors(self):
        for n in (12, 15, 20, 60):
            u = CycInt.one(n) - CycInt.root(n)
            assert abs(u.norm()) == 1

    def test_one_minus_root_is_not_unit_for_prime_powers(self):
        for n, p in ((5, 5), (8, 2), (9, 3)):
            u = CycInt.one(n) - CycInt.root(n)
            assert abs(u.norm()) == p

    def test_evaluation_primes(self):
        # Distinct primes p = 1 mod n, counting down, small enough that a sum
        # of d products of residues fits in int64, each with h of order n.
        for n in (3, 12, 31, 257):
            d = ring_degree(n)
            found = [cyclotomic._evaluation_prime(n, i) for i in range(4)]
            ps = [p for p, _ in found]
            assert ps == sorted(set(ps), reverse=True)
            for p, powers in found:
                assert is_prime(p) and p % n == 1 and d * (p - 1) ** 2 < 1 << 63
                h = int(powers[1])
                assert powers.tolist() == [pow(h, t, p) for t in range(n)]
                assert pow(h, n, p) == 1
                assert all(pow(h, n // q, p) != 1 for q in factor_integer(n))

    def test_running_out_of_primes_raises(self, monkeypatch):
        # Below a word bound of 2^20 only the 60 primes p = 1 mod 3 under 724
        # remain, about 470 bits: a 400-bit norm is still joined exactly, and
        # a row whose ceiling needs more raises instead of returning a residue.
        monkeypatch.setattr(cyclotomic, "_WORD_BOUND", 1 << 20)
        cyclotomic._evaluation_prime.cache_clear()
        try:
            x = CycInt(3, (3**120 + 5, -(7**70)))
            assert x.norm() == resultant(cyclotomic_polynomial(3), x.coeffs)
            with pytest.raises(ArithmeticError):
                CycInt(3, (1 << 240, 1)).norm()
        finally:
            cyclotomic._evaluation_prime.cache_clear()


class TestResultantAgainstSylvester:
    @staticmethod
    def sylvester_resultant(a, b):
        da, db = len(a) - 1, len(b) - 1
        if da < 0 or db < 0:
            return 0
        size = da + db
        if size == 0:
            return 1
        rows = []
        ra = list(reversed(a))
        rb = list(reversed(b))
        for i in range(db):
            rows.append([0] * i + ra + [0] * (size - da - 1 - i))
        for i in range(da):
            rows.append([0] * i + rb + [0] * (size - db - 1 - i))
        return determinant(rows)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sylvester_determinant(self, ca, cb):
        a, b = poly_trim(ca), poly_trim(cb)
        assert resultant(a, b) == self.sylvester_resultant(a, b)


class TestEmbedding:
    def test_zero_embeds_to_zero_vector(self):
        assert CycInt.zero(5).coeffs == (0, 0, 0, 0)

    def test_basis_vector(self):
        assert CycInt.root(5, 2).coeffs == (0, 0, 1, 0)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_additivity_and_roundtrip(self, a, b, c, d):
        x = CycInt(5, (a, b, c, d))
        y = CycInt(5, (d, c, b, a))
        assert CycInt(5, x.coeffs) == x
        assert tuple(u + v for u, v in zip(x.coeffs, y.coeffs)) == (x + y).coeffs

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CycInt(5, (1, 2, 3))


class TestConductorConvention:
    def test_small_values_rejected(self):
        for bad in (0, 1, 2):
            with pytest.raises(ConductorError):
                CycInt.one(bad)

    def test_two_mod_four_points_to_odd_conductor(self):
        with pytest.raises(ConductorError, match="conductor 3"):
            CycInt.one(6)
        with pytest.raises(ConductorError, match="conductor 5"):
            CycInt.one(10)
