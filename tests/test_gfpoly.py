import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import equal_degree_split, is_irreducible

from cyclofree import gfpoly


def split(f, d, p, seed=0):
    return equal_degree_split(f, d, p, random.Random(seed))


def random_irreducibles(count, degree, p, rng):
    """count distinct monic irreducibles of one degree over F_p, drawn at
    random and kept when Rabin's test passes."""
    found = set()
    while len(found) < count:
        poly = tuple(rng.randrange(p) for _ in range(degree)) + (1,)
        if is_irreducible(poly, p):
            found.add(poly)
    return sorted(found)


class TestFactorExamples:
    def test_x2_plus_1_mod_5_splits(self):
        assert sorted(split((1, 0, 1), 1, 5)) == [(2, 1), (3, 1)]

    def test_x2_plus_1_mod_3_is_irreducible(self):
        assert split((1, 0, 1), 2, 3) == [(1, 0, 1)]

    def test_phi5_mod_11_has_four_linear_factors_with_order_five_roots(self):
        factors = split((1, 1, 1, 1, 1), 1, 11)
        assert len(factors) == 4
        for c0, c1 in factors:
            assert c1 == 1
            root = (-c0) % 11
            assert pow(root, 5, 11) == 1 and root != 1


class TestFactorProperties:
    @pytest.mark.parametrize("p", [2, 3, 5, 11, 13])
    def test_reconstruction_on_random_inputs(self, p):
        # random products of distinct monic irreducibles of one degree come
        # back factor by factor; p = 2 takes the trace branch
        rng = random.Random(p)
        for _ in range(20):
            degree = rng.randrange(1, 5)
            # the number of monic irreducibles of this degree over F_p
            most = {1: p, 2: (p**2 - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p**2) // 4}[degree]
            factors = random_irreducibles(rng.randrange(1, min(most, 4) + 1), degree, p, rng)
            product = gfpoly.ONE
            for poly in factors:
                product = gfpoly.gf_mul(product, poly, p)
            assert sorted(split(product, degree, p, seed=rng.randrange(100))) == factors

    def test_deterministic_for_fixed_seed(self):
        f = (1,) * 13  # Phi_13 mod 3: four irreducible factors of degree 3
        assert split(f, 3, 3, seed=5) == split(f, 3, 3, seed=5)
        assert len(split(f, 3, 3, seed=5)) == 4


class TestCyclotomicFactors:
    def test_phi13_mod_3_matches_the_equal_degree_split_on_every_call(self):
        # Phi_13 mod 3: four irreducible factors of degree 3, found with no
        # random draw, so two calls give one list.
        f = (1,) * 13
        factors = gfpoly.cyclotomic_factors(f, 13, 3, 3)
        assert factors == gfpoly.cyclotomic_factors(f, 13, 3, 3)
        assert sorted(factors) == sorted(split(f, 3, 3))
        assert all(is_irreducible(poly, 3) for poly in factors)

    def test_wrong_degree_is_refused(self):
        with pytest.raises(ArithmeticError, match="degree 2"):
            gfpoly.cyclotomic_factors((1,) * 13, 13, 2, 3)


class TestArithmetic:
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=7),
        st.lists(st.integers(0, 6), min_size=1, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, fa, fb):
        p = 7
        f, g = gfpoly.gf_trim(fa), gfpoly.gf_trim(fb)
        if not g:
            return
        q, r = gfpoly.gf_divmod(f, g, p)
        assert gfpoly.gf_add(gfpoly.gf_mul(q, g, p), r, p) == f
        assert gfpoly.gf_degree(r) < gfpoly.gf_degree(g)

    def test_pow_mod(self):
        # x^4 mod x^2+1 is 1 mod 5
        assert gfpoly.gf_pow_mod((0, 1), 4, (1, 0, 1), 5) == (1,)
