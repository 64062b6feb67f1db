import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import is_irreducible

from cyclofree import gfpoly


def reconstruct(factors, lc, p):
    acc = (lc % p,)
    for poly, mult in factors:
        for _ in range(mult):
            acc = gfpoly.gf_mul(acc, poly, p)
    return acc


class TestFactorExamples:
    def test_x2_plus_1_mod_5_splits(self):
        assert gfpoly.factor_mod_p((1, 0, 1), 5) == [((2, 1), 1), ((3, 1), 1)]

    def test_x2_plus_1_mod_3_is_irreducible(self):
        assert gfpoly.factor_mod_p((1, 0, 1), 3) == [((1, 0, 1), 1)]

    def test_x2_plus_1_mod_2_is_a_square(self):
        assert gfpoly.factor_mod_p((1, 0, 1), 2) == [((1, 1), 2)]

    def test_phi5_mod_11_has_four_linear_factors_with_order_five_roots(self):
        factors = gfpoly.factor_mod_p((1, 1, 1, 1, 1), 11)
        assert len(factors) == 4
        for (c0, c1), mult in factors:
            assert mult == 1 and c1 == 1
            root = (-c0) % 11
            assert pow(root, 5, 11) == 1 and root != 1

    def test_leading_unit_is_dropped(self):
        # 3x^2 + 3 mod 5 factors like x^2 + 1
        assert gfpoly.factor_mod_p((3, 0, 3), 5) == [((2, 1), 1), ((3, 1), 1)]


class TestFactorProperties:
    @pytest.mark.parametrize("p", [2, 3, 5, 11, 13])
    def test_reconstruction_on_random_inputs(self, p):
        rng = random.Random(p)
        for _ in range(30):
            degree = rng.randrange(1, 9)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            factors = gfpoly.factor_mod_p(coeffs, p)
            assert reconstruct(factors, coeffs[-1], p) == gfpoly.gf_from_int_poly(coeffs, p)
            for poly, _ in factors:
                assert is_irreducible(poly, p)

    def test_deterministic_for_fixed_seed(self):
        coeffs = tuple(range(1, 14))
        assert gfpoly.factor_mod_p(coeffs, 13, seed=5) == gfpoly.factor_mod_p(coeffs, 13, seed=5)

    def test_multiplicities_survive(self):
        # (x+1)^3 (x+2)^2 mod 7
        f = (1,)
        for c, m in ((1, 3), (2, 2)):
            for _ in range(m):
                f = gfpoly.gf_mul(f, (c, 1), 7)
        assert gfpoly.factor_mod_p(f, 7) == [((1, 1), 3), ((2, 1), 2)]

    def test_characteristic_power_input(self):
        # x^4 + 2x^2 + 1 = (x^2+1)^2 mod 3, found through the p-th root path
        f = gfpoly.gf_mul((1, 0, 1), (1, 0, 1), 3)
        assert gfpoly.factor_mod_p(f, 3) == [((1, 0, 1), 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gfpoly.factor_mod_p((0,), 5)


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
