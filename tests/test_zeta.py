import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from _oracles import character_oracle_gaussian, dedekind_zeta_by_fractions, log_by_mpmath

from cyclofree import zeta
from cyclofree.arith import ResourceCapError
from cyclofree.zeta import (
    Interval,
    ZetaValue,
    dedekind_zeta,
    density_constant,
    entropy_constant,
    log2_interval,
    log_interval,
)


class TestEnclosures:
    def test_lower_at_least_one_and_ordered(self):
        for n, k in ((4, 2), (3, 2), (12, 2), (5, 3)):
            z = dedekind_zeta(n, k, 5000)
            assert 1 <= z.lower <= z.upper

    def test_nesting_as_bound_grows(self):
        for n in (3, 4):
            for k in (2, 3):
                coarse = dedekind_zeta(n, k, 10**4)
                fine = dedekind_zeta(n, k, 10**5)
                assert coarse.interval.contains_interval(fine.interval)
                assert fine.width < coarse.width

    def test_character_oracle_for_gaussian_field(self):
        for k in (2, 3, 4):
            z = dedekind_zeta(4, k, 10**5)
            lo, hi = character_oracle_gaussian(k)
            # both enclose the true value, so they must overlap, and the
            # oracle midpoint sits within one enclosure width of ours
            assert Fraction(lo) <= z.upper and z.lower <= Fraction(hi)
            mid_gap = abs((lo + hi) / 2 - float(z.interval.midpoint))
            assert mid_gap <= float(z.width)

    def test_character_product_for_degree_four_field(self):
        # conductor 5: the zeta value factors over the four Dirichlet
        # characters mod 5; the non-principal L values are summed directly
        # (absolutely convergent at 2) and multiplied with the Riemann factor
        import cmath

        log_table = {2: 1, 4: 2, 3: 3, 1: 0}

        def chi(m, power):
            return cmath.exp(2j * cmath.pi * power * log_table[m % 5] / 4)

        terms = 200_000
        product = 1.0 + 0j
        for power in (1, 2, 3):
            product *= sum(chi(m, power) / m**2 for m in range(1, terms) if m % 5)
        riemann = math.fsum(m ** -2.0 for m in range(1, terms))
        low = product.real * riemann
        high = product.real * (riemann + 1 / terms)
        pad = 1e-4  # generous cover for the truncated complex L sums
        z = dedekind_zeta(5, 2, 10**5)
        assert low - pad <= float(z.upper) and float(z.lower) <= high + pad
        assert abs((low + high) / 2 - float(z.interval.midpoint)) < float(z.width) + pad

    def test_large_k_tends_to_one(self):
        z = dedekind_zeta(4, 50, 1000)
        assert z.upper - 1 < Fraction(1, 10**10)

    def test_decreasing_in_k(self):
        z2 = dedekind_zeta(4, 2, 10**4)
        z3 = dedekind_zeta(4, 3, 10**4)
        assert z3.interval.strictly_below(z2.interval)

    def test_log_bounds_bracket_float_log(self):
        z = dedekind_zeta(4, 2, 10**4)
        assert float(z.log_lower) <= math.log(float(z.interval.midpoint)) <= float(z.log_upper)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dedekind_zeta(4, 1, 1000)
        with pytest.raises(ValueError):
            dedekind_zeta(4, 2, 3)  # far below the rigorous-tail threshold

    def test_json_output_parses_and_orders(self):
        z = dedekind_zeta(4, 2, 10**4)
        doc = json.loads(z.to_json())
        assert float(doc["lower"]) <= float(doc["upper"])
        assert doc["precision_bits"] == 192
        assert "rounding" in doc


def test_log_enclosure_is_read_from_the_interval():
    z = dedekind_zeta(4, 2, 1000)
    logs = log_interval(z.interval)
    assert (z.log_lower, z.log_upper) == (logs.lower, logs.upper)
    with pytest.raises(TypeError):
        ZetaValue(4, 2, 1000, z.lower, z.upper, logs.lower, logs.upper)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 16, 20])
@pytest.mark.parametrize("k", [2, 3])
def test_residue_class_product_matches_fraction_oracle(n, k):
    # 12,000 is past EXACT_HEAD_BOUND, so both the exact head and the
    # fixed-point tail are compared, bit for bit
    z = dedekind_zeta(n, k, 12_000)
    ref = dedekind_zeta_by_fractions(n, k, 12_000)
    assert (z.lower, z.upper, z.log_lower, z.log_upper) == (
        ref.lower, ref.upper, ref.log_lower, ref.log_upper
    )


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (12, 2), (7, 3)])
def test_long_tail_matches_fraction_oracle(n, k):
    # past 10^4 there are thousands of primes with one ideal above them
    # (g = 1; none at n = 12) and thousands with several (g > 1), so both
    # one-divmod updates of the tail are compared, bit for bit
    z = dedekind_zeta(n, k, 60_000)
    ref = dedekind_zeta_by_fractions(n, k, 60_000)
    assert (z.lower, z.upper, z.log_lower, z.log_upper) == (
        ref.lower, ref.upper, ref.log_lower, ref.log_upper
    )


@pytest.mark.parametrize("n, k", [(11, 2), (7, 3)])
def test_primes_of_large_residue_degree_skip_the_power(n, k):
    # The tail's upper end has at most PRECISION_BITS + 1 bits, so each
    # prime listed here takes the one-unit step without forming q; the
    # enclosure, bit for bit, and its JSON are those of the fraction oracle.
    from cyclofree.arith import _sieved_primes, prime_shape

    shapes = {ell: prime_shape(ell, n) for ell in _sieved_primes(12_000) if ell > zeta.EXACT_HEAD_BOUND}
    skipped = [
        ell for ell, (_, f, g) in shapes.items()
        if f * k * (ell.bit_length() - 1) > zeta.PRECISION_BITS + 1 + g.bit_length()
    ]
    assert len(skipped) > 20
    z, ref = dedekind_zeta(n, k, 12_000), dedekind_zeta_by_fractions(n, k, 12_000)
    assert (z.lower, z.upper, z.log_lower, z.log_upper) == (
        ref.lower, ref.upper, ref.log_lower, ref.log_upper
    )
    assert z.to_json() == ref.to_json()


@pytest.mark.parametrize("n, k, bound", [(4, 2, 12_000), (5, 3, 12_000), (12, 2, 3_000), (7, 2, 200)])
def test_undecided_head_falls_back_to_the_exact_product(monkeypatch, n, k, bound):
    # With no guard bits the head's enclosure is wider than one unit of the
    # 192-bit result, so Ziv's test cannot decide and the exact product runs.
    exact_heads = []
    exact_head = zeta._exact_head
    monkeypatch.setattr(zeta, "_exact_head", lambda *args: exact_heads.append(args) or exact_head(*args))
    decided = dedekind_zeta.__wrapped__(n, k, bound)  # past the lru_cache
    assert not exact_heads
    monkeypatch.setattr(zeta, "HEAD_GUARD_BITS", 0)
    forced = dedekind_zeta.__wrapped__(n, k, bound)
    assert exact_heads == [(n, k, min(bound, zeta.EXACT_HEAD_BOUND))]
    assert forced == decided == dedekind_zeta_by_fractions(n, k, bound)


@pytest.mark.parametrize("n, k", [(10007, 2), (100003, 4)])
def test_head_below_one_decides_without_the_exact_product(monkeypatch, n, k):
    # Nearly every head prime takes the one-unit step, so lo hh / 2^W rounds
    # down to lo itself; H < 1 puts floor(lo H) at lo - 1 or below, which
    # the head's lower bound then meets.
    monkeypatch.setattr(zeta, "_exact_head", lambda *args: pytest.fail(f"exact head at {args}"))
    z = dedekind_zeta.__wrapped__(n, k, 10**5)
    assert 1 <= z.lower <= z.upper


@pytest.mark.parametrize("n, k, bound, factor_bits", [(10007, 4, 30, 2048), (41, 2, 3000, 300)])
def test_head_factors_past_the_bit_bound_are_bounded_not_formed(monkeypatch, n, k, bound, factor_bits):
    # At n = 10007 every head factor has q > 2^2048 and Ziv's test cannot
    # decide; at n = 41 a lowered bound leaves out some factors and keeps
    # others, and no guard bits force the exact head.  Either way the
    # factors left out only bound the result, which is the exact one.
    skipped = []
    exact_head = zeta._exact_head

    def recorded(*args):
        head = exact_head(*args)
        skipped.append(head[2])
        return head

    monkeypatch.setattr(zeta, "_exact_head", recorded)
    monkeypatch.setattr(zeta, "HEAD_GUARD_BITS", 0)
    monkeypatch.setattr(zeta, "HEAD_FACTOR_BITS", factor_bits)
    z = dedekind_zeta.__wrapped__(n, k, bound)
    assert len(skipped) == 1 and skipped[0] > 0
    assert z == dedekind_zeta_by_fractions(n, k, bound)


def test_undecided_bounded_head_is_a_resource_cap(monkeypatch):
    # With q > 2^64 left out, their product's bound is far wider than one
    # unit of the result, so the rounding is undecided and no power is formed.
    monkeypatch.setattr(zeta, "HEAD_GUARD_BITS", 0)
    monkeypatch.setattr(zeta, "HEAD_FACTOR_BITS", 64)
    with pytest.raises(ResourceCapError, match="exact Euler head"):
        dedekind_zeta.__wrapped__(7, 2, 200)


def test_large_conductor_keeps_only_the_shapes_it_meets():
    # 168 primes up to 1000 meet at most 168 residues mod 1000003; a shape
    # for each of the million residues took 97 MB.
    tracemalloc.start()
    try:
        z = dedekind_zeta.__wrapped__(1_000_003, 4, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= z.lower <= z.upper
    assert peak < 4 << 20


def test_degree_100_enclosure_is_pinned():
    # The digest of the enclosure as computed with the exact head product
    # of all 1,229 head primes (about 4 s); Ziv's test decides it in 0.2 s.
    doc = dedekind_zeta(101, 4, 100_000).to_json()
    digest = "faf68336915b20b667098b6d54b9ff82c38deb0f2c25a4221c449e3a4e72671b"
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


class TestDensityConstant:
    def test_interval_in_unit_range(self):
        for n, k in ((4, 2), (3, 2), (5, 2), (12, 3)):
            dens = density_constant(n, k, 10**4)
            assert Fraction(0) < dens.lower <= dens.upper < Fraction(1)

    def test_product_with_zeta_contains_one(self):
        z = dedekind_zeta(4, 2, 10**4)
        dens = density_constant(4, 2, 10**4)
        product = dens * z.interval
        assert Fraction(1) in product

    def test_nested_widths(self):
        a = density_constant(4, 2, 10**4)
        b = density_constant(4, 2, 10**5)
        assert a.lower <= b.lower and b.upper <= a.upper


class TestEntropyConstant:
    def test_below_log_two(self):
        log2 = log2_interval()
        for n, k in ((4, 2), (3, 2), (4, 3)):
            ent = entropy_constant(n, k, 10**4)
            assert ent.upper < log2.lower

    def test_strictly_increasing_in_k(self):
        values = [entropy_constant(4, k, 10**4) for k in (2, 3, 4)]
        assert values[0].strictly_below(values[1])
        assert values[1].strictly_below(values[2])

    def test_gaussian_and_eisenstein_systems_distinguished(self):
        gauss = entropy_constant(4, 2, 10**4)
        eisen = entropy_constant(3, 2, 10**4)
        assert gauss.strictly_below(eisen) or eisen.strictly_below(gauss)


class TestIntervalHelpers:
    def test_reciprocal_and_multiplication(self):
        iv = Interval(Fraction(2), Fraction(3))
        rec = iv.reciprocal()
        assert rec.lower == Fraction(1, 3) and rec.upper == Fraction(1, 2)
        prod = iv * Interval(Fraction(1, 2), Fraction(1))
        assert prod.lower == Fraction(1) and prod.upper == Fraction(3)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))

    def test_log_interval_brackets_known_value(self):
        iv = log_interval(Interval(Fraction(2), Fraction(2)))
        assert float(iv.lower) <= math.log(2) <= float(iv.upper)
        assert iv.upper - iv.lower < Fraction(1, 10**50)


def _random_rationals(kind: str, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        if kind == "below-one":
            den = rng.randrange(2, 10**40)
            yield Fraction(rng.randrange(1, den), den)
        elif kind == "near-one":
            yield 1 + Fraction(rng.randrange(-10**9, 10**9), 10 ** rng.randrange(10, 60))
        else:
            yield Fraction(rng.randrange(1, 10**100), rng.randrange(1, 10**6))


class TestIntegerLog:
    """log_interval against mpmath at 600 bits, a test-only oracle."""

    def assert_encloses(self, x: Fraction):
        iv = log_interval(Interval(x, x))
        assert iv.lower <= log_by_mpmath(x) <= iv.upper, x
        assert iv.width < Fraction(1, 2**240), x
        # endpoints are multiples of 2^-256, 2^-LOG_PRECISION_BITS
        assert (iv.lower * 2**256).denominator == 1 and (iv.upper * 2**256).denominator == 1

    @pytest.mark.parametrize("kind", ["below-one", "near-one", "up-to-1e100"])
    def test_random_rationals(self, kind):
        for x in _random_rationals(kind, 60, seed=len(kind)):
            self.assert_encloses(x)

    def test_powers_of_two_and_one(self):
        for e in (-300, -64, -1, 1, 2, 63, 300):
            self.assert_encloses(Fraction(2) ** e)
        assert log_interval(Interval(Fraction(1), Fraction(1))) == Interval(Fraction(0), Fraction(0))

    def test_interval_endpoints_round_outward(self):
        x, y = Fraction(3, 7), Fraction(10**30 + 1, 10**29)
        iv = log_interval(Interval(x, y))
        assert iv.lower <= log_by_mpmath(x) and log_by_mpmath(y) <= iv.upper

    def test_precision_sets_the_grid(self, monkeypatch):
        monkeypatch.setattr(zeta, "LOG_PRECISION_BITS", 64)
        iv = log_interval(Interval(Fraction(5), Fraction(5)))
        assert iv.lower <= log_by_mpmath(Fraction(5)) <= iv.upper
        assert iv.width <= Fraction(2, 2**64)
        assert (iv.lower * 2**64).denominator == 1 and (iv.upper * 2**64).denominator == 1

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            log_interval(Interval(Fraction(0), Fraction(1)))

    def test_log2_interval_against_float_log(self):
        log2 = log2_interval()
        assert float(log2.lower) <= math.log(2) <= float(log2.upper)
        assert log2.width < Fraction(1, 2**240)
