import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import box_contains, box_points, norm_by_resultant

from cyclofree import kfree
from cyclofree.cyclotomic import CycInt, ring_degree
from cyclofree.kfree import (
    DEFAULT_MAX_POINTS,
    DensityReport,
    PatchConfig,
    ResourceCapError,
    density_estimate,
    extract_patches,
    hereditary_check,
    is_admissible,
    norm_bound,
    patch_entropy_estimate,
    patch_from_json,
    patch_to_json,
    sieve_box,
)
from cyclofree.prime_ideals import is_kfree

SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]


BOUND_CONDUCTORS = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 25)
# Up to this degree the resultant takes all 2^d box corners in about a
# second (4,096 rows at d = 12); the 2^20 corners at n = 25 would take
# minutes, so 4,096 random ones stand in there.
ALL_CORNERS_UP_TO_DEGREE = 12


def resultant_norms(n, rows):
    """|N(x)| of every row by the resultant, independent of norm_array."""
    return np.array([abs(norm_by_resultant(n, row)) for row in np.asarray(rows).tolist()], dtype=object)


def corners(d, radius, rows=None):
    """Sign patterns as rows (+-radius, ..., +-radius): all 2^d, or the given
    pattern numbers."""
    patterns = np.arange(1 << d) if rows is None else np.asarray(rows)
    return radius * (1 - 2 * ((patterns[:, None] >> np.arange(d)) & 1))


class TestNormBound:
    def test_crude_value(self):
        assert norm_bound(4, 10) == (2 * 10) ** 2

    def test_exact_value(self):
        assert norm_bound(5, 11) == (5 * 11**2) ** 2
        assert norm_bound(13, 1) == 13**6

    def test_never_above_the_crude_bound(self):
        for n in range(3, 61):
            if n % 4 == 2:
                continue
            d = ring_degree(n)
            for r in range(1, 5):
                crude = (d * r) ** d
                assert norm_bound(n, r) <= crude
                assert (norm_bound(n, r) == crude) == (n == 4)

    @given(st.sampled_from(BOUND_CONDUCTORS), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_box_rows(self, n, radius, data):
        d = ring_degree(n)
        coord = st.integers(-radius, radius)
        rows = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=20))
        assert all(v <= norm_bound(n, radius) for v in resultant_norms(n, rows))

    @pytest.mark.parametrize("n", BOUND_CONDUCTORS)
    def test_box_corners(self, n):
        d = ring_degree(n)
        if d <= ALL_CORNERS_UP_TO_DEGREE:
            rows = corners(d, 1)
        else:
            rows = corners(d, 1, np.random.default_rng(n).integers(0, 1 << d, 4096))
        norms = resultant_norms(n, rows)
        assert norms.max() <= norm_bound(n, 1)
        if n == 13:  # the bound is attained
            assert norms.max() == norm_bound(n, 1)
        if d <= 8:  # N(r x) = r^d N(x), and the bound scales alike
            assert np.array_equal(resultant_norms(n, corners(d, 3)), 3**d * norms)
            assert 3**d * norms.max() <= norm_bound(n, 3)


class TestSieve:
    def test_radius_one_gaussian_all_survive(self):
        box = sieve_box(4, 2, 1)
        assert box.count == 8
        assert set(box.sorted_points()) == {p for p in box_points(1, 2) if p != (0, 0)}

    def test_two_plus_two_i_removed(self):
        box = sieve_box(4, 2, 3)
        assert not box_contains(box, (2, 2))

    def test_origin_never_flagged(self):
        for n, k, r in ((4, 2, 2), (4, 9, 2), (3, 2, 4)):
            assert not box_contains(sieve_box(n, k, r), (0,) * 2)

    def test_matches_pointwise_oracle_small(self):
        for n in (3, 4):
            box = sieve_box(n, 2, 4)
            for p in box_points(4, 2):
                assert box_contains(box, p) == is_kfree(CycInt(n, p), 2)

    def test_point_set_decoding_in_rank_four(self):
        box = sieve_box(5, 2, 1)
        expected = {
            p
            for p in box_points(1, 4)
            if is_kfree(CycInt(5, p), 2)
        }
        assert set(box.sorted_points()) == expected

    def test_matches_pointwise_oracle_degree_six(self):
        # conductor 9 has degree 6; a radius-1 box already exercises the
        # ramified cube and the inert primes
        box = sieve_box(9, 2, 1)
        for p in box_points(1, 6):
            assert box_contains(box, p) == is_kfree(CycInt(9, p), 2)

    def test_flagged_points_pass_is_kfree(self):
        box = sieve_box(5, 2, 2)
        for p in box.sorted_points()[:50]:
            assert is_kfree(CycInt(5, p), 2)

    def test_boxes_compare_by_parameters_ideals_and_grid(self):
        box = sieve_box(4, 2, 3)
        assert box == sieve_box(4, 2, 3) and not box != sieve_box(4, 2, 3)
        assert box != sieve_box(4, 2, 4)
        assert box != sieve_box(4, 3, 3)
        # same parameters, fewer ideals sieved, so a different grid
        assert box != sieve_box(4, 2, 3, ideal_norm_cap=2)
        flipped = sieve_box(4, 2, 3)
        flipped.grid[0, 0] = not flipped.grid[0, 0]
        assert box != flipped
        assert box != (4, 2, 3)

    def test_monotone_in_k(self):
        lower = sieve_box(4, 2, 8)
        upper = sieve_box(4, 3, 8)
        assert set(lower.sorted_points()) <= set(upper.sorted_points())

    def test_negation_symmetry(self):
        box = sieve_box(12, 2, 3)
        points = set(box.sorted_points())
        for p in points:
            assert tuple(-v for v in p) in points

    def test_resource_cap(self, monkeypatch):
        # 7^12 points, above the default cap: refused before the prime
        # ideals are listed or the occupancy array is allocated
        monkeypatch.delenv("CYCLOFREE_MAX_POINTS", raising=False)
        monkeypatch.setattr(kfree, "enumerate_prime_ideals", None)
        assert 7**12 > DEFAULT_MAX_POINTS
        with pytest.raises(ResourceCapError):
            sieve_box(13, 2, 3)

    def test_cap_override_via_env(self, monkeypatch):
        monkeypatch.setenv("CYCLOFREE_MAX_POINTS", "50")
        with pytest.raises(ResourceCapError):
            sieve_box(4, 2, 10)
        monkeypatch.setenv("CYCLOFREE_MAX_POINTS", "1000000")
        assert sieve_box(4, 2, 10).count > 0

    def test_cap_is_exact_at_degree_four(self, monkeypatch):
        # 3^4 = 81 cells at n = 5, r = 1: a cap of 81 keeps the box, 80 refuses it
        monkeypatch.setenv("CYCLOFREE_MAX_POINTS", "80")
        with pytest.raises(ResourceCapError, match=r"box has 3\^4 points"):
            sieve_box(5, 2, 1)
        monkeypatch.setenv("CYCLOFREE_MAX_POINTS", "81")
        assert sieve_box(5, 2, 1).box_volume == 81

    def test_refusal_at_a_large_conductor_forms_no_power_of_degree_size(self, monkeypatch):
        # 3^4000036 has 1.9 million digits; the refusal neither forms it nor Phi_n
        monkeypatch.delenv("CYCLOFREE_MAX_POINTS", raising=False)
        monkeypatch.setattr("cyclofree.cyclotomic.cyclotomic_polynomial", None)
        with pytest.raises(ResourceCapError, match=r"^box has 3\^4000036 points"):
            sieve_box(4000037, 2, 1)

    def test_cell_blocks_are_the_points_in_order(self):
        box = sieve_box(5, 2, 6)  # 13^4 = 28,561 cells
        for step in (1, 1000, 4096, box.box_volume):
            blocks = list(box.cell_blocks(step))
            assert all(len(block) for block in blocks)
            assert np.array_equal(np.concatenate(blocks) - box.r, box.point_array())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sieve_box(4, 1, 5)
        with pytest.raises(ValueError):
            sieve_box(4, 2, 0)


# Conductors up to 20 at radii whose sieve runs in about half a second or
# less; sieve_box(13, 2, 1), the largest, consults 332 prime ideals.
SIEVE_RADIUS = {3: 6, 4: 6, 5: 2, 7: 1, 8: 2, 9: 1, 11: 1, 12: 2, 13: 1, 15: 1, 16: 1, 20: 1}


@given(st.sampled_from(sorted(SIEVE_RADIUS)), st.integers(2, 3), st.integers(1, 6), st.data())
@settings(max_examples=15, deadline=None)
def test_sieve_matches_pointwise_is_kfree(n, k, radius, data):
    """Every point of boxes up to 729 points, a random sample of larger ones."""
    radius = min(radius, SIEVE_RADIUS[n])
    d = ring_degree(n)
    box = sieve_box(n, k, radius)
    if box.box_volume <= 729:
        points = list(box_points(radius, d))
    else:
        coord = st.integers(-radius, radius)
        points = data.draw(st.lists(st.tuples(*[coord] * d), min_size=100, max_size=100))
    for p in points:
        assert box_contains(box, p) == is_kfree(CycInt(n, p), k)


class TestDensityBracketing:
    def test_partial_sieves_are_supersets_with_decreasing_density(self):
        full = sieve_box(4, 2, 60)
        previous = None
        crt_previous = None
        for cap in (2, 5, 13, 40):
            partial = sieve_box(4, 2, 60, ideal_norm_cap=cap)
            assert set(full.sorted_points()) <= set(partial.sorted_points())
            if previous is not None:
                assert set(partial.sorted_points()) <= previous
            # exact per-period density of the partial sieve by comaximality
            crt = Fraction(1)
            for P in partial.prime_ideals_used:
                crt *= 1 - Fraction(1, P.norm**2)
            assert crt >= full.empirical_density * Fraction(
                95, 100
            )  # the box slightly over- or under-shoots; the CRT value may not
            if crt_previous is not None:
                assert crt <= crt_previous
            # empirical density of the periodic superset tracks its CRT value
            assert abs(partial.empirical_density - crt) / crt < Fraction(1, 20)
            previous = set(partial.sorted_points())
            crt_previous = crt

    def test_density_report_fields(self):
        box = sieve_box(4, 2, 50)
        report = density_estimate(box, prime_bound=2000)
        assert 0 < report.empirical_density < 1
        assert report.reference_lower <= report.reference_upper
        doc = json.loads(report.to_json())
        assert Fraction(doc["empirical_density"]) == report.empirical_density
        assert doc["point_count"] == box.count

    def test_density_report_reads_volume_and_density_from_its_counts(self):
        report = density_estimate(sieve_box(5, 2, 2), prime_bound=2000)
        assert report.box_volume == 5**4
        assert report.empirical_density == Fraction(report.point_count, 5**4)
        with pytest.raises(TypeError):
            DensityReport(5, 2, 2, report.point_count, 5**4, report.empirical_density,
                          report.reference_lower, report.reference_upper, 2000)


class TestPatches:
    def test_singleton_consistency_with_density(self):
        box = sieve_box(4, 2, 30)
        census = extract_patches(box, [(0, 0)])
        occupied = sum(c for p, c in census.items() if p.fill == 1)
        assert occupied == box.count
        assert sum(census.values()) == box.box_volume

    def test_counts_sum_to_anchor_total(self):
        box = sieve_box(4, 2, 25)
        census = extract_patches(box, SQUARE)
        assert sum(census.values()) == (2 * 25 + 1 - 1) ** 2

    def test_full_cover_pattern_never_occurs_for_gaussian_squarefree(self):
        # a fully occupied 2x2 square would meet all four cosets of the
        # lattice of (2), which admissibility forbids; the census realizes
        # every other pattern at this radius
        box = sieve_box(4, 2, 60)
        census = extract_patches(box, SQUARE)
        fills = {p.fill for p in census}
        assert 15 not in fills
        assert fills == set(range(15))

    def test_asymmetric_shape_matches_bruteforce(self):
        box = sieve_box(4, 2, 9)
        shape = [(0, 0), (-1, 2), (1, -1)]
        census = extract_patches(box, shape)
        # brute force: walk every anchor keeping the shape inside the box
        brute: dict[int, int] = {}
        anchors = 0
        for a in range(-9, 10):
            for b in range(-9, 10):
                cells = [(a + da, b + db) for da, db in shape]
                if any(abs(u) > 9 or abs(v) > 9 for u, v in cells):
                    continue
                anchors += 1
                fill = sum(1 << i for i, c in enumerate(cells) if box_contains(box, c))
                brute[fill] = brute.get(fill, 0) + 1
        assert anchors == sum(census.values())
        assert {p.fill: c for p, c in census.items()} == brute

    def test_census_memory_follows_the_patterns_that_occur(self):
        # 212 fills of this 24-cell shape occur at radius 10; a count for
        # each of the 2^24 possible fills would take 128 MB.
        box = sieve_box(4, 2, 10)
        shape = [(a, b) for a in range(4) for b in range(6)]
        tracemalloc.start()
        try:
            census = extract_patches(box, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(census) == 212
        assert sum(census.values()) == (21 - 3) * (21 - 5)
        assert peak < 8 << 20

    def test_shape_validation(self):
        box = sieve_box(4, 2, 5)
        with pytest.raises(ValueError):
            extract_patches(box, [])
        with pytest.raises(ValueError):
            extract_patches(box, [(0, 0), (0, 0)])
        with pytest.raises(ValueError):
            extract_patches(box, [(0, 0, 0)])
        with pytest.raises(ValueError):
            extract_patches(box, [(0, 0), (11, 0)])

    def test_entropy_estimate_bounds(self):
        box = sieve_box(4, 2, 40)
        estimate = patch_entropy_estimate(box, SQUARE)
        assert estimate <= math.log(2) + 1e-12
        singleton = patch_entropy_estimate(box, [(0, 0)])
        assert singleton == pytest.approx(math.log(2))

    def test_patch_json_roundtrip(self):
        patch = PatchConfig(shape=tuple(SQUARE), fill=0b0110)
        text = patch_to_json(patch, 4, 2)
        cells, n, k = patch_from_json(text)
        assert (n, k) == (4, 2) and cells.shape == (2, 2)
        assert cells.tolist() == [list(off) for off in patch.occupied]
        assert patch.occupied == ((0, 1), (1, 0))

    def test_patch_json_roundtrip_large_and_empty(self):
        shape = tuple(box_points(100, 2))
        rng = random.Random(5)
        bits = "".join(rng.choice("01") for _ in shape)
        for fill_bits in (bits, "0" * len(shape)):
            doc = {"n": 4, "k": 2, "shape": [list(off) for off in shape], "fill": fill_bits}
            text = json.dumps(doc)
            cells, n, k = patch_from_json(text)
            patch = PatchConfig(shape=shape, fill=int(fill_bits[::-1], 2))
            assert patch.fill_bits == fill_bits
            assert cells.dtype == np.int64 and cells.shape == (len(patch.occupied), 2)
            assert cells.tolist() == [list(off) for off in patch.occupied]
            again, n, k = patch_from_json(patch_to_json(patch, n, k))
            assert (n, k) == (4, 2) and np.array_equal(again, cells)
        assert patch.fill == 0 and patch.occupied == () and cells.shape == (0, 2)

    def test_patch_fill_must_be_a_bitstring(self):
        for fill in ("0b", ["0", "1"], 1):
            text = json.dumps({"n": 4, "k": 2, "shape": [[0, 0], [0, 1]], "fill": fill})
            with pytest.raises(ValueError):
                patch_from_json(text)

    def test_offsets_beyond_int64_are_read_exactly(self):
        # The 4 x 4 cover and a k-free window, moved by offsets near 2^70:
        # cells are Python ints, and the verdict is the one the tuples give.
        # Admissibility is invariant under translation.
        window = sieve_box(4, 2, 6).sorted_points()
        for cells, shift, verdict in (
            ([(a, b) for a in range(4) for b in range(4)], (2**70, -(2**70) + 1), False),
            (window, (2**70 + 1, 2**70), True),
            (window, (2**70, 0), True),
        ):
            shape = tuple((a + shift[0], b + shift[1]) for a, b in cells) + ((0, 0),)
            patch = PatchConfig(shape=shape, fill=(1 << len(cells)) - 1)
            got, n, k = patch_from_json(patch_to_json(patch, 4, 2))
            assert got.dtype == object and got.tolist() == [list(off) for off in patch.occupied]
            assert is_admissible(got, n, k) == is_admissible(patch.occupied, 4, 2) == verdict

    def test_patch_offsets_must_be_integers(self):
        # 1.5 is not read as cell 1, nor "3" as cell 3, nor true as cell 1.
        for bad in (1.5, "3", True):
            text = json.dumps({"n": 4, "k": 2, "shape": [[0, 0], [0, bad]], "fill": "11"})
            with pytest.raises(ValueError, match="integers"):
                patch_from_json(text)


class TestAdmissibility:
    def test_empty_patch(self):
        assert is_admissible([], 4, 2)

    def test_sieved_window_is_admissible(self):
        box = sieve_box(4, 2, 12)
        assert is_admissible(box.point_array(), 4, 2)

    def test_a_set_is_not_an_array(self):
        with pytest.raises(ValueError, match="offsets of length"):
            is_admissible({(0, 0), (0, 1)}, 4, 2)

    def test_offsets_of_another_dimension_rejected(self):
        # Z[zeta_5] has rank 4: 2-D offsets are not its points, however few
        # cells they hold, nor are 3-D ones points of Z[i].
        for cells, n in (([(0, 0), (0, 1), (1, 0)], 5), ([(0, 0), (0, 1), (1, 0), (1, 1)], 5), ([(0, 0, 0)], 4)):
            with pytest.raises(ValueError, match="offsets of length"):
                is_admissible(cells, n, 2)

    def test_full_coset_cover_fails(self):
        # [0,4)^2 holds all 16 residues of the index-16 lattice of (4) and
        # therefore covers the four cosets of the lattice of (2) = P^2
        patch = [(a, b) for a in range(4) for b in range(4)]
        assert not is_admissible(patch, 4, 2)

    def test_cover_at_object_dtype_codes(self):
        # Index^2 * 2^d is beyond int64 at both (d = 64 and 54), so the codes
        # come back as an object array.  Above 2 in Z[zeta_128], 2 lies in
        # P^64, so 0, 1, zeta, 1 + zeta are the four cosets of P^2; above 3
        # in Z[zeta_81], the 27 sums of a + b zeta + c zeta^2 are those of P^3.
        cells = [(a, b) + (0,) * 62 for a in range(2) for b in range(2)]
        for patch in (cells, np.array(cells)):
            assert not is_admissible(patch, 128, 2)
        assert is_admissible(cells[:3], 128, 2)
        patch = [(a, b, c) + (0,) * 51 for a in range(3) for b in range(3) for c in range(3)]
        assert not is_admissible(patch, 81, 3)

    def test_subsets_of_sieved_window_pass(self):
        box = sieve_box(4, 2, 15)
        pts = box.sorted_points()
        assert is_admissible(pts[::2], 4, 2)
        assert is_admissible(pts[:10], 4, 2)

    def test_hereditary_check(self):
        box = sieve_box(4, 2, 15)
        assert hereditary_check(box, trials=12)
