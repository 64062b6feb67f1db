import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import box_points, degree_one_primes, ideal_power_by_recursion, lattice_walk
from cyclofree import lattices
from cyclofree.arith import determinant
from cyclofree.cyclotomic import ring_degree
from cyclofree.lattices import (
    IdealLattice,
    RankError,
    box_blocks,
    hnf,
    ideal_lattice,
)
from cyclofree.prime_ideals import enumerate_prime_ideals, ramified_primes, split_prime


def ideal_above(ell, n, which=0):
    return split_prime(ell, n)[which]


CONDUCTORS = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15)
# Largest radius whose box [-r, r]^d has at most 20000 points (at least 1).
WALK_RADIUS = {2: 70, 4: 5, 6: 2, 8: 1, 10: 1, 12: 1}


def power_lattice(n, which, k):
    """The lattice of P^k for one of the prime ideals of norm <= 60."""
    ideals = list(enumerate_prime_ideals(n, 60))
    return ideal_lattice(ideals[which % len(ideals)], k)


def block_points(lat, radius):
    """lattice_point_blocks of one lattice as a sorted list of tuples, duplicates kept."""
    return sorted(tuple(p) for block in lattices.lattice_point_blocks((lat,), radius) for p in block.tolist())


def exact_rows(points):
    """points as an int64 array, or an object array when a value is beyond
    int64: np.array rounds a mix of int64 and uint64 values to float64."""
    try:
        return np.array(points, dtype=np.int64)
    except OverflowError:
        return np.array(points, dtype=object)


def mixed_radix(lat, residue):
    code = 0
    for j in range(lat.d - 1, -1, -1):
        code = code * lat.basis[j][j] + residue[j]
    return code


class TestDeterminant:
    def test_identity(self):
        assert determinant([[1, 0], [0, 1]]) == 1

    def test_known_3x3(self):
        assert determinant([[2, 0, 1], [1, 3, 0], [0, 1, 4]]) == 25

    def test_singular(self):
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_pivot_swap_sign(self):
        assert determinant([[0, 1], [1, 0]]) == -1


class TestHNF:
    def test_standard_basis_gives_identity(self):
        lat = hnf([[1, 0], [0, 1]])
        assert lat.basis == ((1, 0), (0, 1))
        assert lat.index == 1

    def test_checkerboard_lattice(self):
        lat = hnf([[2, 0], [0, 2], [1, 1]])
        assert lat.index == 2
        assert lat.basis == ((2, 0), (1, 1))

    def test_permutation_and_combination_invariance(self):
        rng = random.Random(0)
        base = [[4, 0, 0], [1, 3, 0], [2, 2, 5]]
        reference = hnf(base)
        for _ in range(20):
            gens = [row[:] for row in base]
            # random row operations preserve the lattice
            for _ in range(6):
                i, j = rng.randrange(3), rng.randrange(3)
                c = rng.randrange(-2, 3)
                if i != j:
                    gens[i] = [a + c * b for a, b in zip(gens[i], gens[j])]
            rng.shuffle(gens)
            gens.append([sum(c) for c in zip(*gens)])
            assert hnf(gens) == reference

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            hnf([[1, 2], [2, 4]])

    def test_lower_triangular_reduced_form(self):
        lat = hnf([[7, 0, 0], [3, 5, 0], [1, 2, 9]])
        d = lat.d
        for i in range(d):
            assert lat.basis[i][i] > 0
            for j in range(i + 1, d):
                assert lat.basis[i][j] == 0
            for j in range(i):
                assert 0 <= lat.basis[i][j] < lat.basis[j][j]

    def test_modulus_guard_matches_plain_run(self):
        gens = [[6, 0], [2, 4]]
        assert hnf(gens, modulus=24) == hnf(gens)


class TestIdealLattice:
    def test_ramified_prime_of_gaussians(self):
        lat = ideal_lattice(ideal_above(2, 4), 1)
        assert lat.index == 2
        # the even coordinate-sum sublattice
        points = np.array(list(box_points(3, 2)))
        assert np.array_equal(lat.coset_codes(points) == 0, points.sum(axis=1) % 2 == 0)

    def test_index_is_norm_for_first_power(self):
        for ell, n in ((2, 4), (5, 4), (3, 4), (7, 5), (13, 12), (3, 8)):
            for ideal in split_prime(ell, n):
                assert ideal_lattice(ideal, 1).index == ideal.norm

    def test_norm_five_square_has_index_25(self):
        ideal = ideal_above(5, 4)
        assert ideal.norm == 5
        assert ideal_lattice(ideal, 2).index == 25

    def test_powers_are_nested(self):
        for ell, n in ((2, 4), (5, 4), (13, 12)):
            ideal = ideal_above(ell, n)
            for m in range(1, 4):
                outer = ideal_lattice(ideal, m)
                inner = ideal_lattice(ideal, m + 1)
                assert not outer.coset_codes(np.array(inner.basis)).any()

    def test_index_of_powers(self):
        for ell, n in ((2, 4), (5, 4), (3, 5), (13, 12)):
            ideal = ideal_above(ell, n)
            for m in range(1, 5):
                assert ideal_lattice(ideal, m).index == ideal.norm**m

    def test_distinct_ideals_above_same_prime_are_comaximal(self):
        for ell, n in ((5, 4), (13, 12), (11, 5)):
            ideals = split_prime(ell, n)
            for i in range(len(ideals)):
                for j in range(i + 1, len(ideals)):
                    a = ideal_lattice(ideals[i], 1)
                    b = ideal_lattice(ideals[j], 1)
                    union = hnf(list(a.basis) + list(b.basis))
                    assert union.index == 1

    def test_hand_built_lattice_reads_its_index_from_the_basis(self):
        lat = IdealLattice(((4, 0), (1, 1)))
        assert (lat.d, lat.index) == (2, 4)
        points = [(5 + a, b) for a in range(-3, 4) for b in range(-3, 4)]
        codes = lat.coset_codes(np.array(points)).tolist()
        assert codes[points.index((5, 0))] == mixed_radix(lat, lat.coset_id((5, 0))) == 1
        assert codes == [mixed_radix(lat, lat.coset_id(p)) for p in points]
        with pytest.raises(TypeError):
            IdealLattice(2, ((4, 0), (1, 1)), 5)


class TestDirectPowers:
    """ideal_lattice against the recursive construction it replaced."""

    @pytest.mark.parametrize("n", [n for n in range(3, 26) if n % 4 != 2])
    def test_equals_the_recursive_tower(self, n):
        ramified = {P for ell in ramified_primes(n) for P in split_prime(ell, n)}
        ideals = set(enumerate_prime_ideals(n, 40)) | ramified
        for P in sorted(ideals, key=lambda P: P.sort_key()):
            for m in range(1, 7 if P in ramified else 4):
                assert ideal_lattice(P, m) == ideal_power_by_recursion(P, m), (n, P, m)

    def test_residue_degree_above_one(self):
        ideals = split_prime(3, 13)  # 3 has order 3 mod 13: four ideals of norm 27
        assert [P.f for P in ideals] == [3] * 4
        for P in ideals:
            for m in (1, 2, 3):
                assert ideal_lattice(P, m) == ideal_power_by_recursion(P, m)


class TestDegreeOneClosedForm:
    """ideal_lattice of an unramified degree-1 P, read off a lifted root,
    against the HNF of its generators and the recursive tower."""

    @pytest.mark.parametrize("n", [n for n in range(3, 61) if n % 4 != 2])
    def test_equals_the_hnf_and_the_tower(self, n):
        # One ideal per prime, a different one each time.  The tower, which
        # takes seconds at m = 3 from d = 40 on, checks the first prime.
        for i, ell in enumerate(degree_one_primes(n, 8)):
            ideals = split_prime(ell, n)
            P = ideals[i % len(ideals)]
            assert (P.e, P.f) == (1, 1)
            for m in (1, 2, 3):
                lat = ideal_lattice(P, m)
                assert lat == lattices._ideal_lattice_by_hnf(P, m), (n, ell, m)
                if i == 0:
                    assert lat == ideal_power_by_recursion(P, m), (n, ell, m)

    def test_cube_of_the_prime_beyond_int64(self):
        ell = 2097211  # the least prime = 1 mod 5 above 2^21
        assert ell**3 > 2**63 and all(ell % q for q in range(2, math.isqrt(ell) + 1))
        for P in split_prime(ell, 5):
            for m in (1, 2, 3, 4, 5):
                lat = ideal_lattice(P, m)
                assert lat.index == ell**m
                assert lat == lattices._ideal_lattice_by_hnf(P, m) == ideal_power_by_recursion(P, m)

    def test_corrupted_root_is_rejected(self):
        # Every a mod ell that is not a root of Phi_n is refused.  From
        # a = 22 mod 43 at n = 21 one Newton step lands on the lift of
        # another root, so a check mod ell^m after the lift alone misses it.
        for ell, n in ((11, 5), (13, 12), (29, 4), (43, 21)):
            ideals = split_prime(ell, n)
            roots = {P.g_poly for P in ideals}
            for c in range(ell):
                if (c, 1) in roots:
                    continue
                corrupted = dataclasses.replace(ideals[0], g_poly=(c, 1))
                for m in (1, 2, 3):
                    with pytest.raises(ArithmeticError):
                        ideal_lattice(corrupted, m)


class TestMembership:
    """A point lies in the lattice exactly when its coset code is 0."""

    def setup_method(self):
        self.lat = ideal_lattice(ideal_above(2, 4), 1)  # the ideal of 1+i

    def member(self, point):
        return self.lat.coset_codes(np.array([point]))[0] == 0

    def test_zero_is_member_everywhere(self):
        assert self.member((0, 0))

    def test_generator_is_member(self):
        assert self.member((1, 1))

    def test_one_is_not_member(self):
        assert not self.member((1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.member((1, 0, 0))


class TestCosets:
    def setup_method(self):
        self.lat = ideal_lattice(ideal_above(5, 4), 2)  # index 25

    def test_members_map_to_zero(self):
        for row in self.lat.basis:
            assert self.lat.coset_id(row) == (0, 0)

    def test_translation_by_basis_row_preserves_id(self):
        rng = random.Random(4)
        for _ in range(30):
            z = (rng.randrange(-50, 50), rng.randrange(-50, 50))
            for row in self.lat.basis:
                shifted = tuple(a + b for a, b in zip(z, row))
                assert self.lat.coset_id(z) == self.lat.coset_id(shifted)

    def test_id_count_equals_index(self):
        ids = {self.lat.coset_id(p) for p in box_points(12, 2)}
        assert len(ids) == self.lat.index

    def test_reduction_composes(self):
        rng = random.Random(8)
        for _ in range(30):
            z = (rng.randrange(-99, 99), rng.randrange(-99, 99))
            w = (rng.randrange(-99, 99), rng.randrange(-99, 99))
            direct = self.lat.coset_id(tuple(a + b for a, b in zip(z, w)))
            via_ids = self.lat.coset_id(
                tuple(a + b for a, b in zip(self.lat.coset_id(z), self.lat.coset_id(w)))
            )
            assert direct == via_ids


def box_rows(radius, d):
    return np.concatenate(list(box_blocks(radius, d)))


class TestBoxPoints:
    def test_radius_zero(self):
        assert [block.tolist() for block in box_blocks(0, 3)] == [[[0, 0, 0]]]

    def test_radius_one_plane(self):
        assert box_rows(1, 2).shape == (9, 2)

    def test_radius_two_rank_four(self):
        assert sum(len(block) for block in box_blocks(2, 4)) == 625

    def test_lexicographic_order(self):
        pts = box_rows(1, 2).tolist()
        assert pts == sorted(pts)
        assert pts[0] == [-1, -1] and pts[-1] == [1, 1]
        assert [tuple(p) for p in box_rows(2, 3).tolist()] == list(box_points(2, 3))

    def test_blocks_of_at_most_block_rows(self, monkeypatch):
        monkeypatch.setattr(lattices, "BLOCK_ROWS", 7)
        blocks = list(box_blocks(2, 3))
        assert [len(block) for block in blocks] == [7] * 17 + [6]
        assert all(block.dtype == np.int64 for block in blocks)
        assert np.concatenate(blocks).tolist() == [list(p) for p in box_points(2, 3)]

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            list(box_blocks(-1, 2))


class TestPointsInBox:
    """points_in_box against a scan of the box for coset code 0."""

    @staticmethod
    def scan(lat, radius):
        rows = box_rows(radius, lat.d)
        return set(map(tuple, rows[lat.coset_codes(rows) == 0].tolist()))

    @given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 6), st.integers(3, 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_member_scan(self, d0, off, d1, radius):
        lat = hnf([[d0, 0], [off, d1]])
        assert set(lat.points_in_box(radius)) == self.scan(lat, radius)

    def test_rank_four_case(self):
        ideal = split_prime(2, 5)[0]  # inert, norm 16
        lat = ideal_lattice(ideal, 1)
        assert set(lat.points_in_box(3)) == self.scan(lat, 3)


class TestPointBlocks:
    @given(st.sampled_from(CONDUCTORS), st.integers(0, 20), st.integers(2, 3), st.integers(1, 70))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_walk(self, n, which, k, radius):
        lat = power_lattice(n, which, k)
        radius = min(radius, WALK_RADIUS[ring_degree(n)])
        assert block_points(lat, radius) == sorted(lattice_walk(lat, radius))

    def test_split_frontier_matches_the_walk(self, monkeypatch):
        monkeypatch.setattr(lattices, "BLOCK_ROWS", 7)
        lat = ideal_lattice(ideal_above(2, 4), 2)  # the lattice of (2), index 4
        expected = sorted(lattice_walk(lat, 30))
        assert len(expected) == 31 * 31
        assert block_points(lat, 30) == expected
        # a frontier splits down to single prefixes, whose runs span the side
        assert all(len(block) <= 61 for block in lattices.lattice_point_blocks((lat,), 30))

    def test_entries_beyond_int64(self):
        lat = hnf([[2**64, 0], [5, 3]])
        assert block_points(lat, 10) == sorted(lattice_walk(lat, 10))
        assert block_points(lat, 10) == [(5 * c, 3 * c) for c in range(-2, 3)]

    @staticmethod
    def tail_start(lat):
        """t, one past the last diagonal entry above 1."""
        return max((i + 1 for i in range(lat.d) if lat.basis[i][i] > 1), default=0)

    def test_every_diagonal_above_one(self):
        lat = ideal_lattice(split_prime(2, 5)[0], 2)  # 2 is inert: P^2 = (4)
        assert self.tail_start(lat) == lat.d == 4
        assert block_points(lat, 5) == sorted(lattice_walk(lat, 5))
        assert len(block_points(lat, 5)) == 3**4

    def test_several_points_per_prefix(self):
        lat = ideal_lattice(ideal_above(7, 3), 1)  # norm 7, diagonal (7, 1)
        assert self.tail_start(lat) == 1 and lat.index == 7
        expected = sorted(lattice_walk(lat, 40))
        assert block_points(lat, 40) == expected
        assert len(expected) > 10 * 81  # about 81 / 7 points per tail row

    @pytest.mark.parametrize(
        "generators",
        [
            [[1, 0, 0], [0, 3, 0], [0, 2, 1]],  # diagonal (1, 3, 1)
            [[2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 3, 0], [1, 2, 2, 1]],
            [[1, 0], [0, 1]],  # Z^2: the walk is the tail box itself
        ],
    )
    def test_plain_lattices(self, generators):
        lat = hnf(generators)
        for radius in (1, 4):
            assert block_points(lat, radius) == sorted(lattice_walk(lat, radius))

    @pytest.mark.parametrize("block_rows", [5, 300, lattices.BLOCK_ROWS])
    def test_lattices_walked_together(self, monkeypatch, block_rows):
        """Lattices of tail starts 0, 1, 2 and 4 in one call at d = 4, 6 and
        8, joined a group of one tail start at a time; the one-point walk is
        the oracle."""
        monkeypatch.setattr(lattices, "BLOCK_ROWS", block_rows)
        for n, radius, cap in [(5, 3, 200), (9, 2, 100), (16, 1, 100)]:
            d = ring_degree(n)
            group = [ideal_lattice(P, k) for P in enumerate_prime_ideals(n, cap) for k in (1, 2)]
            group.append(hnf([[int(i == j) for j in range(d)] for i in range(d)]))  # Z^d, t = 0
            diagonal = [2, 1, 1, 3] + [1] * (d - 4)  # t = 4
            group.append(hnf([[diagonal[i] if i == j else int(j == 0 < i) for j in range(d)] for i in range(d)]))
            assert {self.tail_start(lat) for lat in group} >= {0, 1, 2, 4}
            cyclic = [lat.index for lat in group if self.tail_start(lat) == 1]
            assert min(cyclic) < 2 * radius + 1 < max(cyclic)  # a ramified prime's norm is below the side
            blocks = list(lattices.lattice_point_blocks(group, radius))
            assert sorted(tuple(p) for block in blocks for p in block.tolist()) == sorted(
                p for lat in group for p in lattice_walk(lat, radius)
            )
            assert all(len(block) <= 2 * block_rows for block in blocks)

    def test_join_keys_beyond_int64(self):
        lat = hnf([[2**62, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert self.tail_start(lat) == 1
        assert block_points(lat, 1) == sorted(lattice_walk(lat, 1))
        assert len(block_points(lat, 1)) == 27  # x_0 = x_1, x_2 and x_3 free

    @pytest.mark.parametrize("half, dtype", [(2**29 - 1, np.int64), (2**29 + 1, object)])
    def test_codes_on_each_side_of_int64(self, half, dtype):
        """Diagonal (half, 2, 1, 1), t = 2: the codes are int64 while
        max(d (r + index), 1) index < 2^62, about index < 2^30 at d = 4."""
        lat = hnf([[half, 0, 0, 0], [half - 1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert self.tail_start(lat) == 2 and lat.index == 2 * half
        assert lattices._codes(np.zeros((1, 4), dtype=np.int64), [lat], 2).dtype == dtype
        expected = sorted(lattice_walk(lat, 2))
        assert len(expected) == 3 * 25  # (-c, 2c) for c in -1..1, x_2 and x_3 free
        assert block_points(lat, 2) == expected

    @pytest.mark.parametrize("block_rows", [5, 300])
    @given(st.sampled_from((4, 6)), st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_tail_start_in_one_group(self, block_rows, d, data):
        """One lattice of each tail start t = 0..d, from random lower-triangular
        generators whose diagonal is the HNF's, cleared in one call."""
        group = []
        for t in range(d + 1):
            diagonal = [data.draw(st.integers(1, 4)) for _ in range(t - 1)] + [data.draw(st.integers(2, 5))] * (t > 0)
            diagonal += [1] * (d - t)
            rows = [[diagonal[i] if i == j else data.draw(st.integers(0, 9)) * (j < i) for j in range(d)] for i in range(d)]
            group.append(hnf(rows))
        assert [self.tail_start(lat) for lat in group] == list(range(d + 1))
        radius = 2 if d == 4 else 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattices, "BLOCK_ROWS", block_rows)
            blocks = list(lattices.lattice_point_blocks(group, radius))
        assert sorted(tuple(p) for block in blocks for p in block.tolist()) == sorted(
            p for lat in group for p in lattice_walk(lat, radius)
        )
        assert all(len(block) <= block_rows for block in blocks)

    def test_points_in_box_yields_tuples(self):
        lat = ideal_lattice(ideal_above(5, 4), 2)
        points = list(lat.points_in_box(9))
        assert all(type(p) is tuple and all(type(v) is int for v in p) for p in points)
        assert sorted(points) == sorted(lattice_walk(lat, 9))


class TestCosetCodes:
    # Conductors 16, 20 and 21 have tails t up to 8 (the lattice of (2) = P^2 at n = 20).
    @given(st.sampled_from(CONDUCTORS + (16, 20, 21)), st.integers(0, 20), st.integers(2, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_match_coset_id(self, n, which, k, data):
        lat = power_lattice(n, which, k)
        bound = data.draw(st.sampled_from((10, 10**6, 2**70)))
        coord = st.integers(-bound, bound)
        points = data.draw(st.lists(st.lists(coord, min_size=lat.d, max_size=lat.d), min_size=1, max_size=20))
        codes = lat.coset_codes(exact_rows(points))
        assert [int(c) for c in codes] == [mixed_radix(lat, lat.coset_id(p)) for p in points]
        assert all(0 <= c < lat.index for c in codes)

    def test_match_coset_id_at_every_tail_of_the_added_conductors(self):
        rng = random.Random(2)
        tails = set()
        for n, which, k in itertools.product((16, 20, 21), range(8), (2, 3)):
            lat = power_lattice(n, which, k)
            tails.add(lat.tail)
            for bound in (10, 10**6, 2**70):
                points = [[rng.randint(-bound, bound) for _ in range(lat.d)] for _ in range(8)]
                codes = lat.coset_codes(exact_rows(points))
                assert [int(c) for c in codes] == [mixed_radix(lat, lat.coset_id(p)) for p in points]
        assert tails == {1, 2, 3, 8}

    def test_every_code_of_a_full_residue_box(self):
        lat = ideal_lattice(ideal_above(5, 4), 2)  # index 25
        points = box_rows(12, 2)
        assert sorted(set(lat.coset_codes(points).tolist())) == list(range(lat.index))

    def test_entries_beyond_int64(self):
        lat = hnf([[2**64, 0], [5, 3]])
        points = [[2**66 + 7, -4], [1, 1], [-(2**65), 2**65 + 1]]
        codes = lat.coset_codes(np.array(points, dtype=object))
        assert list(codes) == [mixed_radix(lat, lat.coset_id(p)) for p in points]
        # 0 and 2^63 + 1 make a float64 array, which no longer holds 2^63 + 1
        with pytest.raises(ValueError, match="not integers"):
            lat.coset_codes(np.array([[0, 0], [0, 2**63 + 1]]))

