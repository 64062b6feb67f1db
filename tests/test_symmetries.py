import cmath
import json
import math
import random
import time

import numpy as np
import pytest
from _oracles import (
    apply, apply_element, box_points, euler_phi, h1_by_powers, h3_primes_by_divisors, is_kfree_by_valuations,
    scan_for_violation_by_box,
)

from cyclofree.arith import FactorBudgetError, ResourceCapError, determinant, factor_integer, primes_up_to
from cyclofree.cyclotomic import CycInt, ring_degree
from cyclofree.kfree import sieve_box
from cyclofree.prime_ideals import is_in_Wk, split_prime, valuation
from cyclofree.certificates import (
    AqCandidate,
    AqNotFound,
    FourSumSolution,
    FourSumsReport,
    LemmaFactorsReport,
    aq_search,
    splitting_primes,
    vanishing_four_sums,
    verify_lemma_factors,
)
from cyclofree.symmetries import (
    COPRIMALITY_PRIMES,
    COPRIMALITY_RADIUS,
    COPRIMALITY_SAMPLE,
    COPRIMALITY_SEED,
    WK_SEARCH_RADIUS,
    GaloisGroup,
    SymmetryElement,
    galois_group,
    generator_elements,
    identity_element,
    sample_rows,
    scan_for_violation,
    symmetry_element,
    unit_generators,
    verify_Wk_preservation,
    verify_coprimality_transport,
    verify_stabiliser_action,
    verify_stabiliser_actions,
)
from cyclofree.prime_ideals import is_kfree

CONDUCTORS = [3, 4, 5, 8, 12]


class TestGaloisGroup:
    def test_conductor_four(self):
        group = galois_group(4)
        assert group.elements == (1, 3)
        assert group.order == 2

    def test_conductor_twelve_is_klein_four(self):
        group = galois_group(12)
        assert group.order == 4
        for r in group.elements:
            assert r * r % 12 == 1

    def test_order_is_totient(self):
        for n in range(3, 101):
            if n % 4 == 2:
                continue
            assert galois_group(n).order == euler_phi(n)

    def test_closure_and_crt(self):
        group = galois_group(12)
        members = set(group.elements)
        assert all(r * s % 12 in members for r in members for s in members)
        assert group.crt_factors == ((2, 2, 2), (3, 1, 2))

    def test_elements_and_crt_shape_are_read_from_n(self):
        assert GaloisGroup(12) == galois_group(12)
        assert GaloisGroup(45).crt_factors == ((3, 2, 6), (5, 1, 4))
        with pytest.raises(TypeError):
            GaloisGroup(12, (1, 5, 7, 11), ((2, 2, 2), (3, 1, 2)))


class TestUnitGenerators:
    def test_gaussian_units_are_roots_of_unity_only(self):
        gens = unit_generators(4)
        assert [g.coeffs for g in gens] == [(-1, 0), (0, 1)]

    def test_composite_conductor_includes_one_minus_root(self):
        gens = unit_generators(12)
        u = CycInt.one(12) - CycInt.root(12)
        assert u in gens
        assert abs(u.norm()) == 1

    def test_prime_conductor_includes_cyclotomic_unit(self):
        gens = unit_generators(5)
        assert CycInt(5, (1, 1, 0, 0)) in gens  # 1 + zeta_5

    def test_every_generator_is_a_unit(self):
        # A prime power keeps -1, zeta and one unit per a in [2, n/2] prime
        # to n, none of them +-zeta^t.
        for n in CONDUCTORS + [7, 9, 15, 16, 20, 25, 27, 32, 49]:
            gens = unit_generators(n)
            for u in gens:
                assert abs(u.norm()) == 1
            if len(factor_integer(n)) == 1:
                assert len(gens) == 2 + sum(1 for a in range(2, n // 2 + 1) if math.gcd(a, n) == 1), n
                roots = {s * CycInt.root(n, t) for t in range(n) for s in (1, -1)}
                assert not roots & set(gens[2:]), n


class TestSymmetryElements:
    def test_identity_matrix(self):
        el = identity_element(5)
        assert el.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        )

    def test_multiplication_by_i_is_rotation(self):
        el = symmetry_element(CycInt.root(4), 1)
        assert el.matrix == ((0, -1), (1, 0))

    def test_matrix_realizes_the_map_on_random_points(self):
        rng = random.Random(2)
        for n in CONDUCTORS:
            d = ring_degree(n)
            for el in generator_elements(n):
                p = tuple(rng.randrange(-9, 10) for _ in range(d))
                x = CycInt(n, p)
                assert apply(el, p) == apply_element(el, x).coeffs

    def test_determinants_are_unimodular(self):
        for n in CONDUCTORS:
            for el in generator_elements(n):
                assert abs(determinant(el.matrix)) == 1

    def test_semidirect_group_law(self):
        rng = random.Random(5)
        for n in CONDUCTORS:
            gens = generator_elements(n)
            for _ in range(10):
                e1, e2 = rng.choice(gens), rng.choice(gens)
                composed = e1.compose(e2)
                d = e1.d
                product = tuple(
                    tuple(sum(e1.matrix[i][t] * e2.matrix[t][j] for t in range(d)) for j in range(d))
                    for i in range(d)
                )
                assert composed.matrix == product
                assert composed.unit == e1.unit * e2.unit.galois(e1.r)
                assert composed.r == (e1.r * e2.r) % n

    def test_inverse_composes_to_identity(self):
        for n in CONDUCTORS:
            for el in generator_elements(n):
                assert el.compose(el.inverse()).matrix == identity_element(n).matrix

    def test_inverse_and_compose_act_on_the_matrix(self):
        # (unit, r) = (1, 1) is the identity, but the matrix is a shear.
        shear = SymmetryElement(n=4, r=1, matrix=((1, 1), (0, 1)))
        assert shear.inverse().matrix == ((1, -1), (0, 1))
        assert shear.compose(shear.inverse()).matrix == identity_element(4).matrix
        assert shear.compose(shear).matrix == ((1, 2), (0, 1))

    def test_describe_names_a_matrix_that_is_not_the_map(self):
        shear = SymmetryElement(n=4, r=1, matrix=((1, 1), (0, 1)))
        report = verify_stabiliser_action(shear, sieve_box(4, 2, 5), sample_size=20)
        assert report.element == {"unit_coeffs": [1, 0], "r": 1, "matrix": [[1, 1], [0, 1]]}
        for n in CONDUCTORS:
            for el in generator_elements(n):
                assert el.describe() == {"unit_coeffs": list(el.unit.coeffs), "r": el.r}

    def test_inverses_and_composites_of_generators_are_maps(self):
        # the unit read from column 0 with r r' (or r^-1) rebuilds each matrix
        for n in CONDUCTORS:
            gens = generator_elements(n)
            for el in [g.inverse() for g in gens] + [a.compose(b) for a in gens for b in gens[:3]]:
                assert "matrix" not in el.describe()
                assert el.matrix == symmetry_element(el.unit, el.r).matrix

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            symmetry_element(CycInt.from_int(4, 2), 1)


class TestStabiliserAction:
    def test_identity_passes_trivially(self):
        box = sieve_box(4, 2, 10)
        report = verify_stabiliser_action(identity_element(4), box, sample_size=50)
        assert report.passed and report.checked == 100

    def test_gaussian_rotation_with_conjugation(self):
        element = symmetry_element(CycInt.root(4), 3)
        report = verify_stabiliser_action(element, sieve_box(4, 2, 25), sample_size=300)
        assert report.passed

    @pytest.mark.parametrize("size, seed", [(0, 0), (1, 5), (1000, 3), (10**6, 0)])
    def test_sample_rows_are_the_seeded_sample_of_the_points(self, monkeypatch, size, seed):
        # 21 slabs x_1 = c of 21^3 cells each; the sample is read without point_array
        box = sieve_box(5, 2, 10)
        points = box.point_array()
        expected = points if len(points) <= size else points[random.Random(seed).sample(range(len(points)), size)]

        def refuse(self):
            raise AssertionError("point_array called")

        monkeypatch.setattr(type(box), "point_array", refuse)
        rows = sample_rows(box, size, seed)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected)

    def test_shear_is_not_a_stabiliser(self):
        witness = scan_for_violation(((1, 1), (0, 1)), 4, 2, radius_cap=10)
        assert witness is not None
        x = CycInt(4, witness)
        from cyclofree.prime_ideals import is_kfree

        assert is_kfree(x, 2)
        image = (witness[0] + witness[1], witness[1])
        assert not is_kfree(CycInt(4, image), 2)

    def test_shear_failures_match_the_oracle_loop(self):
        # the element's failing rows come first, in sample order, then the inverse's
        shear = SymmetryElement(n=4, r=1, matrix=((1, 1), (0, 1)))
        box = sieve_box(4, 2, 20)
        report = verify_stabiliser_action(shear, box, sample_size=300, seed=3)
        sample = random.Random(3).sample(box.sorted_points(), 300)
        by_shear, by_inverse = (
            [p for p in sample if not is_kfree_by_valuations(CycInt(4, apply(mapping, p)), 2)]
            for mapping in (shear, shear.inverse())
        )
        assert by_shear and by_inverse
        assert report.failures == by_shear + by_inverse
        assert report.checked == 2 * 300

    def test_shear_Wk_and_coprimality_failures_match_the_oracle_loop(self):
        # Both checks act by the element's matrix, not by (unit, r): here the
        # matrix is a shear while (unit, r) = (1, 1) is the identity.
        shear = SymmetryElement(n=4, r=1, matrix=((1, 1), (0, 1)))
        inverse = shear.inverse()

        def in_w2(point):
            return is_in_Wk(CycInt(4, point), 2)

        report = verify_Wk_preservation(shear, 2, norm_bound=100)
        found = [
            p for p in box_points(WK_SEARCH_RADIUS, 2)
            if any(p) and abs(CycInt(4, p).norm()) <= 100 and in_w2(p)
        ]
        expected = [p for p in found if not (in_w2(apply(shear, p)) and in_w2(apply(inverse, p)))]
        assert report.failures == expected and report.checked == len(found)
        assert (1, 1) in expected  # 1 + i is in W_2, its image 2 + i has norm 5

        report = verify_coprimality_transport(shear, 2)
        box = sieve_box(4, 2, COPRIMALITY_RADIUS)
        sample = random.Random(COPRIMALITY_SEED).sample(box.sorted_points(), COPRIMALITY_SAMPLE)
        expected, checked = [], 0
        for p in sample:
            x, y = CycInt(4, p), CycInt(4, apply(shear, p))
            for ell in (q for q in primes_up_to(COPRIMALITY_PRIMES) if 4 % q):
                ideals = split_prime(ell, 4)
                if all(valuation(x, P) == 0 for P in ideals):
                    checked += 1
                    if any(valuation(y, P) for P in ideals):
                        expected.append((p, ell))
        assert report.failures == expected and report.checked == checked
        assert len(expected) > len({p for p, _ in expected})  # one point fails at two primes

    @pytest.mark.parametrize("walk", ["scan", "W_k"])
    def test_degree_twelve_walks_are_refused_before_walking(self, walk, monkeypatch):
        # The scan to radius 2 visits 3^12 + 5^12 rows, the W_k search 11^12:
        # both above the default cap, so neither walks a row.
        monkeypatch.delenv("CYCLOFREE_MAX_POINTS", raising=False)
        el = symmetry_element(CycInt.root(13), 2)
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="above the cap"):
            if walk == "scan":
                scan_for_violation(el.matrix, 13, 2, radius_cap=2)
            else:
                verify_Wk_preservation(el, 2, norm_bound=100)
        assert time.perf_counter() - start < 1.0

    def test_walk_cap_counts_every_box_visited(self, monkeypatch):
        # At n = 4 the scan to radius 2 visits 3^2 + 5^2 = 34 rows and the
        # W_k search 11^2 = 121: a cap of exactly that runs, one less refuses.
        el = symmetry_element(CycInt.root(4), 1)
        for cap, refused in ((33, True), (34, False)):
            monkeypatch.setenv("CYCLOFREE_MAX_POINTS", str(cap))
            if refused:
                with pytest.raises(ResourceCapError, match=r"boxes of 3\^2 to 5\^2 points"):
                    scan_for_violation(el.matrix, 4, 2, radius_cap=2)
            else:
                assert scan_for_violation(el.matrix, 4, 2, radius_cap=2) is None
        for cap, refused in ((120, True), (121, False)):
            monkeypatch.setenv("CYCLOFREE_MAX_POINTS", str(cap))
            if refused:
                with pytest.raises(ResourceCapError, match=r"W_k search box has 11\^2 points"):
                    verify_Wk_preservation(el, 2, norm_bound=100)
            else:
                assert verify_Wk_preservation(el, 2, norm_bound=100).passed

    def test_stabiliser_matrix_has_no_violation_scan(self):
        el = symmetry_element(CycInt.root(4), 1)
        assert scan_for_violation(el.matrix, 4, 2, radius_cap=6) is None

    @pytest.mark.parametrize(
        "n, matrix, stabilises, cap",
        [
            (4, symmetry_element(CycInt.root(4), 1).matrix, True, 12),
            (4, symmetry_element(CycInt.root(4), 1).matrix, True, 30),
            (4, ((1, 1), (0, 1)), False, 12),
            (5, symmetry_element(CycInt.root(5), 2).matrix, True, 4),
            (5, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), False, 4),
            (8, tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(4)) for i in range(4)), False, 3),
            (12, symmetry_element(CycInt.root(12), 5).matrix, True, 3),
        ],
        ids=["n4-stabiliser", "n4-stabiliser-cap30", "n4-shear", "n5-stabiliser", "n5-shear", "n8-shear",
             "n12-stabiliser"],
    )
    def test_shell_scan_matches_the_box_scan(self, n, matrix, stabilises, cap):
        witness = scan_for_violation(matrix, n, 2, radius_cap=cap)
        assert witness == scan_for_violation_by_box(matrix, n, 2, radius_cap=cap)
        assert (witness is None) == stabilises

    def test_box_of_another_conductor_rejected(self):
        with pytest.raises(ValueError, match="conductor"):
            verify_stabiliser_action(identity_element(4), sieve_box(3, 2, 2))

    def test_report_json(self):
        box = sieve_box(4, 2, 5)
        report = verify_stabiliser_action(identity_element(4), box, sample_size=10)
        doc = json.loads(report.to_json())
        assert doc["failures"] == [] and doc["checked"] == report.checked


class TestStabiliserActionBatch:
    @pytest.mark.parametrize("n, radius", [(4, 12), (5, 3), (12, 3)])
    def test_batch_matches_one_element_at_a_time(self, n, radius):
        box = sieve_box(n, 2, radius)
        sample = sample_rows(box, 200, 7)
        elements = generator_elements(n)
        batch = verify_stabiliser_actions(elements, box, sample)
        assert batch == [verify_stabiliser_action(el, box, sample_size=200, seed=7) for el in elements]
        assert all(r.passed and r.checked == 2 * len(sample) for r in batch)

    @pytest.mark.parametrize("stack_rows", [1 << 15, 7, 1])
    def test_shear_between_generators_gets_its_own_failures(self, stack_rows, monkeypatch):
        # 7 images cut the 300 rows into uneven slices; 1 gives one row a slice
        monkeypatch.setattr("cyclofree.symmetries.STACK_ROWS", stack_rows)
        shear = SymmetryElement(n=4, r=1, matrix=((1, 1), (0, 1)))
        first, *rest = generator_elements(4)
        box = sieve_box(4, 2, 20)
        sample = sample_rows(box, 300, 3)
        reports = verify_stabiliser_actions([first, shear, *rest], box, sample)
        expected = [
            p for mapping in (shear, shear.inverse()) for p in map(tuple, sample.tolist())
            if not is_kfree_by_valuations(CycInt(4, apply(mapping, p)), 2)
        ]
        assert reports[1].failures == expected and expected
        assert reports[1].checked == 2 * len(sample)
        assert reports[1].element == shear.describe()
        assert all(r.passed for i, r in enumerate(reports) if i != 1)

    def test_empty_sample_and_no_elements(self):
        box = sieve_box(12, 2, 2)
        elements = generator_elements(12)
        reports = verify_stabiliser_actions(elements, box, sample_rows(box, 0, 0))
        assert [(r.checked, r.failures) for r in reports] == [(0, [])] * len(elements)
        assert verify_stabiliser_actions([], box, sample_rows(box, 50, 1)) == []


class TestWkPreservation:
    def test_roots_of_unity_stay_in_Wk(self):
        el = symmetry_element(CycInt.root(4), 3)
        for t in range(4):
            image = apply_element(el, CycInt.root(4, t))
            assert is_in_Wk(image, 2)

    def test_one_plus_i_maps_inside_W2(self):
        el = symmetry_element(CycInt.root(4), 3)
        image = apply_element(el, CycInt(4, (1, 1)))
        assert is_in_Wk(image, 2)

    def test_box_enumeration_report(self):
        el = symmetry_element(CycInt.root(4), 3)
        report = verify_Wk_preservation(el, 2, norm_bound=100)
        assert report.passed
        assert report.checked >= 8  # units and the ramified generators

    def test_infinite_order_unit_preserves_Wk(self):
        # 1 - zeta_12 has infinite multiplicative order; multiplication by it
        # permutes W_2 all the same
        el = symmetry_element(CycInt.one(12) - CycInt.root(12), 5)
        report = verify_Wk_preservation(el, 2, norm_bound=200)
        assert report.passed and report.checked > 0

    def test_coprimality_transport(self):
        el = symmetry_element(CycInt.root(4), 3)
        report = verify_coprimality_transport(el, 2)
        assert report.passed and report.checked > 0


class TestSplittingPrimes:
    def test_twelve_up_to_hundred(self):
        assert splitting_primes(12, 100) == (13, 37, 61, 73, 97)

    def test_four_gives_one_mod_four(self):
        got = splitting_primes(4, 60)
        assert got == (5, 13, 17, 29, 37, 41, 53)
        assert all(p % 4 == 1 for p in got)

    def test_members_split_completely(self):
        for ell in splitting_primes(12, 100):
            ideals = split_prime(ell, 12)
            assert len(ideals) == euler_phi(12)
            assert all(P.f == 1 and P.e == 1 for P in ideals)

    def test_trivial_modulus(self):
        assert splitting_primes(1, 10) == (2, 3, 5, 7)


class TestAqSearch:
    def test_h2_alone(self):
        # 6 is divisible by both primes of 12
        assert all(6 % p == 0 for p in (2, 3))

    def test_h1_rejects_proper_subgroup_orders(self):
        # ord(1 mod 25) = 1, so a = 1 can never satisfy (H1) for n = 4, q = 5;
        # a = 7 has 7^2 = 49 = -1 mod 25, order 4 < 20, also rejected
        from cyclofree.certificates import _check_h1

        assert not _check_h1(1, 4, 5)
        assert not _check_h1(7, 4, 5)
        assert _check_h1(2, 4, 5)

    def test_h1_matches_the_power_test(self):
        from cyclofree.certificates import _check_h1

        for q in (3, 5, 7, 11, 13):
            for n in range(1, 13):
                for a in range(-q * q, q * q):
                    assert _check_h1(a, n, q) == h1_by_powers(a, n, q), (a, n, q)

    def test_h3_primes_match_the_divisor_loop(self):
        from cyclofree.certificates import _h3_moduli

        for n in (n for n in range(3, 200) if n % 4 != 2):
            for q in (101, 1009):
                assert _h3_moduli(n, 3000, q) == h3_primes_by_divisors(n, 3000, q), (n, q)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24])
    def test_search_matches_the_oracle_scan(self, n):
        # The least multiple of the radical of n meeting the oracles' (H1)
        # and (H3), for the first two primes q = 1 mod n.
        radical = math.prod(factor_integer(n))
        for q in [q for q in primes_up_to(400) if q % n == 1][:2]:
            h3_primes = h3_primes_by_divisors(n, 2 * q, q)
            expected = next(
                a for a in range(radical, 10**6, radical)
                if h1_by_powers(a, n, q) and all(pow(a, n, ell * ell) != 1 for ell in h3_primes)
            )
            cand = aq_search(n, q, ell_bound=2 * q, a_bound=10**6)
            assert cand.a == expected and cand.validate(), (n, q)

    def test_search_finds_least_candidate(self):
        cand = aq_search(4, 5, ell_bound=100, a_bound=1000)
        assert cand.a == 2
        # independent re-derivation of the three hypotheses
        from cyclofree.arith import multiplicative_order, primes_up_to

        assert multiplicative_order(cand.a, 25) == 20
        assert cand.a % 2 == 0
        for ell in primes_up_to(100):
            if ell != 5 and ell % 4 == 1:
                assert pow(cand.a, 4, ell * ell) != 1

    def test_validate_and_json_roundtrip(self):
        cand = aq_search(12, 13, ell_bound=500, a_bound=10**4)
        assert cand.validate()
        again = AqCandidate.from_json(cand.to_json())
        assert again == cand
        tampered = json.dumps({"n": 12, "q": 13, "a": cand.a + 1, "ell_bound": 500})
        with pytest.raises(ValueError):
            AqCandidate.from_json(tampered)

    def test_not_found_reports_range(self):
        with pytest.raises(AqNotFound, match=r"\[1, 4\]"):
            aq_search(12, 13, ell_bound=100, a_bound=4)

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            aq_search(12, 11, ell_bound=100, a_bound=100)


@pytest.fixture(scope="module")
def candidate():
    return aq_search(12, 13, ell_bound=2000, a_bound=10**5)


class TestLemmaFactors:

    def test_all_assertions_for_small_divisor(self, candidate):
        report = verify_lemma_factors(candidate, 3, 1)
        assert report.element == CycInt.root(3, 1) - candidate.a ** (12 // 3)
        assert report.complete and report.passed
        assert all(ell % 3 == 1 for ell in report.prime_factors)

    def test_conductor_m_equals_n(self, candidate):
        report = verify_lemma_factors(candidate, 12, 5)
        assert report.passed

    def test_element_is_never_a_unit(self, candidate):
        # a unit would sit inside W_2 and fail the outside_W2 assertion
        report = verify_lemma_factors(candidate, 4, 1)
        assert report.norm > 1 and report.outside_W2

    def test_rho_budget_gives_a_partial_report(self, candidate, monkeypatch):
        import cyclofree.certificates as certificates_mod

        def exhausted(value):
            raise FactorBudgetError(f"rho took too many steps on {value}")

        monkeypatch.setattr(certificates_mod, "factor_integer", exhausted)
        report = verify_lemma_factors(candidate, 3, 1)
        assert not report.complete and not report.passed
        assert report.prime_factors == () and not report.two_free

    def test_report_stores_only_what_was_measured(self, candidate):
        report = verify_lemma_factors(candidate, 3, 1)
        again = LemmaFactorsReport(12, 3, 1, candidate.a, report.prime_factors, complete=True)
        assert again == report and again.passed and again.norm == report.norm
        with pytest.raises(TypeError):
            LemmaFactorsReport(
                12, 3, 1, candidate.a, report.element, report.norm, report.prime_factors,
                True, True, True, True, True,
            )

    def test_invalid_divisors_rejected(self, candidate):
        with pytest.raises(ValueError):
            verify_lemma_factors(candidate, 5, 1)
        with pytest.raises(ValueError):
            verify_lemma_factors(candidate, 12, 4)

    # At n = 12, a = 7 and 19 give elements that are not 2-free.
    @pytest.mark.parametrize("n, a_values", [(12, (2, 3, 4, 5, 7, 19)), (24, (2, 3, 4, 5))])
    def test_norm_is_factored_once_and_two_free_matches_is_kfree(self, n, a_values, monkeypatch):
        import cyclofree.certificates as certificates_mod
        import cyclofree.prime_ideals as prime_ideals_mod

        factored = []

        def counting(value):
            factored.append(value)
            return factor_integer(value)

        for module in (certificates_mod, prime_ideals_mod):
            monkeypatch.setattr(module, "factor_integer", counting)
        divisors = [m for m in range(3, n + 1) if n % m == 0 and m % 4 != 2]
        two_free = []
        for a in a_values:
            candidate = AqCandidate(n=n, q=n + 1, a=a, ell_bound=0)
            for m in divisors:
                for j in (j for j in range(m) if math.gcd(j, m) == 1):
                    del factored[:]
                    report = verify_lemma_factors(candidate, m, j)
                    assert factored == [report.norm]
                    y = CycInt.root(m, j) - a ** (n // m)
                    assert report.element == y and report.norm == abs(y.norm())
                    assert report.complete
                    assert report.prime_factors == tuple(sorted(factor_integer(report.norm)))
                    assert report.two_free == is_kfree(y, 2)
                    two_free.append(report.two_free)
                    in_w2 = report.two_free and all(m % ell == 0 for ell in report.prime_factors)
                    assert report.outside_W2 == (not in_w2)
                    assert report.factors_split == all(ell % m == 1 for ell in report.prime_factors)
                    assert report.factors_coprime_to_m == all(m % ell for ell in report.prime_factors)
        assert any(two_free) and (n != 12 or not all(two_free))


class TestRootsOfOrderTable:
    def test_group_law_including_twice_odd_orders(self):
        from cyclofree.certificates import _roots_of_order

        for order in (1, 2, 3, 4, 6, 10, 12, 18):
            roots = _roots_of_order(order)
            assert len(roots) == order
            for s in range(order):
                for t in range(order):
                    assert roots[s] * roots[t] == roots[(s + t) % order], (order, s, t)
            # primitivity: no earlier power returns to 1
            if order > 1:
                assert all(roots[t] != roots[0] for t in range(1, order))


class TestVanishingFourSums:
    def test_three_term_relation_not_reported_for_eisenstein(self):
        # 1 + zeta + zeta^2 = 0 is three terms; the four-term enumerator
        # must not smuggle it in via a repeated exponent
        report = vanishing_four_sums(3)
        assert report.solutions == []
        assert report.all_divide_six

    def test_no_survivors_for_small_conductors(self):
        for n in (1, 2, 4, 5, 7, 9):
            report = vanishing_four_sums(n)
            assert report.all_divide_six
            assert report.solutions == []

    def test_agrees_with_complex_float_oracle(self):
        for n in (8, 12):
            zeta = cmath.exp(2j * cmath.pi / n)
            float_zeros = set()
            for s1 in (1, -1):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        for i in range(n):
                            for j in range(i, n):
                                for k in range(j, n):
                                    value = 1 + s1 * zeta**i + s2 * zeta**j + s3 * zeta**k
                                    if abs(value) < 1e-9:
                                        float_zeros.add((s1, s2, s3, i, j, k))
            # every float zero must be an exact zero of the table the
            # enumerator uses, and every reported survivor is a float zero
            from cyclofree.certificates import _roots_of_order

            roots = _roots_of_order(n)
            for s1, s2, s3, i, j, k in float_zeros:
                total = roots[0] + s1 * roots[i] + s2 * roots[j] + s3 * roots[k]
                assert not total
            report = vanishing_four_sums(n)
            for sol in report.solutions:
                _, s1, s2, s3 = sol.signs
                _, i, j, k = sol.exponents
                value = 1 + s1 * zeta**i + s2 * zeta**j + s3 * zeta**k
                assert abs(value) < 1e-9
                assert sol.divides_six

    def test_report_derives_the_divisibility(self):
        six = FourSumSolution(signs=(1, -1, 1, -1), exponents=(0, 1, 2, 3), reduced_order=6)
        five = FourSumSolution(signs=(1, -1, 1, -1), exponents=(0, 1, 2, 3), reduced_order=5)
        assert FourSumsReport(6, [six]).all_divide_six
        assert not FourSumsReport(5, [six, five]).all_divide_six
        with pytest.raises(TypeError):
            FourSumsReport(6, [six], True)

    def test_divisibility_for_conductors_up_to_thirty(self):
        for n in range(1, 31):
            assert vanishing_four_sums(n).all_divide_six

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            vanishing_four_sums(200)
