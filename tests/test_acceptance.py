"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them live)."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from _oracles import character_oracle_gaussian, euler_phi

from cyclofree.arith import determinant, primes_up_to
from cyclofree.cyclotomic import ring_degree
from cyclofree.kfree import (
    density_estimate,
    hereditary_check,
    is_admissible,
    patch_entropy_estimate,
    sieve_box,
)
from cyclofree.lattices import box_blocks, ideal_lattice
from cyclofree.prime_ideals import kfree_mask, split_prime
from cyclofree.certificates import aq_search, vanishing_four_sums, verify_lemma_factors
from cyclofree.symmetries import generator_elements, verify_stabiliser_action
from cyclofree.zeta import dedekind_zeta, entropy_constant, log2_interval

SAMPLE_RADIUS = {2: 28, 4: 5}


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def gaussian_box_300():
    return sieve_box(4, 2, 300)


def test_criterion_01_density_matches_zeta_constant():
    t0 = time.perf_counter()
    details = []
    for n in (4, 3):
        box = sieve_box(n, 2, 300)
        rep = density_estimate(box, prime_bound=10**6)
        details.append(f"n={n}: gap {rep.relative_gap:.4%}")
        assert rep.relative_gap <= 0.02, (n, rep.relative_gap)
    # cross-check of the Euler product against the character decomposition
    z = dedekind_zeta(4, 2, 10**6)
    lo, hi = character_oracle_gaussian(2)
    assert Fraction(lo) <= z.upper and z.lower <= Fraction(hi)
    elapsed = time.perf_counter() - t0
    report(
        "1",
        elapsed < 60.0,
        f"density within 2% ({'; '.join(details)}); oracle consistent; {elapsed:.1f}s < 60s",
    )


def test_criterion_02_higher_degree_density():
    t0 = time.perf_counter()
    box = sieve_box(5, 2, 12)
    rep = density_estimate(box, prime_bound=10**5)
    elapsed = time.perf_counter() - t0
    ok = rep.relative_gap <= 0.05 and elapsed < 600.0
    report(
        "2",
        ok,
        f"n=5 d=4 radius 12 ({box.box_volume} points): gap {rep.relative_gap:.4%} "
        f"within 5%; {elapsed:.1f}s < 600s",
    )


def test_criterion_03_sieve_equals_pointwise_valuations():
    mismatches = 0
    checked = 0
    for n in (3, 4, 5, 8, 12):
        points = np.concatenate(list(box_blocks(5, ring_degree(n))))
        for k in (2, 3):
            grid = sieve_box(n, k, 5).grid.reshape(-1)  # C order is box_blocks' order
            checked += len(points)
            mismatches += int(np.count_nonzero(grid != kfree_mask(points, n, k)))
    report("3", mismatches == 0, f"{checked} point/k pairs compared, {mismatches} discrepancies")


def test_criterion_04_splitting_sanity():
    conductors = (3, 4, 5, 7, 8, 9, 12, 15, 16)
    primes = primes_up_to(1000)
    lattice_checks = 0
    for n in conductors:
        d = euler_phi(n)
        for ell in primes:
            ideals = split_prime(ell, n)
            assert sum(P.e * P.f for P in ideals) == d, (n, ell)
            assert all(P.ramified == (n % ell == 0) for P in ideals), (n, ell)
            for P in ideals:
                for m in (1, 2, 3):
                    assert ideal_lattice(P, m).index == P.norm**m, (n, ell, m)
                    lattice_checks += 1
    report(
        "4",
        True,
        f"e*f sums, ramification set, and {lattice_checks} ideal power indices verified "
        f"for ell <= 1000, n in {conductors}",
    )


def test_criterion_05_stabiliser_action():
    total_checked = 0
    for n in (3, 4, 5, 8, 12):
        elements = generator_elements(n)
        # exact unimodularity and the semi-direct law on all generator pairs
        for el in elements:
            assert abs(determinant(el.matrix)) == 1
        for e1 in elements:
            for e2 in elements:
                composed = e1.compose(e2)
                d = e1.d
                product = tuple(
                    tuple(
                        sum(e1.matrix[i][t] * e2.matrix[t][j] for t in range(d))
                        for j in range(d)
                    )
                    for i in range(d)
                )
                assert composed.matrix == product, (n, e1.describe(), e2.describe())
        radius = SAMPLE_RADIUS[ring_degree(n)]
        for k in (2, 3):
            box = sieve_box(n, k, radius)
            for el in elements:
                rep = verify_stabiliser_action(el, box, sample_size=1000)
                assert rep.passed, (n, k, el.describe(), rep.failures[:3])
                total_checked += rep.checked
    report("5", True, f"zero failures over {total_checked} mapped points; group law exact")


def test_criterion_06_admissibility_and_heredity():
    box = sieve_box(4, 2, 50)
    assert is_admissible(box.point_array(), 4, 2)
    assert hereditary_check(box, trials=100)
    cover = [(a, b) for a in range(4) for b in range(4)]
    assert not is_admissible(cover, 4, 2)
    report(
        "6",
        True,
        f"window ({box.count} points) admissible; 100 random subsets admissible; "
        "full coset cover rejected",
    )


def test_criterion_07_entropy_constants(gaussian_box_300):
    log2 = log2_interval()
    for n in (4, 3):
        intervals = [entropy_constant(n, k, 10**5) for k in (2, 3, 4)]
        assert all(iv.upper < log2.lower for iv in intervals)
        assert intervals[0].strictly_below(intervals[1])
        assert intervals[1].strictly_below(intervals[2])
    box = gaussian_box_300
    estimate = patch_entropy_estimate(box, [(0, 0), (0, 1), (1, 0), (1, 1)])
    density = float(box.empirical_density)
    lower = math.log(2) * density - 0.05
    ok = lower <= estimate <= math.log(2) + 1e-12
    report(
        "7",
        ok,
        f"intervals increasing and below log 2; patch estimate {estimate:.4f} in "
        f"[{lower:.4f}, log 2]",
    )


def test_criterion_08_aq_pipeline():
    t0 = time.perf_counter()
    candidate = aq_search(12, 13, ell_bound=10**4, a_bound=10**6)
    assert candidate.a <= 10**6 and candidate.validate()
    outcomes = {}
    for m, j in ((3, 1), (4, 1), (12, 5)):
        rep = verify_lemma_factors(candidate, m, j)
        outcomes[(m, j)] = rep.passed
        assert rep.complete, (m, j)
    elapsed = time.perf_counter() - t0
    ok = all(outcomes.values()) and elapsed < 300.0
    report(
        "8",
        ok,
        f"a_q = {candidate.a} (H1-H3 to 10^4); factor checks {outcomes}; "
        f"{elapsed:.1f}s < 300s",
    )


def test_criterion_09_four_term_vanishing_sums():
    survivors = 0
    for n in range(1, 61):
        rep = vanishing_four_sums(n)
        survivors += len(rep.solutions)
        assert rep.all_divide_six, (n, rep.solutions)
    report(
        "9",
        True,
        f"exhaustive +-1 enumeration for n <= 60: {survivors} survivors, "
        "zero divisibility violations",
    )


def test_criterion_10_cli_determinism(tmp_path):
    from cyclofree.cli import main

    commands = {
        "sieve": ["sieve", "--n", "4", "--k", "2", "--radius", "8"],
        "density": ["density", "--n", "4", "--k", "2", "--radius", "10", "--prime-bound", "2000"],
        "zeta": ["zeta", "--n", "4", "--k", "2", "--prime-bound", "3000"],
        "entropy": ["entropy", "--n", "4", "--k", "2", "--prime-bound", "3000"],
        "symcheck": ["symcheck", "--n", "4", "--k", "2", "--radius", "10", "--samples", "40"],
        "aq": ["aq", "--n", "12", "--q", "13", "--ell-bound", "500", "--a-bound", "10000"],
        "patches": ["patches", "--n", "4", "--k", "2", "--radius", "10",
                     "--shape", "[[0,0],[0,1],[1,0],[1,1]]"],
    }
    for tag, argv in commands.items():
        values = set()
        for attempt in range(2):
            workdir = tmp_path / f"{tag}{attempt}"
            workdir.mkdir()
            out = workdir / "payload"
            code = main(argv + ["--out", str(out)])
            assert code == 0, (tag, code)
            manifest = json.loads((workdir / "payload.manifest.json").read_text())
            values.add(manifest["output_digest"])
        assert len(values) == 1, tag
    report("10", True, f"{len(commands)} command reruns digest-stable")
