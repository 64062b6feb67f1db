"""Independent numeric oracles shared by the test modules."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

from cyclofree import gfpoly
from cyclofree.gfpoly import (
    ONE, Poly, gf_add, gf_degree, gf_divmod, gf_gcd, gf_mod, gf_monic, gf_mul, gf_pow_mod, gf_sub, gf_trim,
)
from cyclofree.arith import factor_integer, primes_up_to
from cyclofree.cyclotomic import CycInt, cyclotomic_polynomial, ring_degree
from cyclofree.cli import PAYLOAD_BLOCK
from cyclofree.lattices import box_blocks, hnf
from cyclofree.prime_ideals import (
    enumerate_prime_ideals,
    kfree_mask,
    split_prime,
    splitting_type,
    valuation,
)
from cyclofree.symmetries import _act
from cyclofree.zeta import EXACT_HEAD_BOUND, PRECISION_BITS, ZetaValue


def character_oracle_gaussian(k: int) -> tuple[float, float]:
    """zeta(k) * L(k, chi_4) by direct summation, with explicit tails.

    The Riemann factor gets an integral tail bound, the alternating L
    series is enclosed by its first omitted term; a generous 1e-11 pad
    absorbs float rounding of the partial sums.
    """
    terms = 10**6 if k == 2 else 10**5
    zeta_partial = math.fsum(m ** -float(k) for m in range(1, terms + 1))
    zeta_lo = zeta_partial - 1e-11
    zeta_hi = zeta_partial + terms ** (1 - k) / (k - 1) + 1e-11
    m_terms = 10**5
    l_partial = math.fsum((-1) ** j * (2 * j + 1) ** -float(k) for j in range(m_terms))
    l_err = (2 * m_terms + 1) ** -k + 1e-11
    return zeta_lo * (l_partial - l_err), zeta_hi * (l_partial + l_err)


def euler_phi(n: int) -> int:
    """phi(n) by trial division, independent of the cyclotomic polynomial."""
    phi = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            phi -= phi // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        phi -= phi // m
    return phi


def is_irreducible(f, p: int) -> bool:
    """Rabin's irreducibility test of a polynomial over F_p: f of degree n
    divides x^(p^n) - x and is coprime to x^(p^(n/q)) - x for each prime
    q dividing n."""
    f = gfpoly.gf_monic(f, p)
    n = gfpoly.gf_degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = (0, 1)
    if gfpoly.gf_sub(gfpoly.gf_pow_mod(x, p**n, f, p), x, p):
        return False
    for q in factor_integer(n):
        h = gfpoly.gf_pow_mod(x, p ** (n // q), f, p)
        if gfpoly.gf_degree(gfpoly.gf_gcd(gfpoly.gf_sub(h, x, p), f, p)) != 0:
            return False
    return True


# Cantor and Zassenhaus's equal-degree split (Math. Comp. 36, 1981), by
# seeded random draws and, in characteristic 2, the trace map: the
# randomized reference that gfpoly.cyclotomic_factors is compared against.
def _random_poly(degree_below: int, p: int, rng: random.Random) -> Poly:
    return gf_trim(rng.randrange(p) for _ in range(degree_below))


def equal_degree_split(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """All monic irreducible factors of a squarefree f, given that each has
    degree d.  A wrong d never splits: the loop does not end."""
    n = gf_degree(f)
    if n == d:
        return [gf_monic(f, p)]
    while True:
        a = _random_poly(n, p, rng)
        if gf_degree(a) < 1:
            continue
        g = gf_gcd(a, f, p)
        if 0 < gf_degree(g) < n:
            break
        if p == 2:
            # trace map: a + a^2 + a^4 + ... splits f in characteristic 2
            t: Poly = ()
            b = gf_mod(a, f, p)
            for _ in range(d):
                t = gf_add(t, b, p)
                b = gf_mod(gf_mul(b, b, p), f, p)
            g = gf_gcd(t, f, p)
        else:
            b = gf_pow_mod(a, (p**d - 1) // 2, f, p)
            g = gf_gcd(gf_sub(b, ONE, p), f, p)
        if 0 < gf_degree(g) < n:
            break
    other, _ = gf_divmod(f, g, p)
    return equal_degree_split(g, d, p, rng) + equal_degree_split(other, d, p, rng)


def apply(element, point) -> tuple[int, ...]:
    """The element's matrix times the point, one coordinate at a time."""
    return tuple(sum(a * v for a, v in zip(row, point)) for row in element.matrix)


def apply_element(element, x: CycInt) -> CycInt:
    """unit * sigma_r(x) in the ring: the map the element's matrix encodes."""
    return element.unit * x.galois(element.r)


def box_contains(box, point) -> bool:
    """Is the point one of the box's k-free points, read from its grid."""
    if any(abs(v) > box.r for v in point):
        return False
    return bool(box.grid[tuple(v + box.r for v in point)])


def box_points(radius: int, d: int):
    """All points of [-radius, radius]^d as tuples, in lexicographic order."""
    return itertools.product(range(-radius, radius + 1), repeat=d)


def lattice_walk(lattice, radius: int):
    """All points of an HNF lattice with sup norm <= radius, one at a time.

    The recursive walk the array sieve replaced: coefficient choices go from
    the last basis row down, and choosing the coefficient of row j fixes
    coordinate j, so every branch yields a point.
    """
    d = lattice.d
    basis = lattice.basis
    coords = [0] * d

    def walk(j: int):
        row = basis[j]
        diag = row[j]
        base = coords[j]
        lo = -((radius + base) // diag)
        hi = (radius - base) // diag
        if lo > hi:
            return
        if lo:
            for t in range(j + 1):
                coords[t] += lo * row[t]
        c = lo
        while True:
            if j == 0:
                yield tuple(coords)
            else:
                yield from walk(j - 1)
            if c == hi:
                break
            c += 1
            for t in range(j + 1):
                coords[t] += row[t]
        if hi:
            for t in range(j + 1):
                coords[t] -= hi * row[t]

    if d:
        yield from walk(d - 1)


def ideal_power_by_recursion(prime_ideal, m: int):
    """The recursive construction that ideal_lattice replaced: the HNF basis
    of P^(j-1) times both generators of P, closed under multiplication by
    zeta and HNF-reduced mod N(P)^j, for j = 1, ..., m."""
    n = prime_ideal.n
    gens = prime_ideal.generators()
    zeta = CycInt.root(n)
    lat = None
    for j in range(1, m + 1):
        if lat is None:
            elements = gens
        else:
            elements = [CycInt(n, row) * g for row in lat.basis for g in gens]
        vectors = []
        for x in elements:
            for _ in range(len(x.coeffs)):
                vectors.append(x.coeffs)
                x = x * zeta
        lat = hnf(vectors, modulus=prime_ideal.norm**j)
        assert lat.index == prime_ideal.norm**j
    return lat


def degree_one_primes(n: int, count: int) -> list[int]:
    """The first count primes ell = 1 mod n, by trial division: the
    unramified primes of residue degree 1 in conductor n."""
    found = []
    ell = 1
    while len(found) < count:
        ell += n
        if all(ell % q for q in range(2, math.isqrt(ell) + 1)):
            found.append(ell)
    return found


def poly_trim(coeffs) -> tuple[int, ...]:
    """Integer polynomial coefficients, constant first, without trailing
    zeros: () is the zero polynomial and len - 1 the degree."""
    coeffs = tuple(int(c) for c in coeffs)
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return coeffs


def poly_mul(a, b) -> tuple[int, ...]:
    """The product of two integer polynomials, by the schoolbook sum."""
    out = [0] * (len(a) + len(b))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod_monic(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by the monic b, by long division over Z."""
    b = poly_trim(b)
    assert b and b[-1] == 1, "divisor must be monic"
    db = len(b) - 1
    rem = list(a)
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            quot[i - db] = c
            for j, bc in enumerate(b):
                rem[i - db + j] -= c * bc
    return poly_trim(quot), poly_trim(rem)


def content(poly) -> int:
    return math.gcd(*poly) if poly else 0


def _pseudo_remainder(a, b) -> tuple[int, ...]:
    # lc(b)^(deg a - deg b + 1) * a = q*b + r with deg r < deg b
    lb = b[-1]
    rem = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        for j in range(len(rem)):
            rem[j] *= lb
        if c:
            # after scaling, the top coefficient is c*lb; cancel with c*lb/lb * b
            top = rem[i]
            for j, bc in enumerate(b):
                rem[i - db + j] -= (top // lb) * bc
        rem[i] = 0
    return poly_trim(rem)


def resultant(a, b) -> int:
    """Res(a, b) over Z via the subresultant remainder sequence, for
    coefficient sequences, constant first.

    Exact with controlled coefficient growth; agrees with the determinant
    of the Sylvester matrix.
    """
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return 0
    sign = 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -1
        a, b = b, a
    if len(b) == 1:
        return sign * b[0] ** (len(a) - 1)
    ca, cb = content(a), content(b)
    scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = tuple(c // ca for c in a)
    b = tuple(c // cb for c in b)
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        a = b
        denom = g * h**delta
        b = tuple(c // denom for c in r)
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
        if not b:
            return 0
        if len(b) == 1:
            break
    da = len(a) - 1
    value = b[0] ** da // h ** (da - 1) if da > 0 else 1
    return sign * scale * value


def norm_by_resultant(n: int, coeffs) -> int:
    """N(x) = Res(Phi_n, x) for the element with these power-basis
    coefficients: the reference that norm_array is tested against."""
    return resultant(cyclotomic_polynomial(n), coeffs)


def norm_valuation_profile(x: CycInt) -> dict[int, int]:
    """Exponent of each rational prime in |N(x)|, from ideal valuations.

    The exponent of ell is the sum of f_P * v_P(x) over the ideals P
    above ell; this must reproduce the factorization of |N(x)|.
    """
    if not x:
        raise ValueError("x must be nonzero")
    norm = abs(norm_by_resultant(x.n, x.coeffs))
    profile: dict[int, int] = {}
    if norm == 1:
        return profile
    for ell in factor_integer(norm):
        total = sum(ideal.f * valuation(x, ideal) for ideal in split_prime(ell, x.n))
        profile[ell] = total
    return profile


def powers_by_division(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta^t mod Phi_n for t = 0..n-1, each by a full division of x^t."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = []
    for t in range(n):
        _, rem = poly_divmod_monic((0,) * t + (1,), phi)
        rows.append(rem + (0,) * (d - len(rem)))
    return tuple(rows)


def is_kfree_by_valuations(x: CycInt, k: int) -> bool:
    """The scalar test that kfree_mask replaced: the resultant norm, its
    factorization, and v_P(x) < k for every ideal P above a prime factor
    with N(P)^k <= |N(x)|."""
    if not x:
        return False
    norm = abs(norm_by_resultant(x.n, x.coeffs))
    if norm == 1:
        return True
    for ell in factor_integer(norm):
        for ideal in split_prime(ell, x.n):
            if ideal.norm**k <= norm and valuation(x, ideal) >= k:
                return False
    return True


def is_kfree_bruteforce(x: CycInt, k: int) -> bool:
    """Test every prime ideal of norm <= |N(x)|."""
    if not x:
        return False
    norm = abs(norm_by_resultant(x.n, x.coeffs))
    if norm == 1:
        return True
    for ideal in enumerate_prime_ideals(x.n, norm):
        if valuation(x, ideal) >= k:
            return False
    return True


def dedekind_zeta_by_fractions(n: int, k: int, prime_bound: int) -> ZetaValue:
    """The Euler product that preceded the residue-class one: each local
    factor is a reduced Fraction built from splitting_type (Miller-Rabin on
    every prime), the head is a running reduced product, and the tail and
    the log enclosure round exactly as in cyclofree.zeta."""
    d = ring_degree(n)
    tail = Fraction(2 * d, (k - 1) * prime_bound ** (k - 1))
    one = 1 << PRECISION_BITS
    lo = hi = one
    head = Fraction(1)
    for ell in primes_up_to(prime_bound):
        _, f, g = splitting_type(ell, n)
        q = ell ** (f * k)
        factor = Fraction(q - 1, q) ** g
        if ell <= EXACT_HEAD_BOUND:
            head *= factor
        else:
            p, q = factor.numerator, factor.denominator
            lo = (lo * p) // q
            hi = -((-hi * p) // q)
    lo = (lo * head.numerator) // head.denominator
    hi = -((-hi * head.numerator) // head.denominator)
    zeta_lower = 1 / Fraction(hi, one)
    zeta_upper = (1 / Fraction(lo, one)) * (1 / (1 - tail))
    return ZetaValue(n, k, prime_bound, zeta_lower, zeta_upper)


def log_by_mpmath(x: Fraction, bits: int = 600) -> Fraction:
    """log x by mpmath at the given working precision, as an exact Fraction
    of the rounded binary result."""
    import mpmath

    with mpmath.workprec(bits):
        value = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def points_payload_by_format(box, fmt: str) -> bytes:
    """The point payload as the CLI wrote it before the byte-table encoder:
    rows formatted PAYLOAD_BLOCK at a time, by one %-format per block."""
    pts = box.point_array()
    d = box.d
    if fmt == "csv":
        head = ",".join(f"x{i+1}" for i in range(d)) + "\n"
        row, sep, tail = ",".join(["%d"] * d) + "\n", "", ""
    else:
        doc = {"n": box.n, "k": box.k, "radius": box.r, "count": len(pts), "points": "@"}
        head, tail = json.dumps(doc, sort_keys=True).split('"@"')
        head, tail = head + "[", "]" + tail + "\n"
        row, sep = "[" + ", ".join(["%d"] * d) + "]", ", "
    blocks = (
        sep.join([row] * len(block)) % tuple(block.ravel().tolist())
        for block in (pts[i : i + PAYLOAD_BLOCK] for i in range(0, len(pts), PAYLOAD_BLOCK))
    )
    return (head + sep.join(blocks) + tail).encode("utf-8")


def scan_for_violation_by_box(matrix, n: int, k: int, radius_cap: int = 100):
    """The violation scan that walks the whole box [-r, r]^d at every radius
    r and keeps the rows of sup norm r."""
    d = ring_degree(n)
    for radius in range(1, radius_cap + 1):
        for block in box_blocks(radius, d):
            rows = block[np.abs(block).max(axis=1) == radius]
            rows = rows[kfree_mask(rows, n, k)]
            bad = np.flatnonzero(~kfree_mask(_act(rows, matrix), n, k))
            if len(bad):
                return tuple(rows[bad[0]].tolist())
    return None


def h3_primes_by_divisors(n: int, ell_bound: int, q: int) -> list[int]:
    """The (H3) primes by trying every divisor m >= 3 of n with m != 2 mod 4:
    ell != q up to the bound with ell = 1 mod some such m."""
    divisors = [m for m in range(3, n + 1) if n % m == 0 and m % 4 != 2]
    return [ell for ell in primes_up_to(ell_bound) if ell != q and any(ell % m == 1 for m in divisors)]


def h1_by_powers(a: int, n: int, q: int) -> bool:
    """(H1), a of order exactly n q mod q^2: a^(nq) = 1 and a^(nq/p) != 1
    for every prime p dividing n q."""
    q2 = q * q
    if math.gcd(a, q) != 1:
        return False
    target = n * q
    if pow(a, target, q2) != 1:
        return False
    return all(pow(a, target // p, q2) != 1 for p in factor_integer(target))
