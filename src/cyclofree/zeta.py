"""Validated enclosures of Dedekind zeta values at integer arguments.

The reciprocal Euler product  prod_P (1 - N(P)^-k)  is accumulated over
all prime ideals above the rational primes ell <= prime_bound.  Each
local factor prod_{P | ell} (1 - N(P)^-k) = ((q-1)/q)^g, with q = ell^(fk),
is the integer pair ((q-1)^g, q^g).  For every ell, ramified or not, f and g
depend only on ell mod n (arith.prime_shape) and are kept per class met, at
most pi(B) of them; the primes are read one at a time from
the Eratosthenes byte sieve, so none is re-tested for primality and no
list of them is built.  Past 10^4 each factor is applied in 192-bit fixed
point with floor/ceil rounding: one divmod per prime gives the floors and
ceilings, and so the bytes, of two divisions.  A prime whose q exceeds g
times the upper end, as bit lengths show before q is formed, lowers the
lower end by exactly one unit and leaves the upper end, so primes of large
residue degree cost no power of ell.  The head, ell <= 10^4, is applied
exactly once: floor(lo H) and ceil(hi H) for its exact product H.
The same recurrence over the head at 192 + 64 bits encloses H, and when
both ends of that enclosure round lo (and hi) to the same integer, that
integer is the exact result (Ziv's rounding test, ACM TOMS 17, 1991);
only otherwise is H formed, by a balanced product tree over the head
sieved afresh.  That product leaves out every factor with q > 2^2048,
as bit lengths show before q is formed, and bounds their product by s, the
sum of their g; when that bound leaves the rounding undecided, the request
is refused with ResourceCapError, so no power of millions of bits is ever
formed.  The omitted tail satisfies

    0 <= log(tail of zeta) <= phi(n) * sum_{m > B} 2 m^-k
                           <= 2 phi(n) B^(1-k) / (k-1),

because at most phi(n) ideals sit above each rational prime, each of
norm >= ell, and -log(1-x) <= 2x for x <= 1/2.  The enclosure of
zeta_K(k) is therefore rigorous, and shrinks as the bound grows.

Logarithms of the rational endpoints are enclosed in exact integer
arithmetic: x = 2^e y with y near 1, log x = e log 2 + 2 atanh((y-1)/(y+1)),
and the atanh series is summed in fixed point with every rounding error and
the truncated tail counted (Brent, J. ACM 23, 1976).  The logarithmic
bounds are therefore rigorous as well, and no floating-point library is
involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import ResourceCapError, _sieved_primes, prime_shape, ring_degree, validate_conductor

PRECISION_BITS = 192
EXACT_HEAD_BOUND = 10_000
# Extra bits of the head's fixed-point enclosure, which decides the exact
# head's rounding without forming it (Ziv's test).
HEAD_GUARD_BITS = 64
# The exact head leaves out the factors with q > 2^HEAD_FACTOR_BITS and
# bounds their product instead.
HEAD_FACTOR_BITS = 2048
# log_interval rounds outward to multiples of 2^-LOG_PRECISION_BITS, and the
# JSON payloads print DECIMAL_DIGITS digits after the point.
LOG_PRECISION_BITS = 256
DECIMAL_DIGITS = 40
ROUNDING_NOTE = "outward fixed-point (floor/ceil) at 192 bits; exact rationals below 10^4"


@dataclass(frozen=True)
class Interval:
    """A closed interval with exact rational endpoints."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def __contains__(self, value) -> bool:
        return self.lower <= value <= self.upper

    def contains_interval(self, other: "Interval") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def strictly_below(self, other: "Interval") -> bool:
        return self.upper < other.lower

    def reciprocal(self) -> "Interval":
        if self.lower <= 0:
            raise ValueError("reciprocal needs a positive interval")
        return Interval(1 / self.upper, 1 / self.lower)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.lower < 0 or other.lower < 0:
            raise ValueError("only positive intervals are multiplied here")
        return Interval(self.lower * other.lower, self.upper * other.upper)


GUARD_BITS = 16


def _atanh_fixed(u: int, v: int, bits: int) -> tuple[int, int]:
    """Integers lo <= atanh(u/v) * 2^bits <= hi, for 0 <= u/v <= 1/3.

    The series sum_j t^(2j+1) / (2j+1) is summed in fixed point with
    floor division.  The power of t is carried as P_(j+1) = floor(P_j T2 /
    2^bits) with T2 = floor(t^2 2^bits); by induction it is low by less
    than 2 / (1 - t^2) <= 9/4 units, so each of the N terms summed is low
    by less than 4.  The loop stops at the first power that rounds to 0,
    which leaves a true power below 9/4 units and a tail below
    (9/4) / (1 - t^2) < 4 units.
    """
    if u == 0:
        return 0, 0
    t2 = (u * u << bits) // (v * v)
    power = (u << bits) // v
    total = terms = 0
    while power:
        total += power // (2 * terms + 1)
        terms += 1
        power = power * t2 >> bits
    return total, total + 4 * (terms + 1)


@lru_cache(maxsize=None)
def _log2_fixed(bits: int) -> tuple[int, int]:
    """log 2 = 2 atanh(1/3), as integers lo <= log(2) * 2^bits <= hi."""
    lo, hi = _atanh_fixed(1, 3, bits)
    return 2 * lo, 2 * hi


def _log_fixed(x: Fraction, bits: int) -> tuple[int, int]:
    """Integers lo <= log(x) * 2^bits <= hi for a rational x > 0.

    With x = 2^e y and y = a/b in [1/sqrt 2, sqrt 2], log x = e log 2 +
    2 atanh(t) for t = (a - b)/(a + b), and |t| <= 3 - 2 sqrt 2 < 0.172.
    """
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    a, b = (num, den << e) if e >= 0 else (num << -e, den)
    # a/b now lies in (1/2, 2); one halving or doubling brings it into range
    if a * a > 2 * b * b:
        e, b = e + 1, 2 * b
    elif 2 * a * a < b * b:
        e, a = e - 1, 2 * a
    lo2, hi2 = _log2_fixed(bits)
    lo, hi = (e * lo2, e * hi2) if e >= 0 else (e * hi2, e * lo2)
    at_lo, at_hi = _atanh_fixed(abs(a - b), a + b, bits)
    if a < b:  # atanh is odd
        at_lo, at_hi = -at_hi, -at_lo
    return lo + 2 * at_lo, hi + 2 * at_hi


def log_interval(interval: Interval) -> Interval:
    """Rigorous enclosure of [log lower, log upper]: each endpoint is
    summed with GUARD_BITS extra bits, then rounded outward to a multiple
    of 2^-LOG_PRECISION_BITS."""
    if interval.lower <= 0:
        raise ValueError("log needs a positive interval")
    bits = LOG_PRECISION_BITS + GUARD_BITS
    lo, _ = _log_fixed(interval.lower, bits)
    _, hi = _log_fixed(interval.upper, bits)
    one = 1 << LOG_PRECISION_BITS
    return Interval(Fraction(lo >> GUARD_BITS, one), Fraction(-(-hi >> GUARD_BITS), one))


@lru_cache(maxsize=1)
def log2_interval() -> Interval:
    return log_interval(Interval(Fraction(2), Fraction(2)))


def _decimal_string(x: Fraction, round_up: bool) -> str:
    scale = 10**DECIMAL_DIGITS
    scaled = x * scale
    value = -((-scaled.numerator) // scaled.denominator) if round_up else scaled.numerator // scaled.denominator
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, frac = divmod(value, scale)
    return f"{sign}{whole}.{frac:0{DECIMAL_DIGITS}d}"


@dataclass(frozen=True)
class ZetaValue:
    """A rigorous enclosure of zeta_K(k) for K of conductor n.  The
    enclosure of log zeta_K(k), log_lower and log_upper, is computed from
    it on first read."""

    n: int
    k: int
    prime_bound: int
    lower: Fraction
    upper: Fraction

    @cached_property
    def _logs(self) -> Interval:
        return log_interval(self.interval)

    @property
    def log_lower(self) -> Fraction:
        return self._logs.lower

    @property
    def log_upper(self) -> Fraction:
        return self._logs.upper

    @property
    def interval(self) -> Interval:
        return Interval(self.lower, self.upper)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "prime_bound": self.prime_bound,
                "lower": _decimal_string(self.lower, round_up=False),
                "upper": _decimal_string(self.upper, round_up=True),
                "log_lower": _decimal_string(self.log_lower, round_up=False),
                "log_upper": _decimal_string(self.log_upper, round_up=True),
                "precision_bits": PRECISION_BITS,
                "rounding": ROUNDING_NOTE,
            },
            sort_keys=True,
        )


def _tree_product(values: list[int]) -> int:
    """The product of the values, multiplied in pairs, level by level, so
    that each product joins factors of about equal size: a running product
    would multiply the whole head into each new factor."""
    while len(values) > 1:
        pairs = [a * b for a, b in zip(values[::2], values[1::2])]
        values = pairs + values[2 * len(pairs) :]
    return values[0] if values else 1


def _exact_head(n: int, k: int, bound: int) -> tuple[int, int, int]:
    """The head product prod_{ell <= bound} ((q-1)/q)^g, the primes sieved
    afresh, as one unreduced pair (numerator, denominator) and s.  The
    factors with f k (bitlen(ell) - 1) > HEAD_FACTOR_BITS are left out and
    s is the sum of their g: each has q > 2^HEAD_FACTOR_BITS, so (1 -
    1/q)^g > 1 - g 2^-HEAD_FACTOR_BITS, and their product E lies in
    (1 - s 2^-HEAD_FACTOR_BITS, 1), or is 1 when s = 0."""
    shapes: dict[int, tuple[int, int, int]] = {}
    nums, dens, skipped = [], [], 0
    for ell in _sieved_primes(bound):
        if ell % n not in shapes:
            shapes[ell % n] = prime_shape(ell, n)
        _, f, g = shapes[ell % n]
        if f * k * (ell.bit_length() - 1) > HEAD_FACTOR_BITS:
            skipped += g
            continue
        q = ell ** (f * k)
        nums.append((q - 1) ** g)
        dens.append(q**g)
    return _tree_product(nums), _tree_product(dens), skipped


@lru_cache(maxsize=None)
def dedekind_zeta(n: int, k: int, prime_bound: int) -> ZetaValue:
    """Enclose zeta_K(k) using all primes ell <= prime_bound.

    Requires k >= 2 and a bound large enough that the tail estimate is
    below 1/2 (B^(k-1) > 4 phi(n) / (k-1)); smaller bounds cannot give a
    meaningful rigorous enclosure and raise ValueError.
    """
    validate_conductor(n)
    if k < 2:
        raise ValueError("k must be >= 2; the Euler product diverges at 1")
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    d = ring_degree(n)
    tail = Fraction(2 * d, (k - 1) * prime_bound ** (k - 1))
    if tail >= Fraction(1, 2):
        raise ValueError(
            f"prime_bound {prime_bound} is too small for a rigorous enclosure "
            f"at n={n}, k={k}; the tail bound is {float(tail):.3g}"
        )
    one = 1 << PRECISION_BITS
    # Each local factor is ((q-1)/q)^g with q = ell^(fk).  It is applied
    # with lo rounded down and hi = lo + delta rounded up, delta a small int.
    # With (Q, R) = divmod(lo, q) and g = 1,
    #   floor(lo (q-1)/q) = lo - ceil(lo/q)   -> lo' = lo - Q - [R > 0],
    #   ceil(hi (q-1)/q) = hi - floor(hi/q)   -> delta' = delta + [R > 0] - (R + delta) // q;
    # with (Q, R) = divmod(lo p, q^g), p = (q-1)^g and g > 1, lo' = Q and
    # delta' = ceil((R + delta p) / q^g).  Either way delta grows by at most
    # 1 per prime, and each prime costs one divmod of lo.  When q > hi g,
    # which bit lengths decide before q is formed, x (1 - 1/q)^g lies in
    # (x - 1, x) for x = lo and x = hi, so lo' = lo - 1 and delta' = delta
    # + 1 exactly: a prime of large residue degree costs no power.  The
    # head primes run from 2^wide and give hl <= 2^wide H <= hh for the
    # exact head product H; the tail primes then run from 2^PRECISION_BITS.
    wide = PRECISION_BITS + HEAD_GUARD_BITS
    lo, delta, head = 1 << wide, 0, None
    switch = EXACT_HEAD_BOUND
    shapes: dict[int, tuple[int, int, int]] = {}
    for ell in _sieved_primes(prime_bound):
        if ell > switch:  # the first tail prime: the head is done
            head, lo, delta, switch = (lo, lo + delta), one, 0, prime_bound
        if ell % n not in shapes:
            shapes[ell % n] = prime_shape(ell, n)
        _, f, g = shapes[ell % n]
        if f * k * (ell.bit_length() - 1) > (lo + delta).bit_length() + g.bit_length():
            lo, delta = lo - 1, delta + 1  # q > hi g
            continue
        q = ell ** (f * k)
        if g == 1:
            quot, rem = divmod(lo, q)
            up = rem > 0
            lo -= quot + up
            delta += up - (rem + delta) // q
        else:
            p, q = (q - 1) ** g, q**g
            lo, rem = divmod(lo * p, q)
            delta = -(-(rem + delta * p) // q)
    if head is None:
        head, lo, delta = (lo, lo + delta), one, 0
    hi = lo + delta
    # Ziv's test: floor and ceiling are monotone, so when the head's two
    # bounds round lo (and hi) to the same integer, that integer is the
    # floor of lo H (the ceiling of hi H).  Every head factor is below 1,
    # so H < 1 and floor(lo H) <= lo - 1 bounds the floor from above too.
    # Otherwise H is formed exactly, but for the factors _exact_head only
    # bounds.
    hl, hh = head
    low, high = lo * hl >> wide, -(-hi * hh >> wide)
    if low != min(lo * hh >> wide, lo - 1) or high != -(-hi * hl >> wide):
        # The head stays unreduced: a common factor of num and den does not
        # change the floor or ceiling of lo * num / den.  H = E num/den, and
        # for s > 0, E in (1 - s 2^-T, 1) with T = HEAD_FACTOR_BITS puts
        # floor(lo H) in [floor(x (2^T - s) / (den 2^T)), ceil(x/den) - 1] for
        # x = lo num, and ceil(hi H) in [floor(y (2^T - s) / (den 2^T)) + 1,
        # ceil(y/den)] for y = hi num; for s = 0 both ends are exact.  Below,
        # (x - 1) // den = ceil(x/den) - 1 and ceil((z + 1)/w) = floor(z/w) + 1.
        num, den, skipped = _exact_head(n, k, min(prime_bound, EXACT_HEAD_BOUND))
        cut, wide_den, some = (1 << HEAD_FACTOR_BITS) - skipped, den << HEAD_FACTOR_BITS, skipped > 0
        x, y = lo * num, hi * num
        low, high = (x - some) // den, -(-y // den)
        if low != x * cut // wide_den or high != -(-(y * cut + some) // wide_den):
            raise ResourceCapError(
                f"the exact Euler head at n={n}, k={k} leaves out factors whose "
                "product does not decide its rounding"
            )
    partial = Interval(Fraction(low, one), Fraction(high, one))
    # zeta = 1/partial * tail_inverse with tail_inverse in [1, 1/(1-tail)]
    zeta_lower = 1 / partial.upper
    zeta_upper = (1 / partial.lower) * (1 / (1 - tail))
    return ZetaValue(n=n, k=k, prime_bound=prime_bound, lower=zeta_lower, upper=zeta_upper)


def density_constant(n: int, k: int, prime_bound: int) -> Interval:
    """Enclosure of 1/zeta_K(k), the density of the k-free points."""
    return dedekind_zeta(n, k, prime_bound).interval.reciprocal()


def entropy_constant(n: int, k: int, prime_bound: int) -> Interval:
    """Enclosure of log(2)/zeta_K(k), the topological entropy."""
    return log2_interval() * density_constant(n, k, prime_bound)


def interval_to_json(interval: Interval, **extra) -> str:
    payload = {
        "lower": _decimal_string(interval.lower, round_up=False),
        "upper": _decimal_string(interval.upper, round_up=True),
    }
    payload.update(extra)
    return json.dumps(payload, sort_keys=True)
