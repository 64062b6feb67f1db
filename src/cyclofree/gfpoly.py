"""Dense univariate polynomial arithmetic over F_p and the equal-degree split.

A polynomial is a tuple of ints in [0, p), constant coefficient first,
with no trailing zeros.  The one factorization step is Cantor and
Zassenhaus's equal-degree split (Math. Comp. 36, 1981): a squarefree
product of irreducibles that all have one known degree d is split by gcds
with random polynomials drawn from a caller's seeded generator, so a fixed
seed makes the split reproducible.
"""

from __future__ import annotations

import random

Poly = tuple[int, ...]

ONE: Poly = (1,)


def gf_trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def gf_from_int_poly(coeffs, p: int) -> Poly:
    return gf_trim(c % p for c in coeffs)


def gf_degree(f: Poly) -> int:
    return len(f) - 1


def gf_add(f: Poly, g: Poly, p: int) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return gf_trim(out)


def gf_sub(f: Poly, g: Poly, p: int) -> Poly:
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return gf_trim(out)


def gf_mul(f: Poly, g: Poly, p: int) -> Poly:
    """The product by Kronecker substitution: each factor packed into one
    integer at a byte width that holds every coefficient of the integer
    product, min(len) * (p - 1)^2, then one integer multiplication."""
    if not f or not g:
        return ()
    width = (min(len(f), len(g)) * (p - 1) ** 2).bit_length() // 8 + 1
    product = _pack(f, width) * _pack(g, width)
    raw = product.to_bytes((len(f) + len(g) - 1) * width, "little")
    return gf_trim(int.from_bytes(raw[i : i + width], "little") % p for i in range(0, len(raw), width))


def _pack(f: Poly, width: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in f), "little")


def gf_divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, p)
    rem = list(f)
    dg = len(g) - 1
    if len(rem) <= dg:
        return (), gf_trim(rem)
    quot = [0] * (len(rem) - dg)
    # rem stays unreduced until the end; only each leading entry is reduced.
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] % p
        if c:
            q = c * inv % p
            quot[i - dg] = q
            for j, b in enumerate(g):
                rem[i - dg + j] -= q * b
    return gf_trim(quot), gf_trim(c % p for c in rem[:dg])


def gf_mod(f: Poly, g: Poly, p: int) -> Poly:
    return gf_divmod(f, g, p)[1]


def gf_monic(f: Poly, p: int) -> Poly:
    if not f:
        return f
    lc = f[-1] % p
    if lc == 1:
        return f
    inv = pow(lc, -1, p)
    return gf_trim(c * inv % p for c in f)


def gf_gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, gf_mod(f, g, p)
    return gf_monic(f, p)


def gf_pow_mod(f: Poly, e: int, mod: Poly, p: int) -> Poly:
    result: Poly = ONE
    f = gf_mod(f, mod, p)
    while e:
        if e & 1:
            result = gf_mod(gf_mul(result, f, p), mod, p)
        f = gf_mod(gf_mul(f, f, p), mod, p)
        e >>= 1
    return result


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
