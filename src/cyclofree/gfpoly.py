"""Dense univariate polynomial arithmetic over F_p and the split of Phi_m mod p.

A polynomial is a tuple of ints in [0, p), constant coefficient first,
with no trailing zeros.  The one factorization is of the cyclotomic
polynomial Phi_m mod p (p not dividing m) into its irreducible factors
of one degree f, by Berlekamp's trace method (Math. Comp. 24, 1970): the
traces of the powers of x are constants on each factor, and gcds with
powers of them split the factors apart.  Nothing is drawn at random, so
the factors are a function of (m, p) alone.
"""

from __future__ import annotations

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


def cyclotomic_factors(phi: Poly, m: int, f: int, p: int) -> list[Poly]:
    """The monic irreducible factors of phi = Phi_m mod p, each of degree f,
    for a prime p not dividing m and f the order of p mod m.

    Modulo Phi_m, which divides x^m - 1, x^p maps the monomial x^a to
    x^(a p mod m), so the trace t_j = sum_{i<f} x^(j p^i mod m) reduces mod
    each irreducible factor F to Tr(z^j) in F_p, z the root of F.  For
    j = 1..m-1 each unfinished factor F (degree above f) is split while t_j
    mod F is not a constant: by gcd(F, (t_j + c)^e - 1), e = max(1, (p - 1)
    // 2), for c = 0, 1, ... until the gcd is proper.  That ends: two
    factors on which t_j takes values eta_1 != eta_2 are told apart by
    some c, namely c = 1 - eta_1 at p <= 3, where the power is the first;
    at p >= 5 the Jacobsthal sum sum_c chi(c + eta_1) chi(c + eta_2) = -1
    leaves (p - 1)/2 values of c where the two Legendre symbols differ.
    And every two distinct factors meet such a j: their roots lie in two
    distinct Frobenius orbits of m-th roots of unity, so the characters
    j -> z^j of Z/m they sum are distinct, and by their independence the
    two sums of f characters differ at some j, which is not 0.  So once j
    reaches m - 1 every factor is irreducible.
    """
    e = max(1, (p - 1) // 2)
    factors, j = [phi], 1
    while any(gf_degree(F) > f for F in factors):
        if j == m:  # with the right f, every two factors differ at some j < m
            raise ArithmeticError(f"Phi_{m} mod {p} has no factors of degree {f}")
        powers = [0] * m
        for i in range(f):
            powers[j * pow(p, i, m) % m] += 1
        trace = gf_from_int_poly(powers, p)
        stack, factors = factors, []
        while stack:
            F = stack.pop()
            t = gf_mod(trace, F, p)
            # a constant t, as on every irreducible F, keeps F whole at this j
            for c in range(p if gf_degree(t) > 0 else 0):
                h = gf_gcd(F, gf_sub(gf_pow_mod(gf_add(t, (c,), p), e, F, p), ONE, p), p)
                if 0 < gf_degree(h) < gf_degree(F):
                    stack += [h, gf_divmod(F, h, p)[0]]
                    break
            else:
                factors.append(F)
        j += 1
    return factors
