"""Independent numeric oracles shared by the test modules."""

import math


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
