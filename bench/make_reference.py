"""Regenerate bench/reference.json, the values the benchmark checks outputs against.

    python3 bench/make_reference.py

inverse_zeta holds 1/zeta_K(2) for K = Q(zeta_n), computed independently of
the library's Euler product: zeta_K(s) is the product over the Dirichlet
characters chi mod n of L(s, chi*), chi* the primitive character inducing
chi, and L(s, chi*) = f^-s sum_a chi*(a) zeta_H(s, a/f) through mpmath's
Hurwitz zeta at 60 digits.  Only cyclic (Z/n)^x is needed (n = 4, 5).

The point counts, payload digests and generator count are recorded from the
program at the default seed; they pin the outputs a later change must keep.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import mpmath

import run

DIGITS = 50


def characters(n: int):
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    order = len(units)
    generator = next(g for g in units if len({pow(g, e, n) for e in range(order)}) == order)
    log = {pow(generator, e, n): e for e in range(order)}
    for j in range(order):
        yield {a: mpmath.expjpi(mpmath.mpf(2 * j * log[a]) / order) for a in units}


def conductor(chi: dict, n: int) -> int:
    tiny = mpmath.mpf(10) ** -40
    return min(f for f in range(1, n + 1)
               if n % f == 0 and all(abs(v - 1) < tiny for a, v in chi.items() if a % f == 1 % f))


def l_value(chi: dict, n: int, s: int):
    f = conductor(chi, n)
    primitive: dict[int, object] = {}
    for a, v in chi.items():
        primitive.setdefault(a % f, v)
    return mpmath.mpf(f) ** -s * mpmath.fsum(
        v * mpmath.zeta(s, mpmath.mpf(r or f) / f) for r, v in primitive.items()
    )


def inverse_zeta(n: int, s: int = 2) -> str:
    with mpmath.workdps(60):
        value = 1 / mpmath.fprod(l_value(chi, n, s) for chi in characters(n))
        if abs(value.imag) > mpmath.mpf(10) ** -50:
            raise ArithmeticError(f"zeta_K({s}) for n={n} is not real: {value}")
        return mpmath.nstr(value.real, DIGITS, strip_zeros=False)


def main() -> int:
    ref = {
        "inverse_zeta": {str(n): inverse_zeta(n) for n in (4, 5)},
        "point_count": {},
        "digest": {},
        "generators": {},
    }
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        work = Path(tmp)
        for label, argv in (("gauss-sieve", run.GAUSS_SIEVE), ("patch-window", run.PATCH_WINDOW)):
            out = run.run_cli(argv, work)
            ref["point_count"][label] = run.report_on_stderr(out.stdout, out.stderr)["point_count"]
            ref["digest"][label] = hashlib.sha256(out.stdout).hexdigest()
        run.write_patch(out.stdout, run.DEFAULT_SEED, work / "patch.json")  # from the patch window
        out = run.run_cli(run.QUARTIC_DENSITY, work)
        ref["point_count"]["quartic-density"] = json.loads(out.stdout)["point_count"]
        out = run.run_cli(run.SYMCHECK + ("--seed", str(run.DEFAULT_SEED)), work)
        ref["generators"]["12"] = len(json.loads(out.stdout)["elements"])
        ref["digest"]["symcheck"] = hashlib.sha256(out.stdout).hexdigest()
        out = run.run_cli(("admissible", "--in", str(work / "patch.json")), work)
        ref["digest"]["admissible"] = hashlib.sha256(out.stdout).hexdigest()
    run.REFERENCE_FILE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(ref, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
