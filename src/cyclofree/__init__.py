"""Exact arithmetic for k-free cyclotomic integers.

The package materializes the k-free elements of Z[zeta_n] as point sets
in Z^d (d = phi(n)), computes their density and entropy constants from
rigorous Dedekind zeta enclosures, and constructs and verifies the
unit-times-Galois symmetries that stabilise them.

Each exported name resolves on first access from the submodule that
defines it (PEP 562), so importing the package, or one submodule such
as ``cyclofree.cli``, loads no other submodule and not numpy.  The
package's only run-time dependency is numpy; zeta logarithms are enclosed
in exact integer arithmetic.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "AqCandidate": "certificates",
    "AqNotFound": "certificates",
    "ConductorError": "arith",
    "CycInt": "cyclotomic",
    "DensityReport": "kfree",
    "FactorBudgetError": "arith",
    "FourSumsReport": "certificates",
    "GaloisGroup": "symmetries",
    "IdealLattice": "lattices",
    "Interval": "zeta",
    "KFreeBox": "kfree",
    "PatchConfig": "kfree",
    "PrimeIdeal": "prime_ideals",
    "RankError": "lattices",
    "ResourceCapError": "arith",
    "SymmetryElement": "symmetries",
    "ZetaValue": "zeta",
    "aq_search": "certificates",
    "cyclotomic_polynomial": "cyclotomic",
    "dedekind_zeta": "zeta",
    "density_constant": "zeta",
    "density_estimate": "kfree",
    "determinant": "arith",
    "enumerate_prime_ideals": "prime_ideals",
    "entropy_constant": "zeta",
    "extract_patches": "kfree",
    "galois_group": "symmetries",
    "generator_elements": "symmetries",
    "hereditary_check": "kfree",
    "hnf": "lattices",
    "ideal_lattice": "lattices",
    "identity_element": "symmetries",
    "is_admissible": "kfree",
    "is_in_Wk": "prime_ideals",
    "is_kfree": "prime_ideals",
    "norm_bound": "kfree",
    "patch_entropy_estimate": "kfree",
    "ramified_primes": "prime_ideals",
    "ring_degree": "arith",
    "scan_for_violation": "symmetries",
    "sieve_box": "kfree",
    "split_prime": "prime_ideals",
    "splitting_primes": "certificates",
    "splitting_type": "prime_ideals",
    "symmetry_element": "symmetries",
    "unit_generators": "symmetries",
    "valuation": "prime_ideals",
    "validate_conductor": "arith",
    "vanishing_four_sums": "certificates",
    "verify_Wk_preservation": "symmetries",
    "verify_coprimality_transport": "symmetries",
    "verify_lemma_factors": "certificates",
    "verify_stabiliser_action": "symmetries",
    "verify_stabiliser_actions": "symmetries",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # An unknown name raises AttributeError, so ``from cyclofree import kfree``
    # falls back to importing the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
