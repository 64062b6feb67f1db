"""Golden payload digests: the CLI output bytes are part of the contract.

Each sieve digest is the SHA-256 of a payload as written by the recursive
per-point sieve that preceded the array sieve; each zeta, density and
entropy digest is that of the per-prime Fraction Euler product that
preceded the residue-class one.  Any change to sieving, point order, the
Euler product's rounding or payload encoding that alters a single byte
fails here.
"""

import hashlib
import json

import pytest

from cyclofree.cli import main

GOLDEN = {
    "sieve-n4-r8-csv": (
        ["sieve", "--n", "4", "--k", "2", "--radius", "8", "--format", "csv"],
        "908f449ee5731ed383094d758c01d4f9baae3ccdef764fe61ecf954bafdb384b",
    ),
    "sieve-n4-r8-json": (
        ["sieve", "--n", "4", "--k", "2", "--radius", "8", "--format", "json"],
        "8c7463a745c8ca212ae8ea12e3c6e369472b106c61ceb66f1ffe8c423512349d",
    ),
    "sieve-n5-r3-csv": (
        ["sieve", "--n", "5", "--k", "2", "--radius", "3", "--format", "csv"],
        "90b8a3f34fda0eb56ce94c406669e5415edb68d843cc44f93d9176425d9635a4",
    ),
    "sieve-n5-r3-json": (
        ["sieve", "--n", "5", "--k", "2", "--radius", "3", "--format", "json"],
        "2edc8def706615ed08b41fa3f6871bb94283113ca0250e9c9bf56d0ab75fe665",
    ),
    "patches": (
        ["patches", "--n", "4", "--k", "2", "--radius", "10",
         "--shape", "[[0,0],[0,1],[1,0],[1,1]]"],
        "cb56141176803b2836ea1eaa8939e0c903d292328c69104f3e87535f3dba188a",
    ),
    "symcheck-n4": (
        ["symcheck", "--n", "4", "--k", "2", "--radius", "10", "--samples", "40"],
        "1ee54975a5539e67d68342a9ec55c73ec20d3fc2d1d1921e71df9bed43370dcc",
    ),
    "symcheck-n12": (
        ["symcheck", "--n", "12", "--k", "2", "--radius", "2", "--samples", "30",
         "--seed", "3"],
        "1490a996a85facee9ce7ef2cc744ab2972bda595a097f7d332aaa11c5ff40aac",
    ),
    "zeta-n4-k2": (
        # past EXACT_HEAD_BOUND, so both the exact head and the fixed-point tail run
        ["zeta", "--n", "4", "--k", "2", "--prime-bound", "30000"],
        "a813388a61a422678d420f5d89d648777b1a3e7bb8f2d88a778f8ee8ebff9451",
    ),
    "zeta-n12-k3": (
        ["zeta", "--n", "12", "--k", "3", "--prime-bound", "20000"],
        "6892909b3971a63695469fef9f5c72141d7a21ef41689332b30c1965987a19b4",
    ),
    "density-n5": (
        ["density", "--n", "5", "--k", "2", "--radius", "3", "--prime-bound", "20000"],
        "3eecf516113f4c70f393dcb685e8b73ad5034024c99fbb5a83da25c2080d6211",
    ),
    "entropy-n9": (
        ["entropy", "--n", "9", "--k", "2", "--prime-bound", "20000"],
        "70363b572c4744aa0ec1a24213eb51fb97d7a4283c298be701234edbd12e7b28",
    ),
}


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_payload_digest_is_golden(tmp_path, tag):
    argv, expected = GOLDEN[tag]
    out = tmp_path / "payload"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
    manifest = json.loads((tmp_path / "payload.manifest.json").read_text())
    assert manifest["output_digest"] == expected
