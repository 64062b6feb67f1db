"""The stabiliser symmetries of the k-free points, as integer matrices.

Multiplication by a unit composed with a Galois automorphism preserves
k-freeness; on the embedded lattice these act as GL(d, Z) matrices
obeying the semi-direct law.  A matrix outside that family breaks the
set quickly, and a scan finds a witness.
"""

from cyclofree import (
    CycInt,
    galois_group,
    generator_elements,
    scan_for_violation,
    sieve_box,
    symmetry_element,
    unit_generators,
    verify_stabiliser_action,
)

N = 12

print(f"unit generators of conductor {N} (a finite-index generating set)")
for u in unit_generators(N):
    print(f"  coeffs {u.coeffs}   norm {u.norm()}")
print()

group = galois_group(N)
print(f"Galois group: order {group.order}, elements {group.elements}")
print(f"CRT factors (p, a, phi): {group.crt_factors}")
print()

print("generator matrices")
for element in generator_elements(N):
    print(f"  unit {element.unit.coeffs}, r={element.r}")
    for row in element.matrix:
        print(f"    {row}")
print()

print("semi-direct law on a sample pair")
a = symmetry_element(CycInt.root(N), 5)
b = symmetry_element(CycInt.one(N) - CycInt.root(N), 7)
c = a.compose(b)
print(f"  (zeta, 5) * (1-zeta, 7) = (unit {c.unit.coeffs}, r={c.r})")
print()

print("verification on sieved points (k = 2)")
box = sieve_box(N, 2, 5)
for element in generator_elements(N)[:4]:
    report = verify_stabiliser_action(element, box, sample_size=400)
    print(
        f"  unit {element.unit.coeffs} r={element.r}:"
        f" {report.checked} checks, {len(report.failures)} failures"
    )
print()

print("a shear is not a stabiliser of the Gaussian squarefree points:")
witness = scan_for_violation(((1, 1), (0, 1)), 4, 2, radius_cap=10)
print(f"  witness point {witness} is squarefree, its image is not")
