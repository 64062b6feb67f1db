"""Admissibility: which finite patterns can appear in a k-free set.

A finite set is admissible when it misses at least one coset of every
prime ideal power lattice.  Sieved windows are admissible by
construction, and so is every subset (heredity).  A patch that covers
all cosets of some lattice can never occur.
"""

from cyclofree import hereditary_check, is_admissible, sieve_box

print("sieved windows are admissible")
box = sieve_box(4, 2, 30)
print(f"  radius 30 window, {box.count} points: {is_admissible(box.point_array(), 4, 2)}")
print()

print("heredity: random subsets stay admissible")
print(f"  40 random subsets pass: {hereditary_check(box, trials=40)}")
print()

print("a full residue square [0,4)^2 covers all cosets of the lattice of (2)")
cover = [(a, b) for a in range(4) for b in range(4)]
print(f"  admissible? {is_admissible(cover, 4, 2)}")
print()

print("the minimal obstruction is one representative per coset: a 2x2 square")
square = [(0, 0), (0, 1), (1, 0), (1, 1)]
print(f"  admissible? {is_admissible(square, 4, 2)}")
print("dropping any one of its points frees a coset again")
print(f"  3-point subset admissible? {is_admissible(square[1:], 4, 2)}")
