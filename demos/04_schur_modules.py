"""Homology groups of free 2-step algebras as GL(V)-modules.

The torus grading (generators get unit weights) makes every boundary map
block diagonal by weight; kernel minus image per block is the character
of the homology, and straightening (each multiplicity a coefficient of
the character times the Vandermonde alternant) recovers the Schur-module
decomposition.  Representation stability is visible: the multiset of
partitions freezes once dim V admits all rows.
"""

from karyhom import (
    betti,
    character_by_weights,
    decompose_character,
    decomposition_dimension,
    free_two_step,
    lower_bound_betti,
    schur_dim,
    second_homology_bound,
    stability_check,
)

for n in (3, 4, 5):
    table = character_by_weights(free_two_step(3, n), 3)
    dec = decompose_character(table, n)
    parts = " + ".join(f"S_{lam}" + (f" x{m}" if m > 1 else "") for lam, m in dec)
    print(f"H^3 of free2(k=3, n={n}) = {parts}   (dim {decomposition_dimension(dec, n)})")

print()
rec = stability_check(3, 3, [3, 4, 5])
print(f"stable from n = {rec['stable_from']}; tail partitions "
      f"{[lam for lam, _ in rec['tail_partitions']]}")

print()
print("hook-content dimensions at n = 4:")
for lam in ((2, 2, 1), (2, 1, 1, 1), (3, 2, 1, 1)):
    print(f"  dim S_{lam}(C^4) = {schur_dim(lam, 4)}")

print()
print("closed-form lower bounds against direct Betti numbers:")
for k, n in ((2, 4), (3, 4)):
    alg = free_two_step(k, n)
    print(f"  free2(k={k}, n={n}): H^{k} = {betti(alg, k)} >= "
          f"{second_homology_bound(n, k)};  "
          f"H^{2*k-1} = {betti(alg, 2*k-1)} >= {lower_bound_betti(n, k, 2)}")
