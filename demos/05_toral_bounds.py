"""Toral-rank bounds: total homology against powers of two.

For nilpotent algebras the total homology over all degrees, not only the
layout's, should dominate 2^(dim center);
for 2-step algebras the mod-k Euler characteristics of the full exterior
complex give the sharper bound tabulated below (center factor split off).
"""

from karyhom import (
    acj,
    free_three_step_small,
    free_two_step,
    heisenberg,
    refinement_bound,
    verify_toral,
)
from karyhom.cli import main

main(["table", "--nmax", "12"])  # the table as `karyhom table --nmax 12` prints it
print()

print("full bound with a center of dimension z just scales by 2^z:")
print("  refinement_bound(10, 2, 5) =", refinement_bound(10, 2, 5),
      "=", refinement_bound(10, 0, 5), "* 4")

print()
for alg, name in (
    (heisenberg(3, 1), "heisenberg(3,1)"),
    (heisenberg(2, 3), "heisenberg(2,3)"),
    (acj(3, 2), "acj(3,2)"),
    (free_two_step(3, 4), "free2(3,4)"),
    (free_three_step_small(4), "free3(4)"),
):
    rec = verify_toral(alg, description=name)
    refined = f", >= refined bound {rec['refinement_bound']}" if rec["two_step"] else ""
    print(f"{name}: all-degree total {rec['total_all_degrees']} >= 2^{rec['center_dim']} = "
          f"{rec['power_bound']}{refined} [{'ok' if rec['ok'] else 'FAIL'}]")
