"""Truncated current algebras and the tensor-power question.

Does the total homology of g (x) C[t]/t^j equal (total of g)^j?  For the
5-ary Heisenberg algebra with m = 1 the answer is no: the current algebra
at j = 2 is a 12-dimensional 2-step algebra, and the dimension-only lower
bound 2900 already exceeds the claimed 11^2 = 121.
"""

from karyhom import (
    abelian,
    betti_all,
    current_algebra,
    heisenberg,
    lower_central_series,
    property_m_check,
)

h = heisenberg(5, 1)
cur = current_algebra(h, 2)
print("base:", betti_all(h, description="heisenberg(5,1)").betti, "total 11")
print("current algebra dim:", cur.dim,
      "series:", [len(s) for s in lower_central_series(cur)])

rec = property_m_check(h, 2)
print()
print("tensor-power prediction:", rec["power_total"])
print("2-step lower bound for any 12-dim arity-5 algebra:",
      rec["refinement_bound_dim_only"])
print("directly computed totals: layout", rec["current_total"],
      "/ all degrees", rec["current_total_all_degrees"])
print("prediction holds?", rec["equal"])

print()
print("for abelian algebras the identity is exact:")
print(" ", property_m_check(abelian(2, 1), 3))

print()
print("curious: over all exterior degrees the 5-ary example satisfies")
print("total(current) = total(base)^2 with the all-degree convention:")
from karyhom import total_homology_all_degrees

print("  base all-degree total:", total_homology_all_degrees(h),
      " current:", rec["current_total_all_degrees"], "=",
      total_homology_all_degrees(h), "^2")
