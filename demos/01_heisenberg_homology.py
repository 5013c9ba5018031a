"""Betti numbers of k-ary Heisenberg algebras, exactly.

The km+1 dimensional algebra with brackets [x^1_i, ..., x^k_i] = z is the
simplest 2-step nilpotent k-ary Lie algebra.  Its homology sits on the
chain degrees 1, k, 2k-1, ... and every rank below is an exact integer
computation (no floating point anywhere).
"""

from karyhom import betti_all, heisenberg, verify_family

for k, m in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1)):
    rep = betti_all(heisenberg(k, m), description=f"heisenberg(k={k}, m={m})")
    line = ", ".join(f"H^{t}={rep.betti[t]}" for t in rep.degrees)
    print(f"{rep.algebra}: {line}  (total {rep.total})")

print()
print("Comparison with the closed form C(km, i(k-1)+1) - C(km, (i-1)(k-1)),")
print("asserted only inside its validity range (degrees up to the middle):")
for k, m in ((2, 2), (3, 1), (3, 2), (3, 3)):
    rec = verify_family(heisenberg(k, m), "heisenberg")
    for row in rec["rows"]:
        if row["quantity"] != "betti":
            continue
        tag = "asserted" if row["asserted"] else "report-only"
        mark = "ok" if row["match"] else "MISMATCH"
        print(
            f"  (k={k}, m={m}) H^{row['degree']}: direct {row['value']}, "
            f"formula {row['expected']} [{tag}: {mark}]"
        )

print()
print("The mismatches are real: the formula's inductive image count assumes")
print("every z ^ (monomial) is reachable, which fails once a monomial can")
print("meet every bracket block; the boundary ranks themselves (the")
print("in-range image column) always agree.")
