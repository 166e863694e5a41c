"""Sigma-permutable subgroups and the transitivity question.

A subgroup A is sigma-permutable in G when some complete Hall sigma-set
can be chosen so that A permutes (as a set product) with every member and
every conjugate of every member.  Permutability is not transitive in
general: K sigma-permutable in H and H sigma-permutable in G does not
force K sigma-permutable in G.  Groups where it *is* transitive are the
PsigmaT-groups.
"""

from sigmagroups import (Perm, SigmaPartition, Subgroup, all_subgroups, builtin_entry,
                         is_psigma_t, is_sigma_permutable, normal_subgroups,
                         psigma_t_violation)

SIGMA1 = SigmaPartition.sigma1()

# --- which subgroups of S3 permute with the Hall set? --------------------------

S3 = builtin_entry("S3").build()
print("subgroups of S3, sigma1-permutable or not:")
for gens in ["()", "(1 2)", "(1 3)", "(1 2 3)"]:
    H = Subgroup(S3, [Perm.parse(gens, 3)])
    verdict = is_sigma_permutable(S3, H, SIGMA1)
    print(f"    <{gens}>  order {H.order}: {verdict}")
print("orders of all sigma1-permutable subgroups of S3:",
      sorted(H.order for H in all_subgroups(S3) if is_sigma_permutable(S3, H, SIGMA1)))
# Only 1, A3 and S3 qualify: a single transposition fails against the
# conjugates of the Sylow 2-subgroups.

# Normal subgroups always qualify.
A4 = builtin_entry("A4").build()
permutable = [H for H in all_subgroups(A4) if is_sigma_permutable(A4, H, SIGMA1)]
assert all(N in permutable for N in normal_subgroups(A4))
print("every normal subgroup of A4 is sigma1-permutable: True")

# --- transitivity can fail ------------------------------------------------------

print("\nPsigmaT verdicts at sigma1:")
for name in ["S3", "Q8", "D8", "A4", "S4", "SL(2,3)"]:
    G = builtin_entry(name).build()
    print(f"    {name:8s} {is_psigma_t(G, SIGMA1)}")

S4 = builtin_entry("S4").build()
K, H = psigma_t_violation(S4, SIGMA1)
print("\nwitness chain in S4: |K| =", K.order, " |H| =", H.order)
print("    K sigma-permutable in H:",
      is_sigma_permutable(H, Subgroup(H, K.generators), SIGMA1))
print("    H sigma-permutable in G:", is_sigma_permutable(S4, H, SIGMA1))
print("    K sigma-permutable in G:", is_sigma_permutable(S4, K, SIGMA1))
