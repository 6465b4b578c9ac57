"""The integer sequences behind the C4 x Cn critical groups.

Both families satisfy x_k = (m+2) x_{k-1} - x_{k-2}; everything below is
exact integer arithmetic.
"""

from critgraph import (
    SeqKind,
    derived_seq,
    observed_valuation,
    predicted_valuation,
    u_prefix,
    u_seq,
    v_partial_sum,
    v_prefix,
)

print("First terms (m = 2 and m = 4):")
print("  e_n = u_n(2):", u_prefix(2, 10))
print("  f_n = u_n(4):", u_prefix(4, 10))
print("  v_n(2):      ", v_prefix(2, 10))
print("  v_n(4):      ", v_prefix(4, 10))

print("\nDerived sums h_n = e_n + e_{n+1} and g_n = f_n + f_{n+1}:")
print("  h:", [derived_seq(SeqKind.H, n) for n in range(8)])
print("  g:", [derived_seq(SeqKind.G, n) for n in range(8)])

# The index factors through the sequence: u_{pq} is a multiple of u_p,
# and the multiplier is an explicit sum of v-terms.
p, q, m = 3, 5, 2
w = v_partial_sum(m, p, q)
print(f"\nu_{p * q}(2) = {u_seq(m, p * q)} = {w} * u_{p}(2) = {w} * {u_seq(m, p)}")

# 2-adic and 3-adic valuations of e_n and f_n are determined by the
# exponents of 2 and 3 in n alone.
print("\nValuations predicted from the index vs computed by trial division:")
print("   n  v2(e_n)  v2(f_n)  v3(e_n)  v3(f_n)")
for n in range(2, 20):
    row = [n]
    for kind in (SeqKind.E, SeqKind.F):
        for prime in (2, 3):
            predicted = predicted_valuation(kind, prime, n)
            observed = observed_valuation(derived_seq(kind, n), prime)
            assert predicted == observed
            row.append(predicted)
    # reorder to v2(e), v2(f), v3(e), v3(f)
    print(f"  {row[0]:2d}  {row[1]:7d}  {row[3]:7d}  {row[2]:7d}  {row[4]:7d}")
print("(all", 4 * 18, "predictions match)")
