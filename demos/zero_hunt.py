#!/usr/bin/env python3
"""Hunt the low-lying zeros of Z(t) and check them against the counting formula.

Z(t) is real on the critical line and flips sign exactly at the zeros.
The scan samples Z at the Gram points, where theta(g_n) = n pi; between
two consecutive good Gram points, a block of k Gram intervals holds k
zeros (Rosser's rule), so blocks that show fewer sign changes are
subdivided until every zero is bracketed, and Anderson-Bjorck steps refine
each bracket.  The counting formula printed next to the result is the
smooth estimate the exact count oscillates around.
"""

import math

from rzs import count_zeros, scan_zeros, z_function

T_MAX = 100.0

print(f"scanning 0 < t <= {T_MAX:g} ...")
table = scan_zeros(0.0, T_MAX, 1.0e-8)
estimate = count_zeros(T_MAX)
print(f"found {len(table.gamma)} zeros; counting formula expects "
      f"{estimate.n_estimate:.3f}")
print()

print("  n   gamma_n        bracket width   Z left      Z right")
rows = zip(range(table.n_first, table.n_first + 10),
           table.gamma, table.bracket_lo, table.bracket_hi)
for n, gamma, lo, hi in rows:
    z_lo = z_function(lo, 1.0).z_value
    z_hi = z_function(hi, 1.0).z_value
    print(f"{n:4d}   {gamma:.9f}   {hi - lo:.2e}      "
          f"{z_lo:+.2e}  {z_hi:+.2e}")
print(f"... {len(table.gamma) - 10} more below t = {T_MAX:g}")
print()

# The density of zeros grows like ln(t/2pi)/2pi: compare the mean gap
# around t = 100 with the reciprocal density there.
gaps = [b - a for a, b in zip(table.gamma[-6:], table.gamma[-5:])]
mean_gap = sum(gaps) / len(gaps)
print(f"mean gap among the last few zeros: {mean_gap:.3f}")
print(f"1/density at t = {T_MAX:g}:          {1.0 / estimate.density:.3f}")
print()

# Heights sit near the asymptote 2*pi*n/ln(n/2pi) once n is large; at
# these small n the logarithm is still catching up.
from rzs import gamma_asymptotic

print("  n   gamma_n      asymptote    ratio")
for n in range(7, 11):
    gamma = table.gamma[n - table.n_first]
    asym = gamma_asymptotic(n)
    print(f"{n:4d}   {gamma:9.4f}   {asym:9.4f}   {gamma / asym:.3f}")
print()
print(f"first zero refined to {table.gamma[0]:.9f} "
      f"(bracket width {table.bracket_hi[0] - table.bracket_lo[0]:.1e})")
