#!/usr/bin/env python3
"""Three independent routes to the 2D one-loop bubble Pi(p).

The closed form comes from an elementary integration, the second route
evaluates the Feynman-parameter integral by adaptive quadrature, and
the correlator 1/Pi approaches 2*pi*t/ln(t/m^2) as t = p^2 grows.  The
routes have nothing in common numerically, so their agreement is a real
check, not bookkeeping.
"""

import math

from rzs import BubbleSpec, correlator_sample, feynman_integral, pi_at_zero, pi_closed

print("closed form vs Feynman-parameter quadrature (m = 1):")
print("    p        closed            quadrature        rel diff")
for p in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
    closed = pi_closed(p, 1.0)
    quadrature = feynman_integral(BubbleSpec(1.0, 1.0, 2.0, p, 1.0))
    rel = abs(closed - quadrature) / closed
    print(f"{p:8.2f}   {closed:.12e}   {quadrature:.12e}   {rel:.1e}")
print()

print("p -> 0 limit: Pi(0) = 1/(4 pi m^2)")
print(f"  pi_at_zero(1)      = {pi_at_zero(1.0):.15f}")
print(f"  1/(4 pi)           = {1.0 / (4.0 * math.pi):.15f}")
print(f"  pi_closed(1e-3, 1) = {pi_closed(1.0e-3, 1.0):.15f}   (the same formula as at any p)")
print()

print("correlator against its own asymptote 2*pi*t/ln(t/m^2):")
print("    t/m^2      correlator        asymptote         ratio - 1")
for exponent in (1, 2, 3, 4, 5, 6):
    sample = correlator_sample(10.0**exponent, 1.0)
    ratio = sample.correlator / sample.asymptote
    print(f"  10^{exponent}      {sample.correlator:.6e}    "
          f"{sample.asymptote:.6e}    {ratio - 1.0:+.2e}")
print()
print("below t = m^2 the logarithm changes sign and the asymptote stops")
print("meaning anything; the sample marks it undefined:")
sample = correlator_sample(0.5, 1.0)
print(f"  t = 0.5, m^2 = 1  ->  asymptote = {sample.asymptote}")
