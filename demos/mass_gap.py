#!/usr/bin/env python3
"""The dynamically generated mass of the large-N sigma model.

At large N the saddle point turns the interaction into a mass m^2 fixed
by the gap equation 1/g0^2 = N ln(1 + Lambda^2/m^2) / 4pi.  The mass is
its exact inversion m^2 = Lambda^2 / (e^{4pi/(N g0^2)} - 1), checked by
substituting it back into an independent quadrature of the tadpole.
"""

import math

from rzs import GapEquationSpec, gap_mass, gap_residual

CUTOFF = 10.0
N = 3

print(f"N = {N}, Lambda = {CUTOFF:g}: the mass the coupling buys")
print("    g0       m^2              residual/LHS")
for coupling in (0.6, 0.8, 1.0, 1.3, 1.8, 2.2):
    spec = GapEquationSpec(coupling=coupling, n_components=N, cutoff=CUTOFF)
    m2 = gap_mass(spec)
    lhs = 1.0 / coupling**2
    rel_resid = gap_residual(spec, m2) / lhs
    print(f"{coupling:7.2f}   {m2:.12e}   {rel_resid:.1e}")
print()

# The exponent 4 pi/(N g0^2) = ln 2 is the edge of the physical regime:
# there the inversion gives exactly m^2 = Lambda^2.
special = math.sqrt(4.0 * math.pi / (2.0 * math.log(2.0)))
spec = GapEquationSpec(coupling=special, n_components=2, cutoff=5.0)
print(f"special point 4 pi/(N g0^2) = ln 2 with Lambda = 5:")
print(f"  g0 = {special:.12f}")
print(f"  m^2 = {gap_mass(spec):.12f}   (Lambda^2 = 25)")
print()

# Push the coupling any higher and the inverted mass would exceed the
# cutoff itself -- the solver refuses instead of returning nonsense.
from rzs import NoSolutionError

try:
    gap_mass(GapEquationSpec(coupling=1.2 * special, n_components=2, cutoff=5.0))
except NoSolutionError as exc:
    print(f"beyond it: {exc}")
