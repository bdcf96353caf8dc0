"""Time reversal connects the dissipative and anti-dissipative systems.

A dissipative run (standard signs: damped void rate, forward heat
conduction) is integrated from compact initial bumps; reflecting it in time
and flipping the velocity fields yields a trajectory of the
anti-dissipative system, with discrete balance residuals matching the
forward run's to round-off.  The direct anti-dissipative run shows the
weighted energy growing instead of decaying.
"""

import numpy as np

import voidtherm as vt
from voidtherm import presets

scen = presets.insulated_relaxation_scenario(nodes=201, T=0.4)
fwd = vt.run(scen, n_samples=161, dissipative=True)
# n_samples caps the count: the stride ceil(nsteps / 160) divides the padded
# step count, so fewer, uniformly spaced samples may come back
print(f"dissipative run: {fwd.log['nsteps']} steps, {fwd.times.size} samples "
      f"(at most 161 asked for)")
print(f"  total energy  t=0: {fwd.log['energy'][0]:.6e}")
print(f"  total energy  t=T: {fwd.log['energy'][-1]:.6e}  (decays)")

res_fwd = vt.pde_residual(fwd)
print("\nbalance residuals of the dissipative run (relative):")
for key, val in res_fwd.items():
    print(f"  {key:9s} {val:.3e}")

rev = vt.reverse_time(fwd)
res_rev = vt.pde_residual(rev)
print("\nresiduals of the reflected trajectory in the anti-dissipative system:")
for key, val in res_rev.items():
    gap = abs(val - res_fwd[key])
    print(f"  {key:9s} {val:.3e}   (match to {gap:.1e})")

twice = vt.reverse_time(rev)
gap = max(np.abs(a.u - b.u).max() for a, b in zip(twice.states, fwd.states))
print(f"\nreversing twice reproduces the original run exactly: max gap {gap:.1e}")

# conduction-only comparison: with the motion decoupled, the two time
# directions act on the temperature energy symmetrically
from voidtherm.solver import BoundaryPartition, Grid, Scenario

cond = vt.Material(dim=1, C=1.0, A=1.0, K=5e-5, rho=1.0, chi=1.0,
                   aHeat=1.0, theta0=1.0, xi=1.0)
bump = vt.CosineBump(amplitude=0.05, center=(0.6,), width=0.15)
heat = Scenario(grid=Grid(extents=(1.25,), counts=(201,)), material=cond,
                boundary=BoundaryPartition.all_dirichlet_zero(1), dt="auto", T=0.4,
                support_x0=1.25, initial={"theta": bump}, label="conduction")
damped = vt.run(heat, n_samples=81, dissipative=True)
grown = vt.run(heat, n_samples=81)
print("\nconduction-only temperature bump, both time directions:")
print(f"  dissipative      {damped.log['energy'][0]:.6e} -> {damped.log['energy'][-1]:.6e}"
      f"  ({damped.log['energy'][-1] / damped.log['energy'][0] - 1.0:+.3%})")
print(f"  anti-dissipative {grown.log['energy'][0]:.6e} -> {grown.log['energy'][-1]:.6e}"
      f"  ({grown.log['energy'][-1] / grown.log['energy'][0] - 1.0:+.3%})")
