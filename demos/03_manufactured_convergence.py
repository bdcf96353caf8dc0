"""Verification by manufactured solutions.

Smooth displacement / void-fraction / temperature fields are chosen, the
volumetric sources that make them exact are derived symbolically, and the
solver error plus the energy-identity residual are tracked over a doubling
grid hierarchy.  Both drop at second order.
"""

import numpy as np

import voidtherm as vt
from voidtherm import presets
from voidtherm.mms import manufactured_scenario
from voidtherm.solver import SimState, Trajectory

mat = presets.reference_material()
u, phi, theta = presets.mms_profiles_1d(length=1.0)
T = 0.4

print("solver error (max norm at t = T):")
print("nodes      u            phi          theta")
errors = []
for n in (51, 101, 201):
    grid = vt.Grid(extents=(1.0,), counts=(n,))
    h = 1.0 / (n - 1)
    scen, exact = manufactured_scenario(u, phi, theta, grid, mat, dt=0.2 * h, T=T)
    traj = vt.run(scen, n_samples=5)
    err = exact.errors(traj.states[-1], scen)
    errors.append(err)
    print(f"{n:5d}  {err['u']:.3e}   {err['phi']:.3e}   {err['theta']:.3e}")
for key in ("u", "phi", "theta"):
    ratios = [errors[i][key] / errors[i + 1][key] for i in range(2)]
    print(f"{key}: halving ratios {[round(r, 2) for r in ratios]} (4 = second order)")

print("\nenergy-identity residual of the manufactured fields:")
residuals = []
for n in (101, 201, 401):
    grid = vt.Grid(extents=(1.0,), counts=(n,))
    h = 1.0 / (n - 1)
    nsteps = int(round(T / (0.2 * h)))
    scen, exact = manufactured_scenario(u, phi, theta, grid, mat, dt=0.2 * h, T=T)
    X = scen.mesh()
    times = np.linspace(0.0, T, nsteps + 1)
    states = [SimState(t=float(t), u=exact.u(X, float(t)), v=exact.udot(X, float(t)),
                       phi=exact.phi(X, float(t)), phidot=exact.phidot(X, float(t)),
                       theta=exact.theta(X, float(t))) for t in times]
    traj = Trajectory(scenario=scen, times=times, states=states)
    rep = vt.check_energy_identity(vt.record_trajectory(traj), lam=2.0)
    residuals.append(rep.residual)
    print(f"{n:5d} nodes: residual {rep.residual:.3e}")
print("halving ratios:", [round(residuals[i] / residuals[i + 1], 3) for i in range(2)])
