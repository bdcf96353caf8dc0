"""Spatial decay of the time-weighted measure behind a boundary pulse.

A displacement pulse acts on the near face of a 1D bar for t <= 0.2; all
other data vanish, so the data support is the slab x <= 0.25.  The script
certifies the (anti-dissipative) run with ``vt.certify``: the measure
E(r, t), its energy identity, the first-order differential inequality and
the decay estimate.  It then follows ln E along the characteristic to
exhibit the exponential decay.
"""

import math

import numpy as np

import voidtherm as vt
from voidtherm import presets

scen = presets.pulse_scenario()
geom = vt.support_geometry(scen)
print(f"bar length {scen.grid.extents[0]}, slab depth x0 = {scen.support_x0}, "
      f"L = {geom.L}, T = {scen.T}")

dt_max, growth = vt.stability_budget(scen)
print(f"wave dt bound {dt_max:.3e}; worst-case thermal amplification {growth:.1f}")

# one streamed run: lambda from the grid 2, 4, ..., 32, the automatic
# anchor, and the three checks with their slacks
verdict, series = vt.certify(scen)
lam, decay = series.lam, series.decay
print(f"time weight lambda = {lam}: epsilon = {decay.epsilon:.5f}, "
      f"zeta = {decay.zeta:.5f}, decay rate = {decay.decay_rate:.3f}")

print("\nE(r, T) profile (every 50th depth):")
for j in range(0, series.r.size, 50):
    print(f"  r = {series.r[j]:.3f}   E = {series.E[j, -1]:.6e}")

for key in ("energy_identity", "diff_inequality", "decay"):
    print(f"{key}: {verdict[key]}")
t0, r0 = verdict["window"]["t0"], verdict["window"]["r0"]
print(f"\nanchors: t0 = {t0:.4f}, r0 = {r0:.4f}; certificate "
      f"{'PASS' if verdict['passed'] else 'FAIL'}")

print("\nln E along the characteristic vs the certified line:")
tchar = t0 + (r0 - series.r) / decay.zeta
e_char = np.array([np.interp(tchar[j], series.t, series.E[j])
                   for j in range(series.r.size)])
line = np.log(e_char[0]) - decay.decay_rate * series.r
for j in range(0, series.r.size, 40):
    if e_char[j] <= 0:
        print(f"  r = {series.r[j]:.3f}   E = 0 (outside the influence region)")
        continue
    print(f"  r = {series.r[j]:.3f}   ln E = {math.log(e_char[j]):10.3f}   "
          f"bound = {line[j]:10.3f}")

vt.write_measure_csv(series, "pulse_measures.csv", r_stride=8, t_stride=16)
print("\nwrote pulse_measures.csv")
