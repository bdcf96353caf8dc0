"""Material admissibility and the decay constants.

Walks a coupled material through validation, the assembled quadratic form,
its spectrum, and the lambda -> (epsilon, zeta, decay rate) map, ending
with the large-lambda growth of the spatial speed.
"""

import numpy as np

import voidtherm as vt
from voidtherm import presets

mat = presets.reference_material()
print("validation:", vt.validate(mat))

Q = vt.assemble_quadratic_form(mat)
print("\nquadratic form in scaled coordinates:")
print(np.array_str(Q, precision=4))

spec = vt.spectrum(mat)
print(f"\nmu_m = {spec.mu_m:.6f}   mu_M = {spec.mu_M:.6f}")
print(f"k_m  = {spec.k_m:.2e}   k_M  = {spec.k_M:.2e}   M2 = {spec.M2:.4f}")

# Rayleigh quotients of random unit vectors stay inside [mu_m, mu_M]
rng = np.random.default_rng(0)
z = rng.normal(size=(50_000, Q.shape[0]))
z /= np.linalg.norm(z, axis=1, keepdims=True)
quot = np.einsum("ki,ij,kj->k", z, Q, z)
print(f"50k random quotients in [{quot.min():.6f}, {quot.max():.6f}]")

print("\nlambda    epsilon      zeta      rate=lambda/zeta   zeta/sqrt(lambda)")
for lam in (0.5, 2.0, 8.0, 32.0, 128.0):
    d = vt.zeta_of_lambda(spec, mat, lam)
    print(f"{lam:7.1f}  {d.epsilon:.6f}  {d.zeta:.6f}  {d.decay_rate:16.6f}"
          f"   {d.zeta / np.sqrt(lam):.6f}")

# with no thermal-stress coupling the speed grows exactly like sqrt(lambda)
toy = presets.toy_unit_material()
ts = vt.spectrum(toy)
print("\ndecoupled unit material, large-lambda tail (target sqrt(k_M/(2 theta0 a rho))"
      f" = {np.sqrt(0.5):.6f}):")
for lam in (1e4, 1e5, 1e6):
    d = vt.zeta_of_lambda(ts, toy, lam)
    print(f"  lambda = {lam:8.0e}   zeta/sqrt(lambda) = {d.zeta / np.sqrt(lam):.6f}")

# the window L <= zeta*t0 + r0 <= zeta*T limits how small lambda may be, and
# the sampling of the run how large: the scan of the reference pulse (L = 1)
for T in (1.0, 0.5):
    print(f"\nadmissible time weights of the reference pulse at T = {T}:")
    for row in vt.admissible_lambdas(presets.pulse_scenario(material=mat, T=T), (2, 32, 1000)):
        status = row.reason or "admissible, anchor (t0, r0) = ({:.4f}, {:.4f})".format(*row.anchor)
        print(f"  lambda = {row.lam:6.1f}: {status}")
