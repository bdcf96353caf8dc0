"""Ready-made materials and scenarios used by the demos, the self-test,
and the verification suite."""

from __future__ import annotations

import numpy as np

from .material import Material
from .solver import (BoundaryCondition, BoundaryPartition, CosineBump, Grid,
                     RaisedCosinePulse, Scenario, vector_profile)


def reference_material():
    """Coupled one-dimensional set with all blocks active.

    Unit density keeps the balanced decay constants exact; the tiny
    conductivity keeps the anti-diffusive amplification inside the budget
    at the reference resolution.
    """
    return Material(
        dim=1, C=2.0, A=1.0, K=2e-6, rho=1.0, chi=1.0, aHeat=1.0, theta0=1.0,
        xi=1.0, m=0.1, tau=0.0, D=0.15, B=0.3, b=0.1, M=0.2, aVec=0.0,
    )


def toy_unit_material():
    """Fully decoupled unit set: every spectral constant equals one."""
    return Material(dim=1, C=1.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)


def uncoupled_elastic_material():
    """Elastic-void set without thermal coupling (energy-drift checks)."""
    return Material(dim=1, C=2.0, A=1.0, K=0.0, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0, B=0.2, tau=0.0)


def _quiet_faces(dim):
    return BoundaryPartition.all_dirichlet_zero(dim).faces


def pulse_scenario(material=None, nodes=501, length=1.25, T=1.0, amplitude=0.01, dt="auto"):
    """Reference decay scenario: a displacement pulse on the near face of a
    1D bar, all other data zero, boundary data supported in [0, 0.2] and
    the data support declared as the slab x1 <= 0.25."""
    material = reference_material() if material is None else material
    faces = _quiet_faces(1)
    faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=RaisedCosinePulse(amplitude=amplitude, t_end=0.2))
    return Scenario(grid=Grid(extents=(length,), counts=(nodes,)),
                    material=material, boundary=BoundaryPartition(faces=faces),
                    dt=dt, T=T, support_x0=0.25, label="pulse")


def insulated_relaxation_scenario(nodes=401, T=0.6):
    """No sources, insulated (zero heat flux) ends, compact initial bumps
    inside the support slab x1 <= 0.25 of a 1.25 bar; exercises the
    energy-identity bookkeeping with a flux boundary condition in play."""
    faces = _quiet_faces(1)
    faces[(0, "min")]["thermal"] = BoundaryCondition("flux")
    faces[(0, "max")]["thermal"] = BoundaryCondition("flux")
    bump_u = CosineBump(amplitude=0.02, center=(0.12,), width=0.1)
    bump_th = CosineBump(amplitude=0.01, center=(0.14,), width=0.08)
    return Scenario(grid=Grid(extents=(1.25,), counts=(nodes,)),
                    material=reference_material(), boundary=BoundaryPartition(faces=faces),
                    dt="auto", T=T, support_x0=0.25,
                    initial={"u": vector_profile(bump_u, 0, 1), "theta": bump_th},
                    label="insulated-relaxation")


def standing_wave_scenario(nodes=101, T=1.0):
    """Pure elastic-void standing wave on a unit bar with clamped ends (no
    thermal coupling); discrete energy should only wobble, not drift."""

    def u0(X):
        return np.sin(np.pi * X[0])[None, :] * 0.01

    return Scenario(grid=Grid(extents=(1.0,), counts=(nodes,)),
                    material=uncoupled_elastic_material(),
                    boundary=BoundaryPartition(faces=_quiet_faces(1)), dt="auto", T=T,
                    support_x0=1.0,  # whole domain: no decay geometry here
                    initial={"u": u0}, label="standing-wave")


def mms_profiles_1d(length=1.0):
    """Smooth 1D manufactured fields exercising every coupling."""
    import sympy as sp

    x1 = sp.Symbol("x1", real=True)
    t = sp.Symbol("t", real=True)
    u = [sp.Float(0.1) * sp.sin(sp.pi * x1 / length) * sp.cos(sp.Float(1.3) * t + sp.Float(0.2))]
    phi = sp.Float(0.08) * sp.cos(sp.Float(0.9) * sp.pi * x1 / length) * sp.sin(sp.Float(1.1) * t)
    theta = sp.Float(0.05) * sp.sin(sp.Float(0.7) * sp.pi * x1 / length + sp.Float(0.3)) \
        * sp.cos(sp.Float(0.8) * t)
    return u, phi, theta


def mms_profiles_2d():
    """Smooth 2D manufactured fields on the unit square (smoke-test sized
    runs)."""
    import sympy as sp

    x1, x2 = sp.symbols("x1 x2", real=True)
    t = sp.Symbol("t", real=True)
    u = [sp.Float(0.05) * sp.sin(sp.pi * x1) * sp.cos(sp.pi * x2) * sp.cos(t),
         sp.Float(0.04) * sp.cos(sp.pi * x1) * sp.sin(sp.pi * x2) * sp.sin(t)]
    phi = sp.Float(0.03) * sp.sin(sp.pi * x1) * sp.sin(sp.pi * x2) * sp.cos(sp.Float(0.9) * t)
    theta = sp.Float(0.02) * sp.cos(sp.pi * x1) * sp.cos(sp.pi * x2) * sp.sin(sp.Float(0.8) * t)
    return u, phi, theta


def reference_material_2d():
    """Isotropic-like 2D set with light coupling for smoke tests."""
    lam_e, mu_e = 1.0, 0.8
    eye = np.eye(2)
    C = (lam_e * np.einsum("ij,rs->ijrs", eye, eye)
         + mu_e * (np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye)))
    return Material(dim=2, C=C, A=0.8 * eye, K=2e-6 * eye, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=0.9, m=0.05, tau=0.0,
                    B=0.15 * eye, M=0.1 * eye)
