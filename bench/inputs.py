"""Inputs of the benchmark workloads that are not files of the program.

- ``data/plate2d.scn``: the 2D plate of ``plate2d-verify``.
- ``data/plate2d.mat``: ``presets.reference_material_2d()`` written with
  ``write_material_file``.  Regenerate it from the repository root with

      PYTHONPATH=src python3 bench/inputs.py

- The 3D manufactured profiles and material of ``mms-converge``
  (functions below).  The 2D case uses ``presets.mms_profiles_2d`` and
  ``presets.reference_material_2d`` from the program itself.
"""

from __future__ import annotations

import os

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PLATE_SCENARIO = os.path.join(DATA, "plate2d.scn")
PLATE_MATERIAL = os.path.join(DATA, "plate2d.mat")

# (label, dimension, nodes per axis) of the convergence ladders; every run
# uses dt = 0.15 h, T = 0.25 and three samples.
MMS_CASES = (("2d-33", 2, 33), ("2d-65", 2, 65), ("2d-129", 2, 129),
             ("3d-17", 3, 17), ("3d-33", 3, 33))
MMS_T = 0.25
MMS_DT_PER_H = 0.15


def mms_profiles_3d():
    """Smooth 3D manufactured fields that exercise every coupling; the 3D
    analogue of ``presets.mms_profiles_2d`` on the unit cube."""
    import sympy as sp

    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
    t = sp.Symbol("t", real=True)
    pi, F = sp.pi, sp.Float
    u = [F(0.05) * sp.sin(pi * x1) * sp.cos(pi * x2) * sp.cos(pi * x3) * sp.cos(t),
         F(0.04) * sp.cos(pi * x1) * sp.sin(pi * x2) * sp.cos(pi * x3) * sp.sin(t),
         F(0.03) * sp.cos(pi * x1) * sp.cos(pi * x2) * sp.sin(pi * x3) * sp.cos(F(1.2) * t)]
    phi = F(0.03) * sp.sin(pi * x1) * sp.sin(pi * x2) * sp.sin(pi * x3) * sp.cos(F(0.9) * t)
    theta = F(0.02) * sp.cos(pi * x1) * sp.cos(pi * x2) * sp.cos(pi * x3) * sp.sin(F(0.8) * t)
    return u, phi, theta


def reference_material_3d():
    """Isotropic 3D analogue of ``presets.reference_material_2d``."""
    import numpy as np

    from voidtherm.material import Material

    lam_e, mu_e = 1.0, 0.8
    eye = np.eye(3)
    C = (lam_e * np.einsum("ij,rs->ijrs", eye, eye)
         + mu_e * (np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye)))
    return Material(dim=3, C=C, A=0.8 * eye, K=2e-6 * eye, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=0.9, m=0.05, tau=0.0,
                    B=0.15 * eye, M=0.1 * eye)


def write_plate_material(path=PLATE_MATERIAL):
    from voidtherm import presets
    from voidtherm.material import write_material_file

    write_material_file(presets.reference_material_2d(), path)


if __name__ == "__main__":
    write_plate_material()
    print(f"wrote {PLATE_MATERIAL}")
