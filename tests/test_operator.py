"""The stepping operator against a test-held reference, and the stability
budget against the operator's own conduction block.

The reference is the semi-discrete right-hand side written with
``np.gradient`` and the pointwise constitutive kernel, flux-face corrections
included: the accelerations of (u, phi) and the temperature rate.  It is the
oracle the operator's stacked differences, packed contraction and face plans
must reproduce.
"""

import itertools

import numpy as np
import pytest

import voidtherm as vt
from voidtherm.constitutive import entropy_field, field_response
from voidtherm.solver import (BoundaryCondition, BoundaryPartition, SimState,
                              _face_data, _Operator, face_slice)

# ---------------------------------------------------------------------------
# reference right-hand side


def ref_grad(f, grid):
    return np.stack([np.gradient(f, grid.spacing[j], axis=j, edge_order=2)
                     for j in range(grid.dim)])


def ref_divergence(flux, grid):
    return sum(np.gradient(flux[j], grid.spacing[j], axis=j, edge_order=2)
               for j in range(grid.dim))


def ref_heat_flux_faces(dtheta, scenario, t):
    mat, d = scenario.material, scenario.grid.dim
    for (axis, side), groups in scenario.boundary.faces.items():
        if groups["thermal"].kind != "flux":
            continue
        fs = face_slice(axis, side, d)
        acc = (-1.0 if side == "min" else 1.0) * _face_data(scenario, (axis, side), "thermal", t)
        for s in range(d):
            if s != axis:
                acc = acc - mat.K[axis, s] * dtheta[(s,) + fs]
        dtheta[(axis,) + fs] = acc / mat.K[axis, axis]


def ref_flux_corrections(du, dphi, phi, theta, scenario, t):
    mat, d = scenario.material, scenario.grid.dim
    rows = ("displacement",) * d + ("void",)
    for (axis, side), groups in scenario.boundary.faces.items():
        flux_groups = [g for g in ("displacement", "void") if groups[g].kind == "flux"]
        if not flux_groups:
            continue
        sel = [r for r, g in enumerate(rows) if g in flux_groups]
        fs = face_slice(axis, side, d)
        du_face = du[(slice(None), slice(None)) + fs]
        dphi_face = dphi[(slice(None),) + fs]
        S, h, _, _ = field_response(0.5 * (du_face + du_face.swapaxes(0, 1)), dphi_face,
                                    None, phi[fs], theta[fs], mat)
        N = np.empty((d + 1, d + 1))
        N[:d, :d] = mat.C[:, axis, :, axis]
        N[:d, d] = N[d, :d] = mat.D[:, axis, axis]
        N[d, d] = mat.A[axis, axis]
        sigma = -1.0 if side == "min" else 1.0
        data = np.concatenate([
            np.reshape(_face_data(scenario, (axis, side), g, t), (-1,) + np.shape(phi[fs]))
            for g in flux_groups])
        resid = sigma * data - np.concatenate([S[:, axis], h[axis][None]])[sel]
        x = np.concatenate([du_face[:, axis], dphi_face[axis][None]])
        x[sel] += np.linalg.solve(N[np.ix_(sel, sel)],
                                  resid.reshape(len(sel), -1)).reshape(resid.shape)
        du[(slice(None), axis) + fs] = x[:d]
        dphi[(axis,) + fs] = x[d]


def ref_accelerations(u, phi, theta, phidot_lag, scenario, t, tau_sign):
    mat, grid = scenario.material, scenario.grid
    du = np.stack([ref_grad(u[i], grid) for i in range(grid.dim)])
    dphi = ref_grad(phi, grid)
    ref_flux_corrections(du, dphi, phi, theta, scenario, t)
    S, h, G, _ = field_response(0.5 * (du + du.swapaxes(0, 1)), dphi, None, phi, theta, mat)
    div_s = np.stack([ref_divergence(S[i], grid) for i in range(grid.dim)])
    g = tau_sign * mat.tau * phidot_lag + G
    acc_u = (div_s + mat.rho * scenario.source("f", t)) / mat.rho
    acc_p = (ref_divergence(h, grid) + g + mat.rho * scenario.source("ell", t)) / (mat.rho * mat.chi)
    return acc_u, acc_p


def ref_theta_rate(v, phidot, theta, scenario, t, thermal_sign):
    mat, grid = scenario.material, scenario.grid
    dtheta = ref_grad(theta, grid)
    ref_heat_flux_faces(dtheta, scenario, t)
    div_q = ref_divergence(np.einsum("ij,j...->i...", mat.K, dtheta), grid)
    dv = np.stack([ref_grad(v[i], grid) for i in range(grid.dim)])
    coupling = entropy_field(0.5 * (dv + dv.swapaxes(0, 1)), ref_grad(phidot, grid), phidot,
                             0.0, mat)
    rsrc = scenario.source("r", t)
    return (thermal_sign * (div_q + mat.rho * rsrc) / mat.theta0 - coupling) / mat.aHeat


# ---------------------------------------------------------------------------
# helpers


def random_faces(dim, grid, kinds, rng):
    """Every face carries ``kinds`` (one per group) with random field data."""
    X = grid.mesh()
    faces = {}
    for axis in range(dim):
        for side in ("min", "max"):
            face_shape = X[0][face_slice(axis, side, dim)].shape
            faces[(axis, side)] = {}
            for g, kind, size in zip(vt.solver.GROUPS, kinds, ((dim,), (), ())):
                values = rng.normal(size=size + face_shape)
                faces[(axis, side)][g] = BoundaryCondition(kind, fielddata=vt.FieldData(
                    value=lambda X, t, a=values: a, rate=lambda X, t, a=values: 0.0 * a))
    return faces


def random_sources(dim, rng):
    """Smooth space-time sources, so the source terms of the balances count."""
    w = rng.normal(size=3)

    def scalar(k):
        return lambda X, t: np.cos(w[k] * t + sum(X)) + X[0] ** 2

    return {"f": lambda X, t: np.stack([scalar(0)(X, t) * (i + 1) for i in range(dim)]),
            "ell": scalar(1), "r": scalar(2)}


def rel_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("dissipative", (False, True))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_operator_matches_reference(dim, dissipative):
    rng = np.random.default_rng(31 + dim)
    mat = vt.random_material(dim, rng)
    grid = vt.Grid(extents=(1.0, 0.8, 1.2)[:dim], counts=(9, 7, 6)[:dim])
    counts = grid.counts
    worst = 0.0
    for kinds in itertools.product(("dirichlet", "flux"), repeat=3):
        scen = vt.Scenario(grid=grid, material=mat,
                           boundary=BoundaryPartition(faces=random_faces(dim, grid, kinds, rng)),
                           dt="auto", T=1.0, support_x0=1.0, sources=random_sources(dim, rng))
        state = SimState(t=0.37, u=rng.normal(size=(dim,) + counts),
                         v=rng.normal(size=(dim,) + counts), phi=rng.normal(size=counts),
                         phidot=rng.normal(size=counts), theta=rng.normal(size=counts))
        lag = rng.normal(size=counts)
        tau_sign, thermal_sign = (-1.0, 1.0) if dissipative else (1.0, -1.0)
        acc_u, acc_p = ref_accelerations(state.u, state.phi, state.theta, lag, scen,
                                         state.t, tau_sign)
        tdot = ref_theta_rate(state.v, state.phidot, state.theta, scen, state.t, thermal_sign)

        op = _Operator(scen, dissipative)
        got_acc, got_tdot = op.rates(state, lag)
        for got, want in ((got_acc[:dim], acc_u), (got_acc[dim], acc_p), (got_tdot, tdot)):
            gap = rel_gap(got, want)
            worst = max(worst, gap)
            assert gap <= 1e-13, (kinds, gap)
        # the kinematics come from the same corrected differences
        e, gamma, kappa = op.kinematics(state)
        du = np.stack([ref_grad(state.u[i], grid) for i in range(dim)])
        dphi = ref_grad(state.phi, grid)
        ref_flux_corrections(du, dphi, state.phi, state.theta, scen, state.t)
        dtheta = ref_grad(state.theta, grid)
        ref_heat_flux_faces(dtheta, scen, state.t)
        assert rel_gap(e, 0.5 * (du + du.swapaxes(0, 1))) <= 1e-13
        assert rel_gap(gamma, dphi) <= 1e-13
        assert rel_gap(kappa, dtheta) <= 1e-13


@pytest.mark.parametrize("shape", [(3, 501), (3, 161, 81), (2, 7, 3, 5), (1, 3, 4)])
def test_difference_is_np_gradient(shape):
    # the one difference routine does np.gradient's arithmetic bit for bit
    f = np.random.default_rng(len(shape)).normal(size=shape)
    for axis in range(len(shape) - 1):
        h = 0.1 * (axis + 1) / 3.0
        want = np.gradient(f, h, axis=axis + 1, edge_order=2)
        assert np.array_equal(vt.solver._difference(f, axis, h), want)


@pytest.mark.parametrize("kinds, probes", [
    (("dirichlet", "dirichlet", "flux"), 0),  # kinematics alone never needs the law
    (("flux", "flux", "flux"), 1),
])
def test_kernel_probed_at_most_once(kinds, probes, monkeypatch):
    calls = []
    probe = vt.solver._response_matrix
    monkeypatch.setattr(vt.solver, "_response_matrix", lambda mat: calls.append(1) or probe(mat))
    rng = np.random.default_rng(5)
    grid = vt.Grid(extents=(1.0, 0.8), counts=(9, 7))
    scen = vt.Scenario(grid=grid, material=vt.random_material(2, rng),
                       boundary=BoundaryPartition(faces=random_faces(2, grid, kinds, rng)),
                       dt="auto", T=1.0, support_x0=1.0)
    zeros = (np.zeros((2,) + grid.counts), np.zeros(grid.counts))
    state = SimState(t=0.0, u=zeros[0], v=zeros[0], phi=zeros[1], phidot=zeros[1],
                     theta=zeros[1])
    op = _Operator(scen)
    op.kinematics(state)
    assert len(calls) == probes
    op.rates(state, zeros[1])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the stability budget is conservative for the discrete conduction block


def conduction_growth_exponent(scen, T):
    """max Re eig of the anti-dissipative temperature rate, assembled from unit
    vectors on the nodes off Dirichlet faces (homogeneous data), times T."""
    grid, d = scen.grid, scen.grid.dim
    free = np.ones(grid.counts, dtype=bool)
    for (axis, side), groups in scen.boundary.faces.items():
        if groups["thermal"].kind == "dirichlet":
            free[face_slice(axis, side, d)] = False
    nodes = np.flatnonzero(free)
    op = _Operator(scen)
    cols = []
    zeros = (np.zeros((d,) + grid.counts), np.zeros(grid.counts))
    for k in nodes:
        theta = np.zeros(grid.counts)
        theta.flat[k] = 1.0
        state = SimState(t=0.0, u=zeros[0], v=zeros[0], phi=zeros[1], phidot=zeros[1],
                         theta=theta)
        _, tdot = op.rates(state, zeros[1])
        cols.append(tdot.ravel()[nodes])
    return float(np.linalg.eigvals(np.array(cols).T).real.max()) * T


def conduction_scenario(dim, counts, K, rho, T):
    d = dim
    eye = np.eye(d)
    C = np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye)
    mat = vt.Material(dim=d, C=C, A=eye, K=K, rho=rho, chi=1.0, aHeat=1.0,
                      theta0=1.0, xi=1.0)
    faces = BoundaryPartition.all_dirichlet_zero(d).faces
    # heat flux on the far end and on the lateral faces, zero data
    faces[(0, "max")]["thermal"] = BoundaryCondition("flux")
    for axis in range(1, d):
        for side in ("min", "max"):
            faces[(axis, side)]["thermal"] = BoundaryCondition("flux")
    return vt.Scenario(grid=vt.Grid(extents=(1.0,) * d, counts=counts), material=mat,
                       boundary=BoundaryPartition(faces=faces), dt="auto", T=T,
                       support_x0=1.0)


@pytest.mark.parametrize("dim, counts, K, rho", [
    (1, (41,), [[1e-4]], 1.0),
    (2, (11, 9), [[2e-3, 8e-4], [8e-4, 1e-3]], 1.0),
    (3, (7, 6, 5), [[3e-3, 1e-3, -5e-4], [1e-3, 2e-3, 4e-4], [-5e-4, 4e-4, 1.5e-3]], 1.0),
    # the temperature rate carries no rho, so neither may the gate
    (1, (41,), [[1e-4]], 10.0),
    (1, (41,), [[1e-4]], 0.1),
])
def test_stability_budget_is_conservative(dim, counts, K, rho):
    T = 1.0
    scen = conduction_scenario(dim, counts, np.array(K), rho, T)
    _, growth = vt.stability_budget(scen, enforce=False)
    exponent = conduction_growth_exponent(scen, T)
    assert exponent > 0.0
    assert np.exp(exponent) <= growth, (np.exp(exponent), growth)
