"""Explicit time-domain solver for the coupled displacement / void-fraction /
temperature system on rectilinear grids.

The hyperbolic fields advance by velocity-Verlet, the temperature by an
explicit midpoint rule riding on the Verlet half-step velocities.  The
default integration direction carries the anti-dissipative thermal sign of
the time-reflected forward problem; ``dissipative=True`` selects the
standard dissipative signs instead.  Spatial derivatives are second-order
central differences with second-order one-sided stencils at boundaries;
prescribed boundary fluxes (traction, equilibrated-stress flux, heat flux)
are imposed by overriding the normal derivatives at the face so the nodal
flux matches the data, which is algebraically the ghost-node construction.
On a face with normal axis a, traction and equilibrated-stress flux are
one linear solve: the face flux (S[:, a], h[a]) comes from the constitutive
kernel, and the normal-flux matrix
N = [[C[:, a, :, a], D[:, a, a]], [D[:, a, a]^T, A[a, a]]], restricted to
the rows and columns of the groups that carry flux data, serves every
combination.  The heat-flux faces have a routine of their own, shared by the
sampled kinematics and the temperature rate; the mechanical update never
forms the temperature gradient, since stress, equilibrated stress and
intrinsic force do not depend on it.  One routine reads face data and one
writes Dirichlet data.

The constitutive law comes from :mod:`voidtherm.constitutive`;
``field_response`` is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import energy_density_parts, entropy_field, field_response
from .material import Material, spectrum as material_spectrum

GROUPS = ("displacement", "void", "thermal")


class CflViolation(ValueError):
    """Time step exceeds the wave-speed bound."""


class NonFiniteField(RuntimeError):
    """A field left the finite range (anti-diffusive blow-up)."""


class BudgetExceeded(ValueError):
    """Worst-case thermal amplification above the admissible cap."""


class ScenarioFileError(ValueError):
    """Malformed scenario file."""


# ---------------------------------------------------------------------------
# Grid


@dataclass(frozen=True)
class Grid:
    """Rectilinear node-centred grid on [0, extent_i] per axis."""

    extents: tuple
    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in np.atleast_1d(self.extents)))
        object.__setattr__(self, "counts", tuple(int(n) for n in np.atleast_1d(self.counts)))
        if len(self.extents) != len(self.counts):
            raise ValueError("extents and counts must have matching length")
        if any(n < 3 for n in self.counts):
            raise ValueError("need at least 3 nodes per axis")
        if any(e <= 0 for e in self.extents):
            raise ValueError("extents must be positive")

    @property
    def dim(self):
        return len(self.counts)

    @property
    def spacing(self):
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.counts))

    def axes(self):
        return [np.linspace(0.0, e, n) for e, n in zip(self.extents, self.counts)]

    def mesh(self):
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))


def face_slice(axis, side, dim):
    """Index tuple selecting one boundary face of a grid-shaped array."""
    idx = [slice(None)] * dim
    idx[axis] = 0 if side == "min" else -1
    return tuple(idx)


# ---------------------------------------------------------------------------
# Time signals (compact support in [0, t_end])


class ZeroSignal:
    def value(self, t):
        return 0.0

    def rate(self, t):
        return 0.0

    def __repr__(self):
        return "ZeroSignal()"


@dataclass(frozen=True)
class RaisedCosinePulse:
    """One raised-cosine bump, C^1, supported in [0, t_end]."""

    amplitude: float
    t_end: float

    def value(self, t):
        if t <= 0.0 or t >= self.t_end:
            return 0.0
        return 0.5 * self.amplitude * (1.0 - math.cos(2.0 * math.pi * t / self.t_end))

    def rate(self, t):
        if t <= 0.0 or t >= self.t_end:
            return 0.0
        return self.amplitude * math.pi / self.t_end * math.sin(2.0 * math.pi * t / self.t_end)


@dataclass(frozen=True)
class WindowedGaussianPulse:
    """Gaussian under a raised-cosine window, C^1, supported in [0, t_end]."""

    amplitude: float
    center: float
    sigma: float
    t_end: float

    def _parts(self, t):
        g = math.exp(-0.5 * ((t - self.center) / self.sigma) ** 2)
        w = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.t_end))
        gdot = -g * (t - self.center) / self.sigma ** 2
        wdot = math.pi / self.t_end * math.sin(2.0 * math.pi * t / self.t_end)
        return g, w, gdot, wdot

    def value(self, t):
        if t <= 0.0 or t >= self.t_end:
            return 0.0
        g, w, _, _ = self._parts(t)
        return self.amplitude * g * w

    def rate(self, t):
        if t <= 0.0 or t >= self.t_end:
            return 0.0
        g, w, gdot, wdot = self._parts(t)
        return self.amplitude * (gdot * w + g * wdot)


@dataclass(frozen=True)
class TimeReflectedSignal:
    inner: object
    horizon: float

    def value(self, t):
        return self.inner.value(self.horizon - t)

    def rate(self, t):
        return -self.inner.rate(self.horizon - t)


# ---------------------------------------------------------------------------
# Boundary data


@dataclass(frozen=True)
class FieldData:
    """Spatially varying boundary data: callables (coords, t) -> array."""

    value: object
    rate: object


@dataclass(frozen=True)
class BoundaryCondition:
    """One face assignment for one field group.

    ``kind`` is "dirichlet" or "flux" (traction for the displacement group,
    equilibrated-stress flux for the void group, heat flux for the thermal
    group).  Uniform-in-space data comes from ``signal`` (applied along
    component ``axis`` for vector groups); ``fielddata`` overrides it.
    """

    kind: str
    signal: object = field(default_factory=ZeroSignal)
    axis: int = 0
    fielddata: FieldData | None = None

    def is_zero(self):
        return self.fielddata is None and isinstance(self.signal, ZeroSignal)


@dataclass
class BoundaryPartition:
    """Per-face, per-group table of boundary conditions."""

    faces: dict

    @classmethod
    def all_dirichlet_zero(cls, dim):
        faces = {}
        for axis in range(dim):
            for side in ("min", "max"):
                faces[(axis, side)] = {g: BoundaryCondition("dirichlet") for g in GROUPS}
        return cls(faces=faces)

    def validate(self, dim):
        errors = []
        expected = {(axis, side) for axis in range(dim) for side in ("min", "max")}
        if set(self.faces) != expected:
            errors.append(f"boundary table must cover faces {sorted(expected)}, got {sorted(self.faces)}")
            return errors
        for key, groups in self.faces.items():
            for g in GROUPS:
                if g not in groups:
                    errors.append(f"face {key}: missing group '{g}'")
                elif groups[g].kind not in ("dirichlet", "flux"):
                    errors.append(f"face {key}: bad kind '{groups[g].kind}' for group '{g}'")
        return errors


def _face_data(scenario, face, group, t, rate=False):
    """Boundary data of one group on one face at time t (``rate=True``: its
    time derivative), shaped like the face nodes of the group's field:
    (d, *face) for the displacement, (*face) otherwise."""
    axis, side = face
    bc = scenario.boundary.faces[face][group]
    grid = scenario.grid
    shape = tuple(n for j, n in enumerate(grid.counts) if j != axis)
    if group == "displacement":
        shape = (grid.dim,) + shape
    if bc.fielddata is not None:
        fn = bc.fielddata.rate if rate else bc.fielddata.value
        coords = tuple(Xi[face_slice(axis, side, grid.dim)] for Xi in scenario.mesh())
        return np.broadcast_to(np.asarray(fn(coords, t), dtype=float), shape)
    s = bc.signal.rate(t) if rate else bc.signal.value(t)
    if group != "displacement":
        return np.full(shape, s)
    out = np.zeros(shape)
    out[bc.axis] = s
    return out


# ---------------------------------------------------------------------------
# Named spatial profiles (initial data)


@dataclass(frozen=True)
class CosineBump:
    """Compact radial bump A*cos^2(pi*s/(2*width)) for s = |x - center| < width."""

    amplitude: float
    center: tuple
    width: float

    def __call__(self, X):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        s2 = sum((Xi - c) ** 2 for Xi, c in zip(X, center))
        s = np.sqrt(s2)
        val = self.amplitude * np.cos(0.5 * math.pi * s / self.width) ** 2
        return np.where(s < self.width, val, 0.0)


def vector_profile(profile, axis, dim):
    """Scalar spatial profile applied along one displacement component."""

    def fn(X):
        base = np.asarray(profile(X), dtype=float)
        out = np.zeros((dim,) + base.shape)
        out[axis] = base
        return out

    return fn


# ---------------------------------------------------------------------------
# Scenario


@dataclass
class Scenario:
    """Everything one run needs: geometry, material, boundary table,
    initial data, volumetric sources, step, horizon, and the slab depth
    ``support_x0`` below which all data must live."""

    grid: Grid
    material: Material
    boundary: BoundaryPartition
    dt: object
    T: float
    support_x0: float
    initial: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    label: str = ""
    _mesh_cache: tuple | None = field(default=None, repr=False, compare=False)

    def mesh(self):
        if self._mesh_cache is None:
            self._mesh_cache = self.grid.mesh()
        return self._mesh_cache

    def source(self, key, t):
        fn = self.sources.get(key)
        d, counts = self.grid.dim, self.grid.counts
        shape = (d,) + counts if key == "f" else counts
        if fn is None:
            return np.zeros(shape)
        out = np.asarray(fn(self.mesh(), t), dtype=float)
        return np.broadcast_to(out, shape)

    def resolve_dt(self):
        if self.dt == "auto":
            dt_max, _ = stability_budget(self, enforce=False)
            return 0.5 * dt_max
        return float(self.dt)


def initial_arrays(scenario):
    d, counts = scenario.grid.dim, scenario.grid.counts
    X = scenario.mesh()

    def build(key, vector):
        fn = scenario.initial.get(key)
        shape = (d,) + counts if vector else counts
        if fn is None:
            return np.zeros(shape)
        arr = np.asarray(fn(X), dtype=float)
        if arr.shape != shape:
            raise ValueError(f"initial '{key}': expected shape {shape}, got {arr.shape}")
        return arr.copy()

    return (build("u", True), build("udot", True), build("phi", False),
            build("phidot", False), build("theta", False))


def validate_scenario(scenario):
    """Support and boundary-table checks.

    Returns (errors, warnings): data outside the declared support slab is an
    error (the decay theory needs a bounded data support); initial/boundary
    incompatibility at t = 0 is flagged as a warning only.
    """
    errors = list(scenario.boundary.validate(scenario.grid.dim))
    warnings = []
    if scenario.T < 0:
        errors.append("horizon T must be nonnegative")
    x0 = scenario.support_x0
    X = scenario.mesh()
    outside = X[0] > x0 + 1e-12
    covers_all = not bool(outside.any())

    if not covers_all:
        u0, v0, phi0, pdot0, theta0 = initial_arrays(scenario)
        for name, arr in (("u", u0), ("udot", v0), ("phi", phi0),
                          ("phidot", pdot0), ("theta", theta0)):
            mags = np.abs(arr)
            mask = outside if arr.shape == outside.shape else np.broadcast_to(outside, arr.shape)
            worst = float(mags[mask].max()) if mask.any() else 0.0
            if worst > 1e-14 * max(1.0, float(mags.max())):
                errors.append(f"initial '{name}' nonzero outside the support slab (max {worst:.3e})")
        sample_times = np.linspace(0.0, scenario.T, 5) if scenario.T > 0 else [0.0]
        for key in ("f", "ell", "r"):
            if scenario.sources.get(key) is None:
                continue
            worst = 0.0
            for t in sample_times:
                arr = np.abs(scenario.source(key, float(t)))
                mask = outside if arr.shape == outside.shape else np.broadcast_to(outside, arr.shape)
                if mask.any():
                    worst = max(worst, float(arr[mask].max()))
            if worst > 1e-14:
                errors.append(f"source '{key}' nonzero outside the support slab (max {worst:.3e})")
        for (axis, side), groups in scenario.boundary.faces.items():
            inside_slab = axis == 0 and side == "min" and x0 >= 0.0
            if inside_slab:
                continue
            for g in GROUPS:
                bc = groups[g]
                if bc.is_zero():
                    continue
                if bc.fielddata is None:
                    errors.append(
                        f"face ({axis}, {side}) carries nonzero '{g}' data outside the support slab")
                    continue
                worst = max(float(np.abs(_face_data(scenario, (axis, side), g, float(t))).max())
                            for t in (0.0, 0.5 * scenario.T, scenario.T))
                if worst > 1e-14:
                    errors.append(
                        f"face ({axis}, {side}) '{g}' field data nonzero outside the support slab")

    # zero-jet compatibility at t = 0 (warn only; corners are not rejected)
    if not errors:
        u0, v0, phi0, pdot0, theta0 = initial_arrays(scenario)
        for (axis, side), groups in scenario.boundary.faces.items():
            fs = (Ellipsis,) + face_slice(axis, side, scenario.grid.dim)
            for g, name, arr in zip(GROUPS, ("u", "phi", "theta"), (u0, phi0, theta0)):
                if groups[g].kind != "dirichlet":
                    continue
                gap = float(np.abs(arr[fs] - _face_data(scenario, (axis, side), g, 0.0)).max())
                if gap > 1e-12:
                    warnings.append(f"face ({axis}, {side}): initial '{name}' and boundary data "
                                    f"disagree at t=0 by {gap:.3e}")
    return errors, warnings


# ---------------------------------------------------------------------------
# Simulation state


@dataclass(eq=False)
class SimState:
    """Primary nodal fields at one time level."""

    t: float
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    theta: np.ndarray


@dataclass(eq=False)
class Trajectory:
    """Sampled states of one run, with the run bookkeeping attached."""

    scenario: Scenario
    times: np.ndarray
    states: list
    log: dict = field(default_factory=dict)
    dissipative: bool = False


# ---------------------------------------------------------------------------
# Derivatives, kinematics, flux corrections


def _grad_scalar(f, grid):
    return np.stack([np.gradient(f, grid.spacing[j], axis=j, edge_order=2)
                     for j in range(grid.dim)])


def _grad_vector(u, grid):
    return np.stack([_grad_scalar(u[i], grid) for i in range(grid.dim)])


def _heat_flux_faces(dtheta, scenario, t):
    """Overwrite the normal temperature derivative on heat-flux faces so the
    nodal heat flux matches the prescribed data."""
    mat, d = scenario.material, scenario.grid.dim
    for (axis, side), groups in scenario.boundary.faces.items():
        if groups["thermal"].kind != "flux":
            continue
        fs = face_slice(axis, side, d)
        sigma = -1.0 if side == "min" else 1.0
        acc = sigma * _face_data(scenario, (axis, side), "thermal", t)
        for s in range(d):
            if s != axis:
                acc = acc - mat.K[axis, s] * dtheta[(s,) + fs]
        dtheta[(axis,) + fs] = acc / mat.K[axis, axis]


def _flux_corrections(du, dphi, phi, theta, scenario, t):
    """Overwrite normal displacement and void derivatives on traction and
    equilibrated-stress flux faces so the nodal face flux (S n, h.n) matches
    the prescribed data (the ghost-node reconstruction in derivative form).

    The face flux is affine in the normal derivatives x = (du[:, a], dphi[a])
    with the normal-flux matrix N; the rows of the flux groups are solved
    for their own entries of x, the other entries are kept."""
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
        face_shape = np.shape(phi[fs])
        data = np.concatenate([
            np.reshape(_face_data(scenario, (axis, side), g, t), (-1,) + face_shape)
            for g in flux_groups])
        resid = sigma * data - np.concatenate([S[:, axis], h[axis][None]])[sel]
        x = np.concatenate([du_face[:, axis], dphi_face[axis][None]])
        x[sel] += np.linalg.solve(N[np.ix_(sel, sel)],
                                  resid.reshape(len(sel), -1)).reshape(resid.shape)
        du[(slice(None), axis) + fs] = x[:d]
        dphi[(axis,) + fs] = x[d]


def _strain_and_void_gradient(u, phi, theta, scenario, t):
    grid = scenario.grid
    du = _grad_vector(u, grid)
    dphi = _grad_scalar(phi, grid)
    _flux_corrections(du, dphi, phi, theta, scenario, t)
    return 0.5 * (du + du.swapaxes(0, 1)), dphi


def _temperature_gradient(theta, scenario, t):
    dtheta = _grad_scalar(theta, scenario.grid)
    _heat_flux_faces(dtheta, scenario, t)
    return dtheta


def kinematics(state, scenario):
    """Strain, void gradient, temperature gradient of a state, with the
    boundary-flux corrections applied as during stepping."""
    e, gamma = _strain_and_void_gradient(state.u, state.phi, state.theta, scenario, state.t)
    return e, gamma, _temperature_gradient(state.theta, scenario, state.t)


def _divergence(flux, grid):
    """Divergence over the trailing grid axes; flux has one leading axis."""
    out = np.zeros(flux.shape[1:])
    for j in range(grid.dim):
        out += np.gradient(flux[j], grid.spacing[j], axis=j + (flux.ndim - 1 - grid.dim),
                           edge_order=2)
    return out


def trapezoid_weights(counts, spacings):
    """Trapezoidal quadrature weights on a box of nodes: the outer product of
    one weight vector per axis, spacing included (0-d for no axes)."""
    weights = np.ones(())
    for n, h in zip(counts, spacings):
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        weights = np.multiply.outer(weights, w)
    return weights


# ---------------------------------------------------------------------------
# Time stepping


def _apply_dirichlet(scenario, t, fields, rate=False):
    """Write the Dirichlet data at time t (``rate=True``: its time
    derivative) into the face nodes of ``fields``, a dict from group name to
    that group's nodal array."""
    for (axis, side), groups in scenario.boundary.faces.items():
        fs = (Ellipsis,) + face_slice(axis, side, scenario.grid.dim)
        for g, arr in fields.items():
            if groups[g].kind == "dirichlet":
                arr[fs] = _face_data(scenario, (axis, side), g, t, rate)


def _accelerations(u, phi, theta, phidot_lag, scenario, t, tau_sign):
    mat, grid = scenario.material, scenario.grid
    e, gamma = _strain_and_void_gradient(u, phi, theta, scenario, t)
    S, h, G, _ = field_response(e, gamma, None, phi, theta, mat)
    div_s = np.stack([_divergence(S[i], grid) for i in range(grid.dim)])
    div_h = _divergence(h, grid)
    g = tau_sign * mat.tau * phidot_lag + G
    acc_u = (div_s + mat.rho * scenario.source("f", t)) / mat.rho
    acc_p = (div_h + g + mat.rho * scenario.source("ell", t)) / (mat.rho * mat.chi)
    return acc_u, acc_p


def _theta_rate(v, phidot, theta, scenario, t, thermal_sign):
    """d(theta)/dt from the entropy balance; thermal_sign is -1 for the
    anti-dissipative (time-reflected) direction and +1 for the dissipative
    one."""
    mat, grid = scenario.material, scenario.grid
    q = np.einsum("ij,j...->i...", mat.K, _temperature_gradient(theta, scenario, t))
    div_q = _divergence(q, grid)
    dv = _grad_vector(v, grid)
    edot = 0.5 * (dv + dv.swapaxes(0, 1))
    gammadot = _grad_scalar(phidot, grid)
    # entropy rate without its temperature term, which is solved for
    coupling = entropy_field(edot, gammadot, phidot, 0.0, mat)
    rsrc = scenario.source("r", t)
    return (thermal_sign * (div_q + mat.rho * rsrc) / mat.theta0 - coupling) / mat.aHeat


def _advance(t, u, v, phi, phidot, theta, acc_u, acc_p, scenario, dt, dissipative):
    thermal_sign = 1.0 if dissipative else -1.0
    tau_sign = -1.0 if dissipative else 1.0
    t_half, t1 = t + 0.5 * dt, t + dt

    v_half = v + 0.5 * dt * acc_u
    pdot_half = phidot + 0.5 * dt * acc_p
    u1 = u + dt * v_half
    phi1 = phi + dt * pdot_half
    _apply_dirichlet(scenario, t1, {"displacement": u1, "void": phi1})

    tdot0 = _theta_rate(v, phidot, theta, scenario, t, thermal_sign)
    theta_half = theta + 0.5 * dt * tdot0
    _apply_dirichlet(scenario, t_half, {"thermal": theta_half})
    tdot_half = _theta_rate(v_half, pdot_half, theta_half, scenario, t_half, thermal_sign)
    theta1 = theta + dt * tdot_half
    _apply_dirichlet(scenario, t1, {"thermal": theta1})

    acc_u1, acc_p1 = _accelerations(u1, phi1, theta1, pdot_half, scenario, t1, tau_sign)
    v1 = v_half + 0.5 * dt * acc_u1
    pdot1 = pdot_half + 0.5 * dt * acc_p1
    _apply_dirichlet(scenario, t1, {"displacement": v1, "void": pdot1}, rate=True)
    return u1, v1, phi1, pdot1, theta1, acc_u1, acc_p1


def step(state, scenario, dissipative=False):
    """One explicit step of size ``scenario.dt`` from ``state``."""
    dt = scenario.resolve_dt()
    tau_sign = -1.0 if dissipative else 1.0
    acc_u, acc_p = _accelerations(state.u, state.phi, state.theta, state.phidot,
                                  scenario, state.t, tau_sign)
    out = _advance(state.t, state.u, state.v, state.phi, state.phidot, state.theta,
                   acc_u, acc_p, scenario, dt, dissipative)
    u1, v1, phi1, pdot1, theta1, _, _ = out
    return SimState(t=state.t + dt, u=u1, v=v1, phi=phi1, phidot=pdot1, theta=theta1)


def _check_finite(arrays, t):
    for name, arr in arrays:
        if not np.isfinite(arr).all():
            idx = np.argwhere(~np.isfinite(arr))[0]
            raise NonFiniteField(f"field '{name}' non-finite at node {tuple(idx)}, t = {t:.6g}")


def run(scenario, n_samples=None, dissipative=False):
    """Integrate the scenario and return the sampled trajectory.

    The step is rounded so the horizon is an integer number of steps;
    sampling is read-only and always includes t = 0 and t = T.  Identical
    inputs give identical trajectories.
    """
    errors, warnings = validate_scenario(scenario)
    if errors:
        raise ValueError("invalid scenario: " + "; ".join(errors))
    dt_max, growth = stability_budget(scenario, enforce=not dissipative)
    dt = scenario.resolve_dt()
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(f"dt = {dt:.6g} exceeds the wave bound {dt_max:.6g}")

    mat, grid = scenario.material, scenario.grid
    u, v, phi, phidot, theta = initial_arrays(scenario)
    _apply_dirichlet(scenario, 0.0, {"displacement": u, "void": phi, "thermal": theta})
    _apply_dirichlet(scenario, 0.0, {"displacement": v, "void": phidot}, rate=True)

    if scenario.T <= 0.0:
        nsteps = 0
    else:
        nsteps = max(1, int(round(scenario.T / dt)))
    if n_samples is None:
        n_samples = min(nsteps + 1, 801)
    stride = max(1, math.ceil(nsteps / max(1, n_samples - 1))) if nsteps else 1
    if nsteps:
        # pad so the stride divides the step count: samples stay uniform
        nsteps = stride * math.ceil(nsteps / stride)
        dt = scenario.T / nsteps

    weights = trapezoid_weights(grid.counts, grid.spacing)

    def snapshot(t):
        return SimState(t=t, u=u.copy(), v=v.copy(), phi=phi.copy(),
                        phidot=phidot.copy(), theta=theta.copy())

    def plain_energy(state):
        e, gamma, kappa = kinematics(state, scenario)
        energy, _ = energy_density_parts(e, gamma, kappa, state.phi, state.phidot,
                                         state.theta, state.v, mat)
        return float(np.sum(weights * energy))

    states = [snapshot(0.0)]
    energies = [plain_energy(states[0])]
    theta_max = [float(np.abs(theta).max())]

    tau_sign = -1.0 if dissipative else 1.0
    acc_u, acc_p = _accelerations(u, phi, theta, phidot, scenario, 0.0, tau_sign)
    for k in range(nsteps):
        t = k * dt
        u, v, phi, phidot, theta, acc_u, acc_p = _advance(
            t, u, v, phi, phidot, theta, acc_u, acc_p, scenario, dt, dissipative)
        t1 = (k + 1) * dt
        _check_finite((("u", u), ("udot", v), ("phi", phi),
                       ("phidot", phidot), ("theta", theta)), t1)
        if (k + 1) % stride == 0 or k + 1 == nsteps:
            if not states or states[-1].t < t1:
                st = snapshot(t1)
                states.append(st)
                energies.append(plain_energy(st))
                theta_max.append(float(np.abs(theta).max()))

    times = np.array([s.t for s in states])
    log = {"dt": dt, "nsteps": nsteps, "growth_factor": growth,
           "energy": np.array(energies), "theta_max": np.array(theta_max),
           "warnings": warnings}
    return Trajectory(scenario=scenario, times=times, states=states, log=log,
                      dissipative=dissipative)


def stability_budget(scenario, enforce=True):
    """(dt bound from the fastest wave, worst-case thermal amplification).

    The amplification cap is 1e3; scenarios above it raise
    :class:`BudgetExceeded` because the anti-diffusive temperature coupling
    would swamp the run.  ``enforce=False`` only reports the numbers (the
    dissipative direction is unconditionally damped, so the cap does not
    apply there).
    """
    mat = scenario.material
    spec = material_spectrum(mat, require="energy")
    vmax = math.sqrt(spec.mu_M * max(1.0 / mat.rho, 1.0 / (mat.rho * mat.chi)))
    hmin = min(scenario.grid.spacing)
    dt_max = 0.5 * hmin / vmax
    k_big = max(spec.k_M, 0.0)
    exponent = (k_big * scenario.grid.dim * (math.pi / hmin) ** 2 * scenario.T
                / (mat.rho * mat.theta0 * mat.aHeat))
    growth = math.exp(exponent) if exponent < 700.0 else math.inf
    if enforce and growth > 1e3:
        raise BudgetExceeded(
            f"thermal amplification {growth:.3e} exceeds 1e3; reduce k_M, T, or refine less")
    return dt_max, growth


# ---------------------------------------------------------------------------
# Time reversal


def _reflect_fielddata(fd, horizon):
    return FieldData(value=lambda X, t: fd.value(X, horizon - t),
                     rate=lambda X, t: -np.asarray(fd.rate(X, horizon - t)))


def _reflect_bc(bc, horizon):
    return BoundaryCondition(
        kind=bc.kind,
        signal=TimeReflectedSignal(bc.signal, horizon),
        axis=bc.axis,
        fielddata=None if bc.fielddata is None else _reflect_fielddata(bc.fielddata, horizon),
    )


def time_reflected_scenario(scenario, horizon):
    faces = {key: {g: _reflect_bc(bc, horizon) for g, bc in groups.items()}
             for key, groups in scenario.boundary.faces.items()}
    sources = {}
    for key, fn in scenario.sources.items():
        if fn is None:
            sources[key] = None
        else:
            sources[key] = (lambda inner: lambda X, t: inner(X, horizon - t))(fn)
    return Scenario(grid=scenario.grid, material=scenario.material,
                    boundary=BoundaryPartition(faces=faces), dt=scenario.dt,
                    T=scenario.T, support_x0=scenario.support_x0,
                    initial=dict(scenario.initial), sources=sources,
                    label=scenario.label + ":reversed")


def reverse_time(trajectory):
    """Time-reflect a trajectory: s -> w(T - s) with velocity signs flipped.

    A trajectory of the dissipative system becomes one of the
    anti-dissipative system and vice versa; applying the map twice is the
    identity.
    """
    T = float(trajectory.times[-1])
    states = [SimState(t=T - st.t, u=st.u.copy(), v=-st.v, phi=st.phi.copy(),
                       phidot=-st.phidot, theta=st.theta.copy())
              for st in reversed(trajectory.states)]
    times = np.array([s.t for s in states])
    return Trajectory(scenario=time_reflected_scenario(trajectory.scenario, T),
                      times=times, states=states, log=dict(trajectory.log),
                      dissipative=not trajectory.dissipative)


def pde_residual(trajectory, boundary_margin=0):
    """Max-norm residuals of the three balance equations on the sampled
    trajectory (centred time differences at interior samples), relative to
    the magnitude of the participating terms, with the signs of the
    trajectory's own time direction.

    ``boundary_margin`` drops that many node layers per side before taking
    the max: the two outermost layers see composed one-sided stencils whose
    truncation is one order lower, while the interior is uniformly second
    order.
    """
    thermal_sign = 1.0 if trajectory.dissipative else -1.0
    tau_sign = -1.0 if trajectory.dissipative else 1.0
    scenario = trajectory.scenario
    mat, grid = scenario.material, scenario.grid
    times, states = trajectory.times, trajectory.states
    if len(states) < 3:
        raise ValueError("need at least three samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("pde_residual needs uniformly sampled trajectories")
    dt = float(dts[0])

    worst = {"momentum": 0.0, "void": 0.0, "thermal": 0.0}
    scale = {"momentum": 0.0, "void": 0.0, "thermal": 0.0}
    m = int(boundary_margin)
    core = tuple(slice(m, n - m if m else None) for n in grid.counts)

    def interior_max(arr):
        return float(np.abs(arr[(Ellipsis,) + core]).max())

    kin = [kinematics(st, scenario) for st in states]
    for k in range(1, len(states) - 1):
        prev, cur, nxt = states[k - 1], states[k], states[k + 1]
        t = float(times[k])
        e, gamma, kappa = kin[k]
        S, h, G, q = field_response(e, gamma, kappa, cur.phi, cur.theta, mat)
        div_s = np.stack([_divergence(S[i], grid) for i in range(grid.dim)])
        div_h = _divergence(h, grid)
        div_q = _divergence(q, grid)

        ddu = (nxt.u - 2.0 * cur.u + prev.u) / dt ** 2
        res_m = mat.rho * ddu - div_s - mat.rho * scenario.source("f", t)
        worst["momentum"] = max(worst["momentum"], interior_max(res_m))
        scale["momentum"] = max(scale["momentum"], interior_max(mat.rho * ddu),
                                interior_max(div_s), 1e-30)

        ddphi = (nxt.phi - 2.0 * cur.phi + prev.phi) / dt ** 2
        g = tau_sign * mat.tau * cur.phidot + G
        res_v = mat.rho * mat.chi * ddphi - div_h - g - mat.rho * scenario.source("ell", t)
        worst["void"] = max(worst["void"], interior_max(res_v))
        scale["void"] = max(scale["void"], interior_max(mat.rho * mat.chi * ddphi),
                            interior_max(div_h), interior_max(g), 1e-30)

        e_p, gam_p, _ = kin[k - 1]
        e_n, gam_n, _ = kin[k + 1]
        edot = (e_n - e_p) / (2.0 * dt)
        gammadot = (gam_n - gam_p) / (2.0 * dt)
        thetadot = (nxt.theta - prev.theta) / (2.0 * dt)
        rho_eta_dot = entropy_field(edot, gammadot, cur.phidot, thetadot, mat)
        res_t = div_q + mat.rho * scenario.source("r", t) - thermal_sign * mat.theta0 * rho_eta_dot
        worst["thermal"] = max(worst["thermal"], interior_max(res_t))
        # the balance is a near-cancellation; scale by the participating terms
        scale["thermal"] = max(
            scale["thermal"], interior_max(div_q),
            mat.theta0 * interior_max(np.einsum("ij,ij...->...", mat.M, edot)),
            mat.theta0 * interior_max(mat.aHeat * thetadot), 1e-30)

    return {key: worst[key] / scale[key] for key in worst}


# ---------------------------------------------------------------------------
# Scenario files and trajectory dumps


_SIGNAL_NAMES = ("zero", "raised_cosine", "windowed_gaussian")


def _parse_params(tokens, path, lineno):
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioFileError(f"{path}:{lineno}: expected name=value, got '{tok}'")
        name, _, val = tok.partition("=")
        params[name] = val
    return params


def _parse_signal(tokens, path, lineno):
    name, params = tokens[0], _parse_params(tokens[1:], path, lineno)
    try:
        if name == "zero":
            return ZeroSignal(), int(params.pop("axis", 0)), params
        if name == "raised_cosine":
            sig = RaisedCosinePulse(amplitude=float(params.pop("amplitude")),
                                    t_end=float(params.pop("t_end")))
            return sig, int(params.pop("axis", 0)), params
        if name == "windowed_gaussian":
            sig = WindowedGaussianPulse(amplitude=float(params.pop("amplitude")),
                                        center=float(params.pop("center")),
                                        sigma=float(params.pop("sigma")),
                                        t_end=float(params.pop("t_end")))
            return sig, int(params.pop("axis", 0)), params
    except KeyError as exc:
        raise ScenarioFileError(f"{path}:{lineno}: signal '{name}' missing parameter {exc}") from None
    raise ScenarioFileError(f"{path}:{lineno}: unknown signal '{name}' (choose from {_SIGNAL_NAMES})")


def _parse_profile(tokens, dim, path, lineno):
    name, params = tokens[0], _parse_params(tokens[1:], path, lineno)
    if name == "zero":
        return None, int(params.pop("axis", 0)), params
    if name == "cosine_bump":
        try:
            center = tuple(float(c) for c in params.pop("center").split(","))
            prof = CosineBump(amplitude=float(params.pop("amplitude")),
                              center=center, width=float(params.pop("width")))
        except KeyError as exc:
            raise ScenarioFileError(f"{path}:{lineno}: profile missing parameter {exc}") from None
        if len(prof.center) != dim:
            raise ScenarioFileError(f"{path}:{lineno}: center needs {dim} components")
        return prof, int(params.pop("axis", 0)), params
    raise ScenarioFileError(f"{path}:{lineno}: unknown profile '{name}'")


def read_scenario_file(path, material=None):
    """Parse the documented key-value scenario schema.

    The referenced material file is resolved relative to the scenario file
    unless a material is passed explicitly.
    """
    import os

    from .material import read_material_file

    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                if "=" not in line:
                    raise ScenarioFileError(f"{path}:{lineno}: expected 'key = value'")
                key, _, rest = line.partition("=")
                entries.append((lineno, key.strip(), rest.strip()))

    plain = {}
    faces = {}
    initial = {}
    sources = {}
    for lineno, key, rest in entries:
        if key.startswith("face."):
            parts = key.split(".")
            if len(parts) != 3:
                raise ScenarioFileError(f"{path}:{lineno}: face keys look like face.x1min.void")
            fname, group = parts[1], parts[2]
            if group not in GROUPS:
                raise ScenarioFileError(f"{path}:{lineno}: unknown group '{group}'")
            if len(fname) != 5 or fname[0] != "x" or fname[2:] not in ("min", "max"):
                raise ScenarioFileError(f"{path}:{lineno}: face names look like x1min / x2max")
            axis = int(fname[1]) - 1
            tokens = rest.split()
            if len(tokens) < 2 or tokens[0] not in ("dirichlet", "flux"):
                raise ScenarioFileError(f"{path}:{lineno}: expected '<dirichlet|flux> <signal ...>'")
            signal, sig_axis, leftover = _parse_signal(tokens[1:], path, lineno)
            if leftover:
                raise ScenarioFileError(f"{path}:{lineno}: unknown parameters {sorted(leftover)}")
            faces.setdefault((axis, fname[2:]), {})[group] = BoundaryCondition(
                kind=tokens[0], signal=signal, axis=sig_axis)
        elif key.startswith("initial."):
            initial[(lineno, key.split(".", 1)[1])] = rest
        elif key.startswith("source."):
            sources[(lineno, key.split(".", 1)[1])] = rest
        else:
            if key in plain:
                raise ScenarioFileError(f"{path}:{lineno}: duplicate key '{key}'")
            plain[key] = (lineno, rest)

    required = ("dim", "extent", "nodes", "dt", "T", "support_x0")
    known = set(required) | {"material", "label"}
    unknown = set(plain) - known
    if unknown:
        raise ScenarioFileError(f"{path}: unknown keys: {sorted(unknown)}")
    missing = [k for k in required if k not in plain]
    if missing:
        raise ScenarioFileError(f"{path}: missing keys: {missing}")

    dim = int(plain["dim"][1])
    extents = tuple(float(v) for v in plain["extent"][1].split())
    counts = tuple(int(v) for v in plain["nodes"][1].split())
    if len(extents) != dim or len(counts) != dim:
        raise ScenarioFileError(f"{path}: extent/nodes need {dim} entries")
    grid = Grid(extents=extents, counts=counts)
    dt_text = plain["dt"][1]
    dt = "auto" if dt_text == "auto" else float(dt_text)

    if material is None:
        if "material" not in plain:
            raise ScenarioFileError(f"{path}: no material file referenced and none supplied")
        mat_path = plain["material"][1]
        if not os.path.isabs(mat_path):
            mat_path = os.path.join(os.path.dirname(os.path.abspath(path)), mat_path)
        material = read_material_file(mat_path)
    if material.dim != dim:
        raise ScenarioFileError(f"{path}: material dim {material.dim} != scenario dim {dim}")

    init_fns = {}
    for (lineno, name), rest in initial.items():
        if name not in ("u", "udot", "phi", "phidot", "theta"):
            raise ScenarioFileError(f"{path}:{lineno}: unknown initial field '{name}'")
        prof, axis, leftover = _parse_profile(rest.split(), dim, path, lineno)
        if leftover:
            raise ScenarioFileError(f"{path}:{lineno}: unknown parameters {sorted(leftover)}")
        if prof is not None:
            init_fns[name] = vector_profile(prof, axis, dim) if name in ("u", "udot") else prof

    src_fns = {}
    for (lineno, name), rest in sources.items():
        if name not in ("f", "ell", "r"):
            raise ScenarioFileError(f"{path}:{lineno}: unknown source '{name}'")
        if rest.split()[0] != "zero":
            raise ScenarioFileError(f"{path}:{lineno}: file scenarios support only zero sources")

    scenario = Scenario(grid=grid, material=material,
                        boundary=BoundaryPartition(faces=faces),
                        dt=dt, T=float(plain["T"][1]),
                        support_x0=float(plain["support_x0"][1]),
                        initial=init_fns, sources=src_fns,
                        label=plain.get("label", (0, ""))[1])
    errors = scenario.boundary.validate(dim)
    if errors:
        raise ScenarioFileError(f"{path}: " + "; ".join(errors))
    return scenario


def write_trajectory_csv(trajectory, path, t_stride=1):
    """Field dump: one row per (sample time, node).

    Columns: t, x1..xd, u1..ud, v1..vd, phi, phidot, theta; 17 significant
    digits, row order is time-major then node index row-major.
    """
    grid = trajectory.scenario.grid
    d = grid.dim
    X = [x.ravel() for x in trajectory.scenario.mesh()]
    header = (["t"] + [f"x{i+1}" for i in range(d)] + [f"u{i+1}" for i in range(d)]
              + [f"v{i+1}" for i in range(d)] + ["phi", "phidot", "theta"])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for st in trajectory.states[::t_stride]:
            cols = ([np.full(X[0].size, st.t)] + X
                    + [st.u[i].ravel() for i in range(d)]
                    + [st.v[i].ravel() for i in range(d)]
                    + [st.phi.ravel(), st.phidot.ravel(), st.theta.ravel()])
            block = np.column_stack(cols)
            for row in block:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
