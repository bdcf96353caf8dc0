"""Explicit time-domain solver for the coupled displacement / void-fraction /
temperature system on rectilinear grids.

The hyperbolic fields advance by velocity-Verlet, the temperature by an
explicit midpoint rule riding on the Verlet half-step velocities.  The
default integration direction carries the anti-dissipative thermal sign of
the time-reflected forward problem; ``dissipative=True`` selects the
standard dissipative signs instead.

Spatial derivatives are second-order central differences with second-order
one-sided stencils at boundaries, all from one routine, ``_difference``: it
differentiates every field stacked on the leading axis of an array along one
grid axis, with the arithmetic of ``np.gradient(edge_order=2)``.  The
stepper, ``kinematics`` and the measures use it and nothing else;
``pde_residual`` measures a trajectory against the operator it was stepped
with.

``run`` is the one way to advance a state: after the support, wave-bound and
thermal-budget checks it builds one private operator per scenario.  It keeps
the state as one stacked array updated in place, with buffers sized by
fields x nodes; a face plan per face (node slice, Dirichlet groups, flux
groups, the restricted normal-flux matrix N_sel inverted once); and the
constitutive law as one matrix from the stacked derivatives and (phi, theta)
to the normal fluxes (S[:, j], h[j]) per axis and the intrinsic force, read
off the constitutive kernel by unit inputs at most once per operator, and
only when stepping or a traction / equilibrated-stress flux face needs it.
Each time level's corrected gradients are computed once: the accelerations,
the sampled energy and the next temperature rate share them; the stored
energy is the packed form z^T H z / 2, with H read off the same probe.  The
coupling term of the temperature rate, M:grad v + aVec.grad phidot, is the
divergence of M^T v + aVec phidot and joins the heat flux in a single
divergence.

Prescribed boundary fluxes (traction, equilibrated-stress flux, heat flux)
are imposed by overriding the normal derivatives at the face so the nodal
flux matches the data, which is algebraically the ghost-node construction.
On a face with normal axis a, traction and equilibrated-stress flux are one
linear solve with N = [[C[:, a, :, a], D[:, a, a]], [D[:, a, a]^T, A[a, a]]],
restricted to the rows and columns of the groups that carry flux data.  One
routine reads face data, once per time level; data that is identically zero
is not read at all, and absent sources are skipped.

The constitutive law comes from :mod:`voidtherm.constitutive`;
``field_response`` is re-exported here.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .constitutive import field_response
from .material import (Material, read_key_values, read_material_file, read_numbers,
                       spectrum as material_spectrum)

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
    bc = scenario.boundary.faces[face][group]
    grid = scenario.grid
    shape = tuple(n for j, n in enumerate(grid.counts) if j != face[0])
    if group == "displacement":
        shape = (grid.dim,) + shape
    if bc.fielddata is not None:
        fn = bc.fielddata.rate if rate else bc.fielddata.value
        return np.broadcast_to(np.asarray(fn(scenario.mesh(face), t), dtype=float), shape)
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
    _meshes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mesh(self, face=None):
        """Node coordinates, one tuple of arrays per grid (``face=(axis,
        side)``: per face), built once, so callers may key caches on it."""
        if face not in self._meshes:
            self._meshes[face] = (self.grid.mesh() if face is None else tuple(
                Xi[face_slice(*face, self.grid.dim)] for Xi in self.mesh()))
        return self._meshes[face]

    def source(self, key, t):
        fn = self.sources.get(key)
        d, counts = self.grid.dim, self.grid.counts
        shape = (d,) + counts if key == "f" else counts
        if fn is None:
            return np.zeros(shape)
        out = np.asarray(fn(self.mesh(), t), dtype=float)
        return np.broadcast_to(out, shape)

    def resolve_dt(self, dt_max=None):
        """The step asked for; ``dt = "auto"`` is half the wave bound
        ``dt_max`` (computed here when not given)."""
        if self.dt == "auto":
            if dt_max is None:
                dt_max, _ = stability_budget(self, enforce=False)
            return 0.5 * dt_max
        dt = float(self.dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"time step dt must be positive and finite, got {self.dt!r}")
        return dt


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


def _largest(arrays, where=True):
    """Largest |value| over ``arrays`` at the nodes that the mask ``where``,
    broadcast to each array, selects (0 for none)."""
    return max(float(np.abs(a)[np.broadcast_to(where, a.shape)].max(initial=0.0))
               for a in arrays)


def validate_scenario(scenario):
    """Horizon, support and boundary-table checks.

    Returns (errors, warnings): data outside the declared support slab is an
    error (the decay theory needs a bounded data support); initial/boundary
    incompatibility at t = 0 is flagged as a warning only.
    """
    errors = list(scenario.boundary.validate(scenario.grid.dim))
    T = scenario.T
    if not (math.isfinite(T) and T >= 0.0):
        errors.append(f"horizon T must be finite and nonnegative, got {T}")
    if errors:
        return errors, []
    warnings = []
    x0 = scenario.support_x0
    outside = scenario.mesh()[0] > x0 + 1e-12
    initial = dict(zip(("u", "udot", "phi", "phidot", "theta"), initial_arrays(scenario)))

    if outside.any():
        # relative for initial data, absolute for sources and face data
        for name, arr in initial.items():
            worst = _largest([arr], outside)
            if worst > 1e-14 * max(1.0, _largest([arr])):
                errors.append(f"initial '{name}' nonzero outside the support slab (max {worst:.3e})")
        sample_times = np.linspace(0.0, T, 5) if T > 0 else [0.0]
        for key in ("f", "ell", "r"):
            if scenario.sources.get(key) is None:
                continue
            worst = _largest([scenario.source(key, float(t)) for t in sample_times], outside)
            if worst > 1e-14:
                errors.append(f"source '{key}' nonzero outside the support slab (max {worst:.3e})")
        for (axis, side), groups in scenario.boundary.faces.items():
            if axis == 0 and side == "min" and x0 >= 0.0:
                continue
            for g in GROUPS:
                bc, at = groups[g], f"face ({axis}, {side})"
                if bc.fielddata is not None:
                    data = [_face_data(scenario, (axis, side), g, t) for t in (0.0, 0.5 * T, T)]
                    if _largest(data) > 1e-14:
                        errors.append(f"{at} '{g}' field data nonzero outside the support slab")
                elif not bc.is_zero():
                    errors.append(f"{at} carries nonzero '{g}' data outside the support slab")

    # zero-jet compatibility at t = 0 (warn only; corners are not rejected)
    if not errors:
        for (axis, side), groups in scenario.boundary.faces.items():
            fs = (Ellipsis,) + face_slice(axis, side, scenario.grid.dim)
            for g, name in zip(GROUPS, ("u", "phi", "theta")):
                if groups[g].kind != "dirichlet":
                    continue
                data = _face_data(scenario, (axis, side), g, 0.0)
                gap = float(np.abs(initial[name][fs] - data).max())
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
# Differences


@functools.lru_cache(maxsize=256)
def _stencil(n, axis, ndim, h):
    """Index tuples and end weights of the difference along grid axis
    ``axis`` (``n`` nodes, spacing ``h``) of arrays with ``ndim`` axes, the
    first of which stacks fields.  The two ends are done together: pair k
    holds nodes k and n - 3 + k (one node, broadcast, when n = 3)."""
    lead = (slice(None),) * (axis + 1)
    pair = ((lambda k: slice(k, k + n - 2, n - 3)) if n > 3 else (lambda k: slice(k, k + 1)))
    weights = np.array([[-1.5 / h, 0.5 / h], [2.0 / h, -2.0 / h], [-0.5 / h, 1.5 / h]])
    weights = weights.reshape((3, 2) + (1,) * (ndim - axis - 2))
    return (lead + (slice(1, -1),), lead + (slice(2, None),), lead + (slice(None, -2),),
            lead + (slice(0, n, n - 1),), tuple(lead + (pair(k),) for k in range(3)), weights)


def _difference(f, axis, h, out=None):
    """Derivative along grid axis ``axis`` of every field stacked on the
    leading axis of ``f``: central differences inside, one-sided three-point
    stencils at the ends, with the arithmetic of
    ``np.gradient(f, h, axis=axis + 1, edge_order=2)`` bit for bit."""
    inner, above, below, ends, pairs, weights = _stencil(f.shape[axis + 1], axis, f.ndim, h)
    if out is None:
        out = np.empty(f.shape)
    mid = out[inner]
    np.subtract(f[above], f[below], out=mid)
    mid /= 2.0 * h
    edge = out[ends]
    np.multiply(weights[0], f[pairs[0]], out=edge)
    edge += weights[1] * f[pairs[1]]
    edge += weights[2] * f[pairs[2]]
    return out


def _divergence(fluxes, spacing, out=None):
    """Sum over axes j of the derivative along j of ``fluxes[j]``, which
    stacks the axis-j components of several fluxes on its leading axis."""
    out = _difference(fluxes[0], 0, spacing[0], out)
    for j in range(1, len(spacing)):
        out += _difference(fluxes[j], j, spacing[j])
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
# The stepping operator


def _response_matrix(mat):
    """The constitutive law on stacked differences, one matrix per material:
    column k is the kernel's response to the k-th unit input, so the matrix
    holds the packed (Voigt) coefficients and the law stays written once.
    Rows: per axis j the normal fluxes (S[:, j], h[j]), then the intrinsic
    force G (rate term excluded).  Columns: the derivatives d_s of
    (u_0, ..., u_{d-1}, phi) in row-major (field, axis) order, then phi and
    theta."""
    d = mat.dim
    z = np.eye((d + 1) * d + 2)
    du = z[:d * d].reshape((d, d, -1))
    S, h, G, _ = field_response(0.5 * (du + du.swapaxes(0, 1)), z[d * d:d * (d + 1)], None,
                                z[-2], z[-1], mat)
    flux = np.concatenate([S.swapaxes(0, 1), h[:, None]], axis=1)
    return np.vstack([flux.reshape(d * (d + 1), -1), G])


@dataclass(eq=False)
class _FacePlan:
    """What one face does, fixed for a run: its node slice, outward sign and
    boundary conditions, its Dirichlet groups, and for the traction /
    equilibrated-stress flux groups the rows of the normal derivatives
    x = (du[:, a], dphi[a]) they solve for, their (unscaled) response rows
    and the inverse of the restricted normal-flux matrix N_sel."""

    face: tuple
    index: tuple
    sigma: float
    bcs: dict
    dirichlet: tuple
    mechanical: tuple
    rows: slice
    flux: np.ndarray | None
    inverse: np.ndarray | None
    heat: bool


def _face_plans(scenario, response):
    """One plan per face; ``response()`` gives the response matrix and is
    called only for faces with traction or equilibrated-stress flux data."""
    d = scenario.grid.dim
    plans = []
    for (axis, side), groups in scenario.boundary.faces.items():
        mech = tuple(g for g in ("displacement", "void") if groups[g].kind == "flux")
        rows = slice(0 if "displacement" in mech else d, d + 1 if "void" in mech else d)
        flux = inverse = None
        if mech:
            flux = response()[axis * (d + 1) + rows.start:axis * (d + 1) + rows.stop]
            inverse = np.linalg.inv(flux[:, [r * d + axis for r in range(rows.start, rows.stop)]])
        plans.append(_FacePlan(
            face=(axis, side), index=face_slice(axis, side, d),
            sigma=-1.0 if side == "min" else 1.0, bcs=groups,
            dirichlet=tuple(g for g in GROUPS if groups[g].kind == "dirichlet"),
            mechanical=mech, rows=rows, flux=flux, inverse=inverse,
            heat=groups["thermal"].kind == "flux"))
    return plans


class _Operator:
    """The semi-discrete system of one scenario, built once per run.

    The state lives in one array ``Y`` with rows u (d), phi, theta, v (d),
    phidot, so (u, phi, theta) and (v, phidot) are contiguous blocks; every
    buffer is sized by fields x nodes.  ``grad[r, s]`` holds the derivative
    along axis s of field r of (u, phi, theta) at the current time level,
    corrected on flux faces: the accelerations, the sampled energy and the
    next temperature rate all read it.
    """

    def __init__(self, scenario, dissipative=False):
        self.scenario, self.mat = scenario, scenario.material
        self.d, self.h = scenario.grid.dim, scenario.grid.spacing
        self.dissipative = dissipative
        self.faces = _face_plans(scenario, lambda: self.response)
        self.sources = {k for k in ("f", "ell", "r") if scenario.sources.get(k) is not None}
        self.Y = self._energy = None

    @functools.cached_property
    def response(self):
        return _response_matrix(self.mat)

    def _allocate(self):
        """The stepping coefficients and buffers; ``kinematics`` alone needs
        none of them."""
        mat, d, counts = self.mat, self.d, self.scenario.grid.counts
        scale = np.full(len(self.response), 1.0 / (mat.rho * mat.chi))
        scale[[j * (d + 1) + i for j in range(d) for i in range(d)]] = 1.0 / mat.rho
        response = scale[:, None] * self.response
        self.L_grad, self.L_local = response[:, :-2], response[:, -2:]
        thermal_sign = 1.0 if self.dissipative else -1.0
        tau_sign = -1.0 if self.dissipative else 1.0
        # temperature rate = div(K_rate kappa + W_rate (v, phidot)) - m phidot / aHeat
        self.K_rate = thermal_sign / (mat.theta0 * mat.aHeat) * mat.K
        self.W_rate = -np.vstack([mat.M, mat.aVec]).T / mat.aHeat
        self.m_rate = mat.m / mat.aHeat
        self.r_rate = thermal_sign * mat.rho / (mat.theta0 * mat.aHeat)
        self.tau_acc = tau_sign * mat.tau / (mat.rho * mat.chi)

        self.Y = Y = np.empty((2 * d + 3,) + counts)
        self.grad = np.empty((d + 2, d) + counts)
        self.acc = np.empty((d + 1,) + counts)
        self.flux = np.empty((d * (d + 1) + 1,) + counts)
        # the scratch rows of one step, dead between steps: energy and
        # energy_parts reuse the first d (d + 1) of them (3 d + 3 >= d (d + 1)
        # for d <= 3)
        self.scratch = np.empty((3 * d + 3,) + counts)
        self.tmp, self.heat = self.scratch[:d + 1], self.scratch[d + 1:2 * d + 1]
        self.kappa_half = self.scratch[None, 2 * d + 1:3 * d + 1]
        self.theta_half, self.rate = self.scratch[3 * d + 1], self.scratch[3 * d + 2]

        def writes(targets):
            # in face order, so a later face wins at nodes shared with an earlier one
            return [(targets[g], (Ellipsis,) + plan.index, plan.face, g, plan.bcs[g].is_zero())
                    for plan in self.faces for g in plan.dirichlet if g in targets]

        self._positions = writes({"displacement": Y[:d], "void": Y[d]})
        self._velocities = writes({"displacement": Y[d + 2:2 * d + 2], "void": Y[2 * d + 2]})
        self._theta = writes({"thermal": Y[d + 1]})
        self._theta_half = writes({"thermal": self.theta_half})

    # -- boundary ----------------------------------------------------------

    def _data(self, plan, group, t):
        """Flux data of one group on a face, None where it is identically zero."""
        if plan.bcs[group].is_zero():
            return None
        return _face_data(self.scenario, plan.face, group, t)

    def _dirichlet(self, t, writes, rate=False):
        """Write Dirichlet data (``rate=True``: its time derivative) at time t
        into the face nodes listed in ``writes``."""
        for arr, at, face, group, zero in writes:
            arr[at] = 0.0 if zero else _face_data(self.scenario, face, group, t, rate)

    def _correct_mechanical(self, grad, F, t):
        """Overwrite the normal derivatives of u and phi on traction and
        equilibrated-stress flux faces so the nodal face flux (S n, h.n)
        matches the data: the flux is affine in x = (du[:, a], dphi[a]), so
        x_sel += N_sel^-1 (sigma data - flux)."""
        d = self.d
        for plan in self.faces:
            if not plan.mechanical:
                continue
            z = np.concatenate([
                grad[(slice(None, d + 1), slice(None)) + plan.index].reshape(d * (d + 1), -1),
                F[(slice(d, d + 2),) + plan.index].reshape(2, -1)])
            resid = -(plan.flux @ z)
            row = 0
            for g in plan.mechanical:
                n = d if g == "displacement" else 1
                data = self._data(plan, g, t)
                if data is not None:
                    resid[row:row + n] += plan.sigma * np.reshape(data, (n, -1))
                row += n
            x = grad[(plan.rows, plan.face[0]) + plan.index]
            x += (plan.inverse @ resid).reshape(x.shape)

    def _correct_heat(self, kappa, t):
        """Overwrite the normal temperature derivative on heat-flux faces so
        the nodal heat flux matches the data."""
        K = self.mat.K
        for plan in self.faces:
            if not plan.heat:
                continue
            a = plan.face[0]
            data = self._data(plan, "thermal", t)
            acc = plan.sigma * (0.0 if data is None else data)
            for s in range(self.d):
                if s != a:
                    acc = acc - K[a, s] * kappa[(s,) + plan.index]
            kappa[(a,) + plan.index] = acc / K[a, a]

    # -- right-hand side ---------------------------------------------------

    def _gradients(self, F, t, out):
        """Derivatives out[r, s] = d_s F[r], corrected at time t; F is
        (u, phi, theta), or theta alone, which has only heat-flux faces."""
        for j in range(self.d):
            _difference(F, j, self.h[j], out[:, j])
        if len(F) > 1:
            self._correct_mechanical(out, F, t)
        self._correct_heat(out[-1], t)
        return out

    def fluxes(self, t):
        """Corrected gradients of (u, phi, theta) at time t and the normal
        fluxes (S[:, j] / rho, h[j] / (rho chi)) per axis j and the intrinsic
        force G / (rho chi) of the loaded state."""
        d, Y, flux = self.d, self.Y, self.flux
        self._energy = None
        self._gradients(Y[:d + 2], t, self.grad)
        flat = flux.reshape(len(flux), -1)
        np.matmul(self.L_grad, self.grad[:d + 1].reshape(d * (d + 1), -1), out=flat)
        flat += self.L_local @ Y[d:d + 2].reshape(2, -1)

    def level(self, t, phidot_lag):
        """Corrected gradients of (u, phi, theta), the fluxes and the
        accelerations of (u, phi) at time t, with ``phidot_lag`` in the rate
        term."""
        d, flux = self.d, self.flux
        self.fluxes(t)
        _divergence(flux[:-1].reshape((d, d + 1) + flux.shape[1:]), self.h, out=self.acc)
        self.acc[d] += flux[-1]
        if self.tau_acc:
            self.acc[d] += self.tau_acc * phidot_lag
        if "f" in self.sources:
            self.acc[:d] += self.scenario.source("f", t)
        if "ell" in self.sources:
            self.acc[d] += self.scenario.source("ell", t) / self.mat.chi

    def _theta_rate(self, kappa, t, out):
        """Temperature rate from the entropy balance at the velocities in
        ``Y``; the coupling M:grad v + aVec.grad phidot is the divergence of
        M^T v + aVec phidot, so it joins the heat flux in one divergence."""
        d, Y = self.d, self.Y
        heat = self.heat.reshape(d, -1)
        np.matmul(self.K_rate, kappa.reshape(d, -1), out=heat)
        heat += self.W_rate @ Y[d + 2:].reshape(d + 1, -1)
        _divergence(self.heat[:, None], self.h, out=out[None])
        if self.m_rate:
            out -= self.m_rate * Y[2 * d + 2]
        if "r" in self.sources:
            out += self.r_rate * self.scenario.source("r", t)
        return out

    # -- states ------------------------------------------------------------

    def load(self, state):
        """Copy a state into ``Y`` (its level is not evaluated)."""
        if self.Y is None:
            self._allocate()
        d, Y = self.d, self.Y
        Y[:d], Y[d], Y[d + 1] = state.u, state.phi, state.theta
        Y[d + 2:2 * d + 2], Y[2 * d + 2] = state.v, state.phidot

    def impose(self, t):
        """Write every Dirichlet value and rate at time t into the state."""
        self._dirichlet(t, self._positions + self._theta)
        self._dirichlet(t, self._velocities, rate=True)

    def state(self, t):
        """A snapshot that owns its memory."""
        d, Y = self.d, self.Y
        return SimState(t=t, u=Y[:d].copy(), v=Y[d + 2:2 * d + 2].copy(), phi=Y[d].copy(),
                        phidot=Y[2 * d + 2].copy(), theta=Y[d + 1].copy())

    def rates(self, state, phidot_lag):
        """Accelerations of (u, phi), stacked, and the temperature rate at a
        state, as copies."""
        self.load(state)
        self.level(state.t, phidot_lag)
        return self.acc.copy(), self._theta_rate(self.grad[-1], state.t, self.rate).copy()

    def kinematics(self, state):
        """Strain, void gradient and temperature gradient of a state."""
        d = self.d
        F = np.concatenate([state.u, state.phi[None], state.theta[None]])
        grad = self._gradients(F, state.t, np.empty((d + 2, d) + F.shape[1:]))
        return 0.5 * (grad[:d] + grad[:d].swapaxes(0, 1)), grad[d], grad[d + 1]

    @functools.cached_property
    def energy_matrix(self):
        """H with 2W = z^T H z for z = (the derivatives of (u, phi) in
        (field, axis) order, phi): the rows of the response matrix that are
        the derivatives of W, re-ordered from (axis, field) to (field, axis),
        and -G; the column of theta is dropped.  H is symmetric, the Hessian
        of W."""
        d = self.d
        rows = [s * (d + 1) + r for r in range(d + 1) for s in range(d)]
        return np.vstack([self.response[rows], -self.response[-1:]])[:, :-1]

    def energy(self):
        """The energy density P (kinetic, void-kinetic, thermal and stored) at
        the level evaluated by ``fluxes``, computed once per level."""
        if self._energy is None:
            d, Y, mat, H, n = self.d, self.Y, self.mat, self.energy_matrix, self.Y[0].size
            # z = (g, phi) with g the derivatives; H is symmetric, so
            # z^T H z = g^T H_gg g + (2 H_phi,g g + H_phi,phi phi) phi
            g, phi = self.grad[:d + 1].reshape(d * (d + 1), n), Y[d].reshape(n)
            Hg = np.matmul(H[:-1, :-1], g, out=self.scratch.reshape(-1, n)[:d * (d + 1)])
            w = Y[d + 2:].reshape(d + 1, n)
            P = 0.5 * (mat.rho * np.einsum("kn,kn->n", w[:d], w[:d])
                       + mat.rho * mat.chi * w[d] ** 2 + mat.aHeat * Y[d + 1].reshape(n) ** 2
                       + np.einsum("kn,kn->n", g, Hg)
                       + (2.0 * (H[-1, :-1] @ g) + H[-1, -1] * phi) * phi)
            self._energy = P.reshape(Y.shape[1:])
        return self._energy

    def energy_parts(self):
        """The parts (P, R) of the measure density lambda P + R at the level
        evaluated by ``fluxes``: P from :meth:`energy`, R the rate and
        conduction terms."""
        d, Y, mat, n = self.d, self.Y, self.mat, self.Y[0].size
        kappa = self.grad[d + 1].reshape(d, n)
        Kk = np.matmul(mat.K, kappa, out=self.scratch.reshape(-1, n)[:d])
        R = mat.tau * Y[2 * d + 2].reshape(n) ** 2 + np.einsum("kn,kn->n", kappa, Kk) / mat.theta0
        return self.energy(), R.reshape(Y.shape[1:])

    def normal_power(self, axis, sel=()):
        """Power S n.v + h.n phidot - q.n theta/theta0 through a face with
        normal e_axis, at the nodes ``sel`` (an index into the grid axes) of
        the level evaluated by ``fluxes``: S and h from its fluxes, q from its
        temperature gradient."""
        d, mat, Y = self.d, self.mat, self.Y
        at = (slice(None),) + sel
        flux = self.flux[axis * (d + 1):(axis + 1) * (d + 1)][at]
        scale = np.append(np.full(d, mat.rho), mat.rho * mat.chi)
        q = mat.K[axis] @ self.grad[d + 1][at].reshape(d, -1)
        power = (scale @ (flux * Y[d + 2:][at]).reshape(d + 1, -1)
                 - q * Y[d + 1][sel].reshape(-1) / mat.theta0)
        return power.reshape(flux.shape[1:])

    def source_work(self, t):
        """Work of the volume sources per unit mass, f.v + ell phidot -
        r theta/theta0, at the loaded level and time t; None without
        sources."""
        d, Y, source = self.d, self.Y, self.scenario.source
        work = []
        if "f" in self.sources:
            work.append(np.einsum("i...,i...->...", source("f", t), Y[d + 2:2 * d + 2]))
        if "ell" in self.sources:
            work.append(source("ell", t) * Y[2 * d + 2])
        if "r" in self.sources:
            work.append(-source("r", t) * Y[d + 1] / self.mat.theta0)
        return sum(work) if work else None

    def check_finite(self, t):
        """Raise on the first non-finite node, named by field and index."""
        if np.isfinite(self.Y).all():
            return
        st = self.state(t)
        for name, arr in (("u", st.u), ("udot", st.v), ("phi", st.phi),
                          ("phidot", st.phidot), ("theta", st.theta)):
            if not np.isfinite(arr).all():
                idx = np.argwhere(~np.isfinite(arr))[0]
                raise NonFiniteField(f"field '{name}' non-finite at node {tuple(idx)}, t = {t:.6g}")

    # -- one step ----------------------------------------------------------

    def advance(self, t, dt):
        """One step from the loaded level at t (its ``level`` evaluated):
        velocity-Verlet for (u, phi), the explicit midpoint rule for theta on
        the half-step velocities."""
        d, Y, tmp = self.d, self.Y, self.tmp
        t_half, t1 = t + 0.5 * dt, t + dt
        theta, W = Y[d + 1], Y[d + 2:]

        self._theta_rate(self.grad[-1], t, self.rate)
        np.multiply(self.rate, 0.5 * dt, out=self.theta_half)
        self.theta_half += theta
        self._dirichlet(t_half, self._theta_half)

        np.multiply(self.acc, 0.5 * dt, out=tmp)
        W += tmp
        np.multiply(W, dt, out=tmp)
        Y[:d + 1] += tmp
        self._dirichlet(t1, self._positions)

        kappa = self._gradients(self.theta_half[None], t_half, self.kappa_half)[0]
        np.multiply(self._theta_rate(kappa, t_half, self.rate), dt, out=tmp[0])
        theta += tmp[0]
        self._dirichlet(t1, self._theta)

        self.level(t1, Y[2 * d + 2])
        np.multiply(self.acc, 0.5 * dt, out=tmp)
        W += tmp
        self._dirichlet(t1, self._velocities, rate=True)


def kinematics(state, scenario):
    """Strain, void gradient, temperature gradient of a state, with the
    boundary-flux corrections applied as during stepping."""
    return _Operator(scenario).kinematics(state)


def replay(trajectory, reducers):
    """Call each reducer as ``reducer(op, t)`` on every snapshot of a
    trajectory, with an operator holding the snapshot's level, as
    :func:`run` calls them while stepping."""
    op = _Operator(trajectory.scenario, trajectory.dissipative)
    for st in trajectory.states:
        op.load(st)
        op.fluxes(st.t)
        for reducer in reducers:
            reducer(op, st.t)


def run(scenario, n_samples=None, dissipative=False, reducers=None):
    """Integrate the scenario and return the sampled trajectory.

    The step is rounded so the horizon is an integer number of steps, and
    the wave bound is checked on the step taken.
    ``n_samples`` caps the number of samples (default: one per step, at most
    801): the samples are every ``stride = ceil(nsteps / (n_samples - 1))``
    steps, the step count is padded up to a multiple of the stride, and t = 0
    and t = T are always sampled, so the samples are uniform in time and at
    most ``n_samples``, which must be at least 2 when T > 0.  The log holds
    the total energy and max |theta| of every sample.  Identical inputs give
    identical trajectories.

    Every reader of a sample is a reducer: a callable of ``reducers``,
    called as ``reducer(op, t)`` at every sample, with the stepping operator
    holding the sample's level: ``op.Y`` the state, ``op.energy_parts()``
    the parts (P, R) of the measure density, ``op.normal_power(axis, sel)``
    the power through a grid plane and ``op.source_work(t)`` the work of the
    volume sources.  The default reducer keeps a copy of every sample in
    ``states``; given reducers, ``states`` keeps only the final state, so
    memory does not grow with the sample count.  ``times`` and the log are
    the same either way; the log reads only P, so R is computed only for a
    reducer that asks for it.
    """
    errors, warnings = validate_scenario(scenario)
    if errors:
        raise ValueError("invalid scenario: " + "; ".join(errors))
    if scenario.T > 0.0 and n_samples is not None and n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 (t = 0 and t = T), got {n_samples}")
    dt_max, growth = stability_budget(scenario, enforce=not dissipative)
    dt = scenario.resolve_dt(dt_max)
    nsteps = max(1, int(round(scenario.T / dt))) if scenario.T > 0.0 else 0
    if n_samples is None:
        n_samples = min(nsteps + 1, 801)
    stride = max(1, math.ceil(nsteps / max(1, n_samples - 1))) if nsteps else 1
    if nsteps:
        # pad so the stride divides the step count: samples stay uniform
        nsteps = stride * math.ceil(nsteps / stride)
        dt = scenario.T / nsteps
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(f"step {dt:.6g} (from dt = {scenario.dt}) exceeds the wave bound "
                           f"{dt_max:.6g}")

    grid = scenario.grid
    op = _Operator(scenario, dissipative)
    op.load(SimState(0.0, *initial_arrays(scenario)))
    op.impose(0.0)
    op.level(0.0, op.Y[-1])

    weights = trapezoid_weights(grid.counts, grid.spacing)
    theta = op.Y[grid.dim + 1]
    times, states, energies, theta_max = [], [], [], []
    reducers = reducers or [lambda op, t: states.append(op.state(t))]

    def sample(t):
        times.append(t)
        energies.append(float(np.sum(weights * op.energy())))
        theta_max.append(float(np.abs(theta).max()))
        for reducer in reducers:
            reducer(op, t)

    sample(0.0)
    for k in range(nsteps):
        op.advance(k * dt, dt)
        t1 = (k + 1) * dt
        op.check_finite(t1)
        if (k + 1) % stride == 0 or k + 1 == nsteps:
            sample(t1)
    states = states or [op.state(times[-1])]

    log = {"dt": dt, "nsteps": nsteps, "growth_factor": growth,
           "energy": np.array(energies), "theta_max": np.array(theta_max),
           "warnings": warnings}
    return Trajectory(scenario=scenario, times=np.array(times), states=states, log=log,
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
                / (mat.theta0 * mat.aHeat))
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
    trajectory, against the operator it was stepped with: at each interior
    sample the centred second differences of u and phi are compared with
    the operator's accelerations, and the centred first difference of theta
    with its temperature rate, in the trajectory's own time direction.

    Each residual is relative to the participating terms: the larger of the
    time difference and the rate with its volume source taken out.

    ``boundary_margin`` drops that many node layers per side before taking
    the max: the two outermost layers see composed one-sided stencils whose
    truncation is one order lower, while the interior is uniformly second
    order.
    """
    scenario, times, states = trajectory.scenario, trajectory.times, trajectory.states
    if len(states) < 3:
        raise ValueError("need at least three samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("pde_residual needs uniformly sampled trajectories")
    dt = float(dts[0])
    m = int(boundary_margin)
    core = (Ellipsis,) + tuple(slice(m, n - m if m else None) for n in scenario.grid.counts)

    def interior_max(arr):
        return float(np.abs(arr[core]).max())

    op = _Operator(scenario, trajectory.dissipative)
    d = op.d
    worst = dict.fromkeys(("momentum", "void", "thermal"), 0.0)
    scale = dict.fromkeys(worst, 1e-30)
    for k in range(1, len(states) - 1):
        prev, cur, nxt = states[k - 1:k + 2]
        t = float(times[k])
        acc, rate = op.rates(cur, cur.phidot)
        terms = {
            "momentum": ((nxt.u - 2.0 * cur.u + prev.u) / dt ** 2, acc[:d],
                         scenario.source("f", t)),
            "void": ((nxt.phi - 2.0 * cur.phi + prev.phi) / dt ** 2, acc[d],
                     scenario.source("ell", t) / op.mat.chi),
            "thermal": ((nxt.theta - prev.theta) / (2.0 * dt), rate,
                        op.r_rate * scenario.source("r", t)),
        }
        for key, (diff, rhs, source) in terms.items():
            worst[key] = max(worst[key], interior_max(diff - rhs))
            scale[key] = max(scale[key], interior_max(diff), interior_max(rhs - source))
    return {key: worst[key] / scale[key] for key in worst}


# ---------------------------------------------------------------------------
# Scenario files and trajectory dumps


def _real(text, where, dim):
    return read_numbers(text, float, ScenarioFileError, where)


def _point(text, where, dim):
    return read_numbers(text.replace(",", " "), float, ScenarioFileError, where, count=dim)


def _axis(text, where, dim):
    axis = read_numbers(text, int, ScenarioFileError, where)
    if not 0 <= axis < dim:
        raise ScenarioFileError(f"{where}: axis {axis} outside 0..{dim - 1}")
    return axis


# name -> (constructor, {parameter: converter(text, where, dim)}); every
# parameter is required, and any line may add the displacement component axis
_SIGNALS = {"zero": (ZeroSignal, {}),
            "raised_cosine": (RaisedCosinePulse, {"amplitude": _real, "t_end": _real}),
            "windowed_gaussian": (WindowedGaussianPulse, dict.fromkeys(
                ("amplitude", "center", "sigma", "t_end"), _real))}
_PROFILES = {"zero": (lambda: None, {}),
             "cosine_bump": (CosineBump, {"amplitude": _real, "center": _point, "width": _real})}


def _read_call(kind, table, tokens, dim, where):
    """The object that a ``name key=value ...`` line builds from ``table``,
    and its displacement component ``axis``."""
    name = tokens[0] if tokens else ""
    if name not in table:
        raise ScenarioFileError(f"{where}: unknown {kind} '{name}' (choose from {list(table)})")
    make, required = table[name]
    converters = {**required, "axis": _axis}
    params = {}
    for tok in tokens[1:]:
        key, eq, text = tok.partition("=")
        if not eq or key in params or key not in converters:
            raise ScenarioFileError(f"{where}: expected distinct name=value pairs of "
                                    f"{list(converters)}, got '{tok}'")
        params[key] = converters[key](text, f"{where}: {key}", dim)
    missing = [key for key in required if key not in params]
    if missing:
        raise ScenarioFileError(f"{where}: {kind} '{name}' missing parameters {missing}")
    axis = params.pop("axis", 0)
    return make(**params), axis


def read_scenario_file(path, material=None):
    """Parse the documented key-value scenario schema.

    The referenced material file is resolved relative to the scenario file
    unless a material is passed explicitly.  Every key appears at most once;
    every malformed entry raises :class:`ScenarioFileError` naming its
    ``path:line``.
    """
    entries = read_key_values(path, ScenarioFileError)
    plain = {key: value for key, value in entries.items()
             if not key.startswith(("face.", "initial.", "source."))}
    required = ("dim", "extent", "nodes", "dt", "T", "support_x0")
    known = set(required) | {"material", "label"}
    unknown = set(plain) - known
    if unknown:
        raise ScenarioFileError(f"{path}: unknown keys: {sorted(unknown)}")
    missing = [k for k in required if k not in plain]
    if missing:
        raise ScenarioFileError(f"{path}: missing keys: {missing}")

    def number(key, kind=float, count=None):
        lineno, text = plain[key]
        return read_numbers(text, kind, ScenarioFileError, f"{path}:{lineno}: {key}", count)

    dim = number("dim", int)
    if dim not in (1, 2, 3):
        raise ScenarioFileError(f"{path}:{plain['dim'][0]}: dim must be 1, 2 or 3")
    extents, counts = number("extent", count=dim), number("nodes", int, dim)
    try:
        grid = Grid(extents=extents, counts=counts)
    except ValueError as exc:
        raise ScenarioFileError(f"{path}:{plain['nodes'][0]}: {exc}") from None
    dt = "auto" if plain["dt"][1] == "auto" else number("dt")

    if material is None:
        if "material" not in plain:
            raise ScenarioFileError(f"{path}: no material file referenced and none supplied")
        mat_path = plain["material"][1]
        if not os.path.isabs(mat_path):
            mat_path = os.path.join(os.path.dirname(os.path.abspath(path)), mat_path)
        material = read_material_file(mat_path)
    if material.dim != dim:
        raise ScenarioFileError(f"{path}: material dim {material.dim} != scenario dim {dim}")

    face_names = {f"x{a + 1}{side}": (a, side) for a in range(dim) for side in ("min", "max")}
    faces, init_fns = {}, {}
    for key, (lineno, rest) in entries.items():
        where, tokens, name = f"{path}:{lineno}", rest.split(), key.partition(".")[2]
        if key.startswith("face."):
            fname, _, group = name.partition(".")
            if fname not in face_names or group not in GROUPS:
                raise ScenarioFileError(
                    f"{where}: face keys look like face.<face>.<group> with <face> in "
                    f"{list(face_names)} and <group> in {list(GROUPS)}")
            if len(tokens) < 2 or tokens[0] not in ("dirichlet", "flux"):
                raise ScenarioFileError(f"{where}: expected '<dirichlet|flux> <signal ...>'")
            signal, axis = _read_call("signal", _SIGNALS, tokens[1:], dim, where)
            faces.setdefault(face_names[fname], {})[group] = BoundaryCondition(
                kind=tokens[0], signal=signal, axis=axis)
        elif key.startswith("initial."):
            if name not in ("u", "udot", "phi", "phidot", "theta"):
                raise ScenarioFileError(f"{where}: unknown initial field '{name}'")
            prof, axis = _read_call("profile", _PROFILES, tokens, dim, where)
            if prof is not None:
                init_fns[name] = vector_profile(prof, axis, dim) if name in ("u", "udot") else prof
        elif key.startswith("source."):
            if name not in ("f", "ell", "r"):
                raise ScenarioFileError(f"{where}: unknown source '{name}'")
            if tokens != ["zero"]:
                raise ScenarioFileError(f"{where}: file scenarios support only zero sources")

    scenario = Scenario(grid=grid, material=material,
                        boundary=BoundaryPartition(faces=faces), dt=dt, T=number("T"),
                        support_x0=number("support_x0"), initial=init_fns, sources={},
                        label=plain.get("label", (0, ""))[1])
    errors = scenario.boundary.validate(dim)
    if errors:
        raise ScenarioFileError(f"{path}: " + "; ".join(errors))
    return scenario


class TrajectoryCsvWriter:
    """Reducer that writes the field dump to an open text file: columns t,
    x1..xd, u1..ud, v1..vd, phi, phidot, theta with 17 significant digits,
    one row per (sample time, node), time-major, nodes row-major.  Each
    sample's block is one ``%``-string over its fields gathered from
    ``op.Y``, with the coordinates formatted once per run."""

    def __init__(self, scenario, fh):
        d = scenario.grid.dim
        # rows of the operator state in column order: u, v, phi, phidot, theta
        self.rows = [*range(d), *range(d + 2, 2 * d + 2), d, 2 * d + 2, d + 1]
        fields = ",%.17g" * len(self.rows) + "\n"
        nodes = np.stack([x.ravel() for x in scenario.mesh()], axis=1).tolist()
        self.tails = [",".join(["%.17g" % x for x in node]) + fields for node in nodes]
        self.fh = fh
        fh.write(",".join(["t"] + [f"{c}{i + 1}" for c in "xuv" for i in range(d)]
                          + ["phi", "phidot", "theta"]) + "\n")

    def __call__(self, op, t):
        lead = "%.17g," % t
        block = op.Y[self.rows].reshape(len(self.rows), -1).T
        self.fh.write((lead + lead.join(self.tails)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(trajectory, path):
    """Replay a snapshot trajectory through a :class:`TrajectoryCsvWriter`."""
    with open(path, "w") as fh:
        replay(trajectory, [TrajectoryCsvWriter(trajectory.scenario, fh)])
