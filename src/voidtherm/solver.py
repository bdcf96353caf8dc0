"""Explicit time-domain solver for the coupled displacement / void-fraction /
temperature system on rectilinear grids.

The hyperbolic fields advance by velocity-Verlet, the temperature by an
explicit midpoint rule riding on the Verlet half-step velocities.  The
default integration direction carries the anti-dissipative thermal sign of
the time-reflected forward problem; ``dissipative=True`` selects the
standard dissipative signs instead.

Spatial derivatives are second-order central differences with second-order
one-sided stencils at boundaries, all from one routine, ``_difference_plan``:
it binds the derivative along one grid axis of every field stacked on the
leading axis of an array, with the arithmetic of ``np.gradient(edge_order=2)``,
into a callable that runs only ufuncs.  The operator binds each difference
and divergence of a step once, with one gather buffer for all their end
stencils; ``kinematics`` builds its plans per call.  ``pde_residual``
measures a trajectory against the operator it was stepped with.

``run`` is the one way to advance a state: after the support, wave-bound and
thermal-budget checks it builds one private operator per scenario.  It keeps
the state as one stacked array updated in place, with buffers sized by
fields x nodes; a face plan per face (node slice, Dirichlet groups, flux
groups, the restricted normal-flux matrix N_sel inverted once); and the
constitutive law as one matrix from the stacked derivatives and (phi, theta)
to the normal fluxes (S[:, j], h[j]) per axis and the intrinsic force,
``constitutive.response_matrix``, read off the constitutive kernel by unit
inputs once per material (it is cached), and only when stepping or a
traction / equilibrated-stress flux face needs it.  Each time level's
corrected gradients are computed once: the accelerations, the sampled
energy and the next temperature rate share them; the stored energy is the
packed form z^T H z / 2 with H = ``constitutive.energy_matrix``, the same
form that gives the pointwise ``stored_energy``.  The sampled densities P
and R are ``constitutive.energy_density`` and ``rate_density``, which also
serve a single point.  The coupling term of the temperature rate, M:grad v + aVec.grad phidot, is the
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

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _csvtext
from .constitutive import energy_density, field_response, rate_density, response_matrix
from .material import (Material, read_key_values, read_material_file, read_numbers,
                       spectrum as material_spectrum)

GROUPS = ("displacement", "void", "thermal")
# node-samples per sample block of ``run``: B = max(1, SAMPLE_BLOCK // nodes)
SAMPLE_BLOCK = 4096


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


def _shaped(data, shape):
    """Evaluated data as a float array of ``shape``: as returned when it has
    that shape, else broadcast (a scalar or a lower-rank return)."""
    data = np.asarray(data, dtype=float)
    return data if data.shape == shape else np.broadcast_to(data, shape)


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
        return _shaped(fn(scenario.mesh(face), t), shape)
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
        return _shaped(fn(self.mesh(), t), shape)

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
                    if _largest(data, outside[face_slice(axis, side, scenario.grid.dim)]) > 1e-14:
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


def _difference_plan(f, axis, h, out, gather=None):
    """The derivative along grid axis ``axis`` of every field stacked on the
    leading axis of ``f`` as a callable that writes it into ``out`` and
    returns ``out``: views and weights are bound once, so a call runs only
    ufuncs, on what ``f`` holds then.  The end gather goes into the flat
    buffer ``gather`` (new when None), which plans may share.

    Central differences inside, one-sided three-point stencils at the ends,
    with the arithmetic of ``np.gradient(f, h, axis=axis + 1, edge_order=2)``
    bit for bit.  At h = 0.5 the central difference skips its divide by
    2 h = 1.0, which is exact: x / 1.0 is x for every double, NaN, inf and
    -0.0 included.

    On the last axis of a 2D or 3D grid, rows are short: the central
    difference runs over each field's node block flattened, in one pass, and
    the values it wraps across row ends land only on the end nodes, which
    the two end-column stencils then overwrite.  There ``f`` and ``out``
    must flatten to (fields, nodes) as views."""
    if f.ndim > 2 and axis == f.ndim - 2:
        flat, g = out.reshape(len(out), -1), f.reshape(len(f), -1)
        if not (np.may_share_memory(flat, out) and np.may_share_memory(g, f)):
            raise ValueError(f"f or out (strides {f.strides}, {out.strides}) does not "
                             "flatten as a view")
        mid, above, below = flat[:, 1:-1], g[:, 2:], g[:, :-2]
        first, last = out[..., 0], out[..., -1]
        f0, f1, f2, f3, f4, f5 = (f[..., k] for k in (0, 1, 2, -3, -2, -1))

        def run():
            np.subtract(above, below, out=mid)
            if h != 0.5:
                np.divide(mid, 2.0 * h, out=mid)
            np.multiply(-1.5 / h, f0, out=first)
            np.add(first, (2.0 / h) * f1, out=first)
            np.add(first, (-0.5 / h) * f2, out=first)
            np.multiply(0.5 / h, f3, out=last)
            np.add(last, (-2.0 / h) * f4, out=last)
            np.add(last, (1.5 / h) * f5, out=last)
            return out
        return run
    # both ends at once: nodes[k] holds nodes k and n - 3 + k, the k-th term
    # of each end's stencil, and terms[k] is term k of the gathered array
    lead, n = (slice(None),) * (axis + 1), f.shape[axis + 1]
    mid, above, below = (out[lead + (slice(1, -1),)], f[lead + (slice(2, None),)],
                         f[lead + (slice(None, -2),)])
    nodes = np.array([[0, n - 3], [1, n - 2], [2, n - 1]])
    weights = np.array([[-1.5 / h, 0.5 / h], [2.0 / h, -2.0 / h], [-0.5 / h, 1.5 / h]])
    weights = weights.reshape((3, 2) + (1,) * (f.ndim - axis - 2))
    shape = f.shape[:axis + 1] + (3, 2) + f.shape[axis + 2:]
    g = np.empty(shape) if gather is None else gather[:math.prod(shape)].reshape(shape)
    edge, terms = out[lead + (slice(0, n, n - 1),)], [g[lead + (k,)] for k in range(3)]

    def run():
        np.subtract(above, below, out=mid)
        if h != 0.5:
            np.divide(mid, 2.0 * h, out=mid)
        # the indices are in range: mode="clip" writes out= directly, where
        # the default mode="raise" gathers through a buffer
        f.take(nodes, axis=axis + 1, out=g, mode="clip")
        np.multiply(g, weights, out=g)
        # the terms summed in np.gradient's order; a reduction would start
        # from +0.0 and lose the sign of a -0.0 sum
        np.add(terms[0], terms[1], out=edge)
        np.add(edge, terms[2], out=edge)
        return out
    return run


def _difference(f, axis, h, out=None):
    """The derivative of :func:`_difference_plan`, computed once (into a new
    array when ``out`` is None)."""
    return _difference_plan(f, axis, h, np.empty(f.shape) if out is None else out)()


def _divergence_plan(fluxes, spacing, out, work, gather=None):
    """Sum over axes j of the derivative along j of ``fluxes[j]``, which
    stacks the axis-j components of several fluxes on its leading axis, as a
    callable like :func:`_difference_plan`'s; ``work``, shaped like
    ``fluxes[j]``, holds each derivative after the first."""
    first = _difference_plan(fluxes[0], 0, spacing[0], out, gather)
    rest = [_difference_plan(fluxes[j], j, spacing[j], work, gather)
            for j in range(1, len(spacing))]

    def run():
        first()
        for plan in rest:
            np.add(out, plan(), out=out)
        return out
    return run


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


def _face_plans(scenario):
    """One plan per face; the response matrix is read only for faces with
    traction or equilibrated-stress flux data."""
    d = scenario.grid.dim
    plans = []
    for (axis, side), groups in scenario.boundary.faces.items():
        mech = tuple(g for g in ("displacement", "void") if groups[g].kind == "flux")
        rows = slice(0 if "displacement" in mech else d, d + 1 if "void" in mech else d)
        flux = inverse = None
        if mech:
            first = axis * (d + 1)
            flux = response_matrix(scenario.material)[first + rows.start:first + rows.stop]
            inverse = np.linalg.inv(flux[:, [r * d + axis for r in range(rows.start, rows.stop)]])
        plans.append(_FacePlan(
            face=(axis, side), index=face_slice(axis, side, d),
            sigma=-1.0 if side == "min" else 1.0, bcs=groups,
            dirichlet=tuple(g for g in GROUPS if groups[g].kind == "dirichlet"),
            mechanical=mech, rows=rows, flux=flux, inverse=inverse))
    return plans


class _Operator:
    """The semi-discrete system of one scenario, built once per run.

    The state lives in one array ``Y`` with rows u (d), phi, theta, v (d),
    phidot, so (u, phi, theta) and (v, phidot) are contiguous blocks; every
    buffer is sized by fields x nodes.  ``grad[r, s]`` holds the derivative
    along axis s of field r of (u, phi, theta) at the current time level,
    corrected on flux faces: the accelerations, the sampled energy and the
    next temperature rate all read it.  It is a view into ``packed``, whose
    first rows hold copies of phi and theta, so the constitutive law is one
    matmul from ``packed``.

    The rows of axis j of ``flux`` (the G row excepted) and of ``heat``
    carry 1 / (2 h_j), so their divergences difference with h = 0.5, which
    skips a divide; ``SampleBlock.normal_power`` multiplies the 2 h_j back in.
    """

    def __init__(self, scenario, dissipative=False):
        self.scenario, self.mat = scenario, scenario.material
        self.d, self.h = scenario.grid.dim, scenario.grid.spacing
        self.dissipative = dissipative
        self.faces = _face_plans(scenario)
        self._mechanical = [plan for plan in self.faces if plan.mechanical]
        self._heat = [plan for plan in self.faces if plan.bcs["thermal"].kind == "flux"]
        self.sources = {k for k in ("f", "ell", "r") if scenario.sources.get(k) is not None}
        self.Y = None

    def _allocate(self):
        """The stepping coefficients and buffers; ``kinematics`` alone needs
        none of them."""
        mat, d, counts = self.mat, self.d, self.scenario.grid.counts
        # rows of axis j carry 1 / (2 h_j): the divergences then skip a divide
        mass = np.append(np.full(d, mat.rho), mat.rho * mat.chi)
        axis_scale = 0.5 / np.array(self.h)
        scale = np.append(np.outer(axis_scale, 1.0 / mass), 1.0 / mass[-1])
        response = response_matrix(mat)
        # columns in the order of the packed rows: phi, theta, then d_s u_r, d_s phi
        self.L = scale[:, None] * np.roll(response, 2, axis=1)
        thermal_sign = 1.0 if self.dissipative else -1.0
        tau_sign = -1.0 if self.dissipative else 1.0
        # temperature rate = div(K_rate kappa + W_rate (v, phidot)) - m phidot / aHeat
        self.K_rate = axis_scale[:, None] * thermal_sign / (mat.theta0 * mat.aHeat) * mat.K
        self.W_rate = axis_scale[:, None] * -np.vstack([mat.M, mat.aVec]).T / mat.aHeat
        self.m_rate = mat.m / mat.aHeat
        self.r_rate = thermal_sign * mat.rho / (mat.theta0 * mat.aHeat)
        self.tau_acc = tau_sign * mat.tau / (mat.rho * mat.chi)
        self.power_scale = np.outer(2.0 * np.array(self.h), mass)

        # the rows a sample copies, in one buffer: the state Y; phi, theta and
        # the gradients, the first 2 + d (d + 1) the constitutive matmul's input
        self.splits = [2 * d + 3, 2 * d + 5 + d * (d + 2)]
        self.rows = np.empty((self.splits[1] + d * (d + 1) + 1,) + counts)
        self.Y, self.packed, self.flux = np.split(self.rows, self.splits)
        self.grad = self.packed[2:].reshape((d + 2, d) + counts)
        self.acc = np.empty((d + 1,) + counts)
        self.weights = trapezoid_weights(counts, self.h)
        # the scratch rows of one step
        self.scratch = np.empty((3 * d + 3,) + counts)
        self.tmp, self.heat = self.scratch[:d + 1], self.scratch[d + 1:2 * d + 1]
        self.kappa_half = self.scratch[None, 2 * d + 1:3 * d + 1]
        self.theta_half, self.rate = self.scratch[3 * d + 1], self.scratch[3 * d + 2]

        # every difference of a step, bound once, the end gathers sharing one
        # buffer sized for the gradients of (u, phi, theta); the divergences
        # work in self.tmp, whose contents advance has used up when they run
        F, h, half = self.Y[:d + 2], self.h, (0.5,) * d
        gather = np.empty(max(6 * F.size // n for n in counts[:max(1, d - 1)]))
        self._grad_plans = [_difference_plan(F, j, h[j], self.grad[:, j], gather)
                            for j in range(d)]
        self._half_plans = [_difference_plan(self.theta_half[None], j, h[j],
                                             self.kappa_half[:, j], gather) for j in range(d)]
        self._acc_plan = _divergence_plan(self.flux[:-1].reshape((d, d + 1) + counts), half,
                                          self.acc, self.tmp, gather)
        self._heat_plan = _divergence_plan(self.heat[:, None], half, self.rate[None],
                                           self.tmp[:1], gather)
        # what the matmuls read and write, as (rows, nodes) views
        self._packed_rows = self.packed[:self.L.shape[1]].reshape(self.L.shape[1], -1)
        self._flux_rows = self.flux.reshape(len(self.L), -1)
        self._kappa_rows = self.grad[-1].reshape(d, -1)
        self._kappa_half_rows = self.kappa_half[0].reshape(d, -1)
        self._heat_rows = self.heat.reshape(d, -1)
        self._velocity_rows = self.Y[d + 2:].reshape(d + 1, -1)
        self._tmp_rows = self.tmp[:d].reshape(d, -1)

        self._positions = self._writes({"displacement": self.Y[:d], "void": self.Y[d]})
        self._velocities = self._writes({"displacement": self.Y[d + 2:2 * d + 2],
                                         "void": self.Y[2 * d + 2]}, rate=True)
        self._theta = self._writes({"thermal": self.Y[d + 1]})
        self._theta_half = self._writes({"thermal": self.theta_half})

    # -- boundary ----------------------------------------------------------

    def _data(self, plan, group, t):
        """Flux data of one group on a face, None where it is identically zero."""
        if plan.bcs[group].is_zero():
            return None
        return _face_data(self.scenario, plan.face, group, t)

    def _writes(self, targets, rate=False):
        """The Dirichlet writes into the arrays ``targets`` (by group), in
        face order, so a later face wins at nodes shared with an earlier one:
        pairs (face nodes, data), the data None for zero, else a function of
        t giving the value (``rate=True``: the time derivative).  A signal
        gives a scalar, written into the displacement's ``axis`` component
        after its other components are zeroed; field data is called on the
        face's cached coordinates and its return broadcast into the nodes."""
        writes = []
        for plan in self.faces:
            for g in (g for g in plan.dirichlet if g in targets):
                bc, nodes = plan.bcs[g], targets[g][(Ellipsis,) + plan.index]
                if bc.fielddata is not None:
                    fn = bc.fielddata.rate if rate else bc.fielddata.value
                    data = lambda t, fn=fn, X=self.scenario.mesh(plan.face): fn(X, t)
                elif bc.is_zero():
                    data = None
                else:
                    data = bc.signal.rate if rate else bc.signal.value
                    if g == "displacement":
                        writes += [(nodes, None)] if self.d > 1 else []
                        nodes = nodes[bc.axis, ...]
                writes.append((nodes, data))
        return writes

    @staticmethod
    def _dirichlet(t, writes):
        """Write Dirichlet data at time t into the face nodes of ``writes``."""
        for nodes, data in writes:
            nodes[...] = 0.0 if data is None else data(t)

    def _correct_mechanical(self, grad, F, t):
        """Overwrite the normal derivatives of u and phi on traction and
        equilibrated-stress flux faces so the nodal face flux (S n, h.n)
        matches the data: the flux is affine in x = (du[:, a], dphi[a]), so
        x_sel += N_sel^-1 (sigma data - flux)."""
        d = self.d
        for plan in self._mechanical:
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
        for plan in self._heat:
            a = plan.face[0]
            data = self._data(plan, "thermal", t)
            acc = plan.sigma * (0.0 if data is None else data)
            for s in range(self.d):
                if s != a:
                    acc = acc - K[a, s] * kappa[(s,) + plan.index]
            kappa[(a,) + plan.index] = acc / K[a, a]

    # -- right-hand side ---------------------------------------------------

    def _gradients(self, plans, F, t, out):
        """Derivatives out[r, s] = d_s F[r], corrected at time t, from the
        per-axis ``plans`` that difference F into out; F is (u, phi, theta),
        or theta alone, which has only heat-flux faces."""
        for plan in plans:
            plan()
        if len(F) > 1:
            self._correct_mechanical(out, F, t)
        self._correct_heat(out[-1], t)

    def fluxes(self, t):
        """Corrected gradients of (u, phi, theta) at time t and the normal
        fluxes (S[:, j] / rho, h[j] / (rho chi)) / (2 h_j) per axis j and the
        intrinsic force G / (rho chi) of the loaded state."""
        d, Y = self.d, self.Y
        self._gradients(self._grad_plans, Y[:d + 2], t, self.grad)
        self.packed[:2] = Y[d:d + 2]
        np.matmul(self.L, self._packed_rows, out=self._flux_rows)

    def level(self, t):
        """Corrected gradients of (u, phi, theta), the fluxes and the
        accelerations of (u, phi) at time t, all but the rate term
        ``tau_acc`` phidot: ``advance`` takes that term implicitly."""
        d = self.d
        self.fluxes(t)
        self._acc_plan()
        self.acc[d] += self.flux[-1]
        if "f" in self.sources:
            self.acc[:d] += self.scenario.source("f", t)
        if "ell" in self.sources:
            self.acc[d] += self.scenario.source("ell", t) / self.mat.chi

    def _theta_rate(self, kappa, t):
        """Temperature rate, into ``rate``, from the entropy balance at the
        gradient rows ``kappa`` (d x nodes) and the velocities in ``Y``; the
        coupling M:grad v + aVec.grad phidot is the divergence of M^T v +
        aVec phidot, so it joins the heat flux in one divergence."""
        d, Y, out, heat = self.d, self.Y, self.rate, self._heat_rows
        np.matmul(self.K_rate, kappa, out=heat)
        heat += np.matmul(self.W_rate, self._velocity_rows, out=self._tmp_rows)
        self._heat_plan()
        if self.m_rate:
            out -= np.multiply(self.m_rate, Y[2 * d + 2], out=self.tmp[0])
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
        self._dirichlet(t, self._velocities)

    def state(self, t):
        """A snapshot that owns its memory."""
        return SampleBlock(self, self.rows[:, None], [t]).states()[0]

    def rates(self, state):
        """Accelerations of (u, phi), stacked, and the temperature rate at a
        state, as copies."""
        self.load(state)
        self.level(state.t)
        acc = self.acc.copy()
        if self.tau_acc:
            acc[self.d] += self.tau_acc * state.phidot
        return acc, self._theta_rate(self._kappa_rows, state.t).copy()

    def kinematics(self, state):
        """Strain, void gradient and temperature gradient of a state."""
        d = self.d
        F = np.concatenate([state.u, state.phi[None], state.theta[None]])
        grad = np.empty((d + 2, d) + F.shape[1:])
        self._gradients([_difference_plan(F, j, self.h[j], grad[:, j]) for j in range(d)],
                        F, state.t, grad)
        return 0.5 * (grad[:d] + grad[:d].swapaxes(0, 1)), grad[d], grad[d + 1]

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
        the half-step velocities.  The rate term ``tau_acc`` phidot enters
        the first kick at the loaded phidot and the second implicitly, at the
        phidot it produces."""
        d, Y, tmp = self.d, self.Y, self.tmp
        t_half, t1 = t + 0.5 * dt, t + dt
        theta, W = Y[d + 1], Y[d + 2:]

        self._theta_rate(self._kappa_rows, t)
        np.multiply(self.rate, 0.5 * dt, out=self.theta_half)
        self.theta_half += theta
        self._dirichlet(t_half, self._theta_half)

        np.multiply(self.acc, 0.5 * dt, out=tmp)
        if self.tau_acc:
            tmp[d] += (0.5 * dt * self.tau_acc) * W[d]
        W += tmp
        np.multiply(W, dt, out=tmp)
        Y[:d + 1] += tmp
        self._dirichlet(t1, self._positions)

        self._gradients(self._half_plans, self.theta_half[None], t_half, self.kappa_half)
        np.multiply(self._theta_rate(self._kappa_half_rows, t_half), dt, out=tmp[0])
        theta += tmp[0]
        self._dirichlet(t1, self._theta)

        self.level(t1)
        np.multiply(self.acc, 0.5 * dt, out=tmp)
        W += tmp
        if self.tau_acc:
            W[d] /= 1.0 - 0.5 * dt * self.tau_acc
        self._dirichlet(t1, self._velocities)


class SampleBlock:
    """Sampled levels of a run: ``times`` and, laid out (rows, samples, *grid)
    and valid during a reducer call only, ``Y`` the state, ``grad`` the
    gradients (field-major) and ``flux`` the fluxes.  Kernels see (samples,
    rows, nodes), so a matmul makes a BLAS call per sample: bits per sample."""

    def __init__(self, op, rows, times):
        self.op, self.d, self.times = op, op.d, times
        self.Y, packed, self.flux = np.split(rows, op.splits)
        self.grad = packed[2:]

    def _stack(self, rows):
        """(rows, samples, ...) as (samples, rows, nodes)."""
        return rows.reshape(len(rows), len(self.times), -1).swapaxes(0, 1)

    @cached_property
    def energy(self):
        """The energy density P (kinetic, void-kinetic, thermal and stored)."""
        d, Y, m = self.d, self.Y, len(self.times)
        return energy_density(self.op.mat, self._stack(self.grad[:-d]), Y[d].reshape(m, -1),
                              self._stack(Y[d + 2:]), Y[d + 1].reshape(m, -1)).reshape(Y.shape[1:])

    @cached_property
    def energy_total(self):
        """The trapezoid integral of P over the grid, a float per sample."""
        return (self.op.weights * self.energy).reshape(len(self.times), -1).sum(1).tolist()

    def energy_parts(self):
        """The parts (P, R) of the measure density lambda P + R."""
        R = rate_density(self.op.mat, self._stack(self.Y[-1:])[:, 0],
                         self._stack(self.grad[-self.d:]))
        return self.energy, R.reshape(self.Y.shape[1:])

    def normal_power(self, axis, sel=()):
        """Power S n.v + h.n phidot - q.n theta/theta0 through a face with
        normal e_axis, at the nodes ``sel`` (an index into the grid axes)."""
        d, mat, Y = self.d, self.op.mat, self.Y
        at = (slice(None), slice(None)) + sel
        flux = self.flux[axis * (d + 1):(axis + 1) * (d + 1)][at]
        q = mat.K[axis] @ self._stack(self.grad[-d:][at])
        power = (self.op.power_scale[axis] @ self._stack(flux * Y[d + 2:][at])
                 - q * Y[d + 1][at[1:]].reshape(len(self.times), -1) / mat.theta0)
        return power.reshape(flux.shape[1:])

    def source_work(self):
        """Work of the volume sources per unit mass, f.v + ell phidot -
        r theta/theta0; None without sources."""
        d, Y, op = self.d, self.Y, self.op
        terms = {"f": lambda f: np.einsum("i...,i...->...", f, Y[d + 2:2 * d + 2]),
                 "ell": lambda s: s * Y[2 * d + 2], "r": lambda s: -s * Y[d + 1] / op.mat.theta0}
        work = [term(np.stack([op.scenario.source(key, t) for t in self.times], axis=-d - 1))
                for key, term in terms.items() if key in op.sources]
        return sum(work) if work else None

    def states(self):
        """The samples as snapshots that own their memory."""
        d = self.d   # SimState(t, u, v, phi, phidot, theta)
        return [SimState(t, y[:d].copy(), y[d + 2:-1].copy(), y[d].copy(), y[-1].copy(),
                         y[d + 1].copy()) for t, y in zip(self.times, self.Y.swapaxes(0, 1))]


def _sampler(op, reducers):
    """``sample(t)`` copies op's level into a block of B samples (a view at
    B = 1) that goes to the reducers when full; ``sample()`` sends the rest."""
    size, times = max(1, SAMPLE_BLOCK // op.Y[0].size), []
    rows = op.rows[:, None] if size == 1 else np.empty((len(op.rows), size) + op.Y.shape[1:])

    def sample(t=None):
        if t is not None:
            if size > 1:
                rows[:, len(times)] = op.rows
            times.append(t)
        if times and (t is None or len(times) == size):
            block = SampleBlock(op, rows[:, :len(times)], times.copy())
            times.clear()
            for reducer in reducers:
                reducer(block)
    return sample


def kinematics(state, scenario):
    """Strain, void gradient, temperature gradient of a state, with the
    boundary-flux corrections applied as during stepping."""
    return _Operator(scenario).kinematics(state)


def replay(trajectory, reducers):
    """Hand a trajectory's snapshots to the reducers in sample blocks, as :func:`run` does."""
    op = _Operator(trajectory.scenario, trajectory.dissipative)
    op._allocate()
    sample = _sampler(op, reducers)
    for st in trajectory.states:
        op.load(st)
        op.fluxes(st.t)
        sample(st.t)
    sample()


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
    called as ``reducer(block)`` on :class:`SampleBlock` s of B =
    ``SAMPLE_BLOCK // nodes`` samples (at least one), in sample order, the
    last one partial: ``block.energy_parts()`` the parts (P, R) of the
    measure density, ``block.normal_power(axis, sel)`` the power through a
    grid plane, ``block.source_work()`` the work of the volume sources.  The
    default reducer keeps a copy of every sample in ``states``; given
    reducers, only the final state, so memory is bounded by B, not the
    sample count.  ``times`` and the log (which computes no R) are the same.
    """
    errors, warnings = validate_scenario(scenario)
    if errors:
        raise ValueError("invalid scenario: " + "; ".join(errors))
    if scenario.T > 0.0 and n_samples is not None and n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 (t = 0 and t = T), got {n_samples}")
    dt_max, growth = stability_budget(scenario, enforce=not dissipative)
    dt, nsteps, stride = time_grid(scenario, n_samples, dt_max)
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(f"step {dt:.6g} (from dt = {scenario.dt}) exceeds the wave bound "
                           f"{dt_max:.6g}")
    mat = scenario.material
    kick = 0.5 * dt * mat.tau / (mat.rho * mat.chi)
    if not dissipative and kick >= 1.0:
        # the implicit kick of the anti-dissipative memory term divides by 1 - kick
        raise CflViolation(f"step {dt:.6g} makes (dt/2) tau / (rho chi) = {kick:.6g} >= 1 "
                           f"for the memory term tau = {mat.tau:.6g}")

    op = _Operator(scenario, dissipative)
    op.load(SimState(0.0, *initial_arrays(scenario)))
    op.impose(0.0)
    op.level(0.0)

    times, states, energies, theta_max = [], [], [], []

    def log(block):
        times.extend(block.times)
        energies.extend(block.energy_total)
        theta_max.extend(np.abs(block.Y[op.d + 1]).reshape(len(block.times), -1).max(1).tolist())

    # the log goes last: it holds no density while a reducer runs
    sample = _sampler(op, [*(reducers or [lambda block: states.extend(block.states())]), log])
    sample(0.0)
    for k in range(nsteps):
        op.advance(k * dt, dt)
        t1 = (k + 1) * dt
        op.check_finite(t1)
        if (k + 1) % stride == 0 or k + 1 == nsteps:
            sample(t1)
    sample()
    states = states or [op.state(times[-1])]

    log = {"dt": dt, "nsteps": nsteps, "growth_factor": growth,
           "energy": np.array(energies), "theta_max": np.array(theta_max),
           "warnings": warnings}
    return Trajectory(scenario=scenario, times=np.array(times), states=states, log=log,
                      dissipative=dissipative)


def time_grid(scenario, n_samples=None, dt_max=None):
    """(dt, nsteps, stride) of :func:`run`; its samples are ``stride * dt`` apart."""
    dt = scenario.resolve_dt(dt_max)
    if scenario.T <= 0.0:
        return dt, 0, 1
    nsteps = max(1, int(round(scenario.T / dt)))
    cap = min(nsteps + 1, 801) if n_samples is None else n_samples
    stride = max(1, math.ceil(nsteps / max(1, cap - 1)))
    nsteps = stride * math.ceil(nsteps / stride)   # padded: the samples stay uniform
    return scenario.T / nsteps, nsteps, stride


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
    if bc.is_zero():
        return bc
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
    return replace(scenario, boundary=BoundaryPartition(faces=faces),
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
        acc, rate = op.rates(cur)
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
    x1..xd, u1..ud, v1..vd, phi, phidot, theta with 17 significant digits
    (``%.17g``), one row per (sample time, node), time-major, nodes
    row-major.  The coordinate prefix of every row is formatted once per
    run.  A sample goes out in blocks of nodes of about ``SLAB`` values
    (one block on the 1D reference pulse): each formats its fields gathered
    from the sample block's ``Y``, and the sample time, in one call of the
    vectorised ``%.17g`` kernel and makes one write."""

    def __init__(self, scenario, fh):
        d = scenario.grid.dim
        # rows of the operator state in column order: u, v, phi, phidot, theta
        self.rows = [*range(d), *range(d + 2, 2 * d + 2), d, 2 * d + 2, d + 1]
        self.coords = _csvtext.lead(np.stack([x.ravel() for x in scenario.mesh()], axis=1))
        self.fh = fh
        fh.write(",".join(["t"] + [f"{c}{i + 1}" for c in "xuv" for i in range(d)]
                          + ["phi", "phidot", "theta"]) + "\n")

    def __call__(self, block):
        step = max(1, (_csvtext.SLAB - 1) // len(self.rows))
        for k, t in enumerate(block.times):
            table = block.Y[self.rows, k].reshape(len(self.rows), -1).T
            for start in range(0, len(table), step):
                part = table[start:start + step]
                cells = _csvtext.g17_cells(np.append(t, part))
                t_lead = np.append(cells[0][cells[0] != 0], np.uint8(ord(",")))
                self.fh.write(_csvtext.csv_text(cells[1:].reshape(part.shape + (-1,)),
                                                t_lead, self.coords[start:start + step]))


def write_trajectory_csv(trajectory, path):
    """Replay a snapshot trajectory through a :class:`TrajectoryCsvWriter`."""
    with open(path, "w") as fh:
        replay(trajectory, [TrajectoryCsvWriter(trajectory.scenario, fh)])
