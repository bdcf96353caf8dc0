"""Time-weighted volume measure of a trajectory, its r- and t-derivatives,
and the runtime certificates: the energy identity, the first-order
differential inequality, and the spatial decay estimate along
characteristics.

Geometry is restricted to slab supports on rectilinear boxes: the data
slab is x1 <= x0, the body beyond depth r is B_r = {x1 > x0 + r}, and the
separating cross-section S_r is the grid plane at x1 = x0 + r.  All r
samples are grid-aligned so no interpolation error enters the surface
integrals; the inequality margins are the point of the exercise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import TOLERANCES, energy_density_parts, field_response
from .material import spectrum as material_spectrum, zeta_of_lambda
from .solver import _Operator, trapezoid_weights


# ---------------------------------------------------------------------------
# Geometry


@dataclass(frozen=True, eq=False)
class SupportGeometry:
    """Slab data support of depth ``x0``; ``L`` is the remaining length of
    the body, r_samples the (grid-aligned, strictly increasing) depths."""

    x0: float
    L: float
    r_samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r_samples", np.asarray(self.r_samples, dtype=float))
        r = self.r_samples
        if self.x0 < 0.0:
            raise ValueError("x0 must be nonnegative")
        if r.size == 0 or np.any(np.diff(r) <= 0.0):
            raise ValueError("r_samples must be strictly increasing")
        if r[0] < -1e-12 or r[-1] > self.L + 1e-12:
            raise ValueError("r_samples must lie in [0, L]")


def support_geometry(scenario):
    """Grid-aligned geometry for a scenario's declared support slab.

    The last sample stops one cell short of the far end so every B_r keeps
    at least one interior cell.
    """
    grid = scenario.grid
    h1 = grid.spacing[0]
    i0 = int(round(scenario.support_x0 / h1))
    if abs(i0 * h1 - scenario.support_x0) > 1e-9 * h1:
        raise ValueError("support depth x0 must be grid-aligned")
    n1 = grid.counts[0]
    idx = np.arange(i0, n1 - 1)
    return SupportGeometry(x0=scenario.support_x0,
                           L=grid.extents[0] - scenario.support_x0,
                           r_samples=(idx - i0) * h1)


# ---------------------------------------------------------------------------
# Density


def weighted_energy_density(state, udot, material, lam):
    """Integrand of the measure at one point: the lambda-weighted kinetic,
    void-kinetic, thermal, and stored parts plus the rate and conduction
    terms (nonnegative for admissible materials)."""
    udot = np.atleast_1d(np.asarray(udot, dtype=float))
    P, R = energy_density_parts(state.e, state.gamma, state.kappa, state.phi,
                                state.phidot, state.theta, udot, material)
    return float(lam * P + R)


def _lateral_weights(grid):
    """Trapezoid weights over all axes but the first (including spacings)."""
    return trapezoid_weights(grid.counts[1:], grid.spacing[1:])


def _normal_power(S, h, q, state, axis, material, sel=()):
    """Power S n.v + h.n phidot - q.n theta/theta0 through a face with
    normal e_axis, at the nodes ``sel`` (an index into the grid axes)."""
    return (np.einsum("i...,i...->...", S[(slice(None), axis) + sel],
                      state.v[(slice(None),) + sel])
            + h[(axis,) + sel] * state.phidot[sel]
            - q[(axis,) + sel] * state.theta[sel] / material.theta0)


def _cumtrapz(times, values, axis=0):
    values = np.moveaxis(values, axis, 0)
    dt = np.diff(times)
    inc = 0.5 * dt.reshape((-1,) + (1,) * (values.ndim - 1)) * (values[1:] + values[:-1])
    out = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(inc, axis=0)])
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# Measure series


@dataclass(eq=False)
class MeasureSeries:
    """Sampled measure over (r, t) with its derivatives and the weighted
    variant used in the characteristic argument."""

    lam: float
    decay: object
    geometry: SupportGeometry
    r: np.ndarray
    t: np.ndarray
    E: np.ndarray
    dE_dr: np.ndarray
    dE_dt: np.ndarray
    I: np.ndarray


def compute_measure(trajectory, geometry, material, lam):
    """Measure series of a trajectory for time weight ``lam``.

    Space integrals are cell-midpoint quadrature with nodal averages
    (trapezoid weights), the time integral is the trapezoid rule on the
    sample times.  Derivatives are computed directly from their own volume
    and surface integrals, not by differencing E.
    """
    scenario = trajectory.scenario
    grid = scenario.grid
    times = trajectory.times
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if lam * float(np.max(np.diff(times))) > 0.25:
        raise ValueError("trajectory sampled too coarsely for this time weight")
    h1 = grid.spacing[0]
    i0 = int(round(geometry.x0 / h1))
    idx = i0 + np.round(geometry.r_samples / h1).astype(int)
    if np.any(np.abs(idx * h1 - (geometry.x0 + geometry.r_samples)) > 1e-9 * h1):
        raise ValueError("r_samples must be grid-aligned")
    if idx[-1] >= grid.counts[0]:
        raise ValueError("geometry reaches outside the grid")

    nt, n1 = len(times), grid.counts[0]
    prof = np.empty((nt, n1))
    lateral = _lateral_weights(grid)
    kinematics = _Operator(scenario).kinematics
    for k, st in enumerate(trajectory.states):
        e, gamma, kappa = kinematics(st)
        P, R = energy_density_parts(e, gamma, kappa, st.phi, st.phidot, st.theta, st.v,
                                    material)
        prof[k] = np.tensordot(lam * P + R, lateral, axes=lateral.ndim)
    weighted = np.exp(lam * times)[:, None] * prof

    suffix = np.zeros((nt, n1))
    cell = 0.5 * h1 * (weighted[:, :-1] + weighted[:, 1:])
    suffix[:, :-1] = np.cumsum(cell[:, ::-1], axis=1)[:, ::-1]

    vol = suffix[:, idx]                       # (nt, nr) volume integrals over B_r
    E = _cumtrapz(times, vol, axis=0).T        # (nr, nt)
    dE_dt = vol.T
    dE_dr = -_cumtrapz(times, weighted[:, idx], axis=0).T

    spec = material_spectrum(material)
    decay = zeta_of_lambda(spec, material, lam)
    I = np.exp(decay.decay_rate * geometry.r_samples)[:, None] * E
    return MeasureSeries(lam=float(lam), decay=decay, geometry=geometry,
                         r=geometry.r_samples.copy(), t=times.copy(),
                         E=E, dE_dr=dE_dr, dE_dt=dE_dt, I=I)


def surface_power(trajectory, r, material, lam):
    """Weighted power through the cross-section at depth r, oriented along
    +x1 (toward the data-free end), one value per sample time."""
    scenario = trajectory.scenario
    grid = scenario.grid
    h1 = grid.spacing[0]
    idx = int(round((scenario.support_x0 + r) / h1))
    if abs(idx * h1 - (scenario.support_x0 + r)) > 1e-9 * h1:
        raise ValueError("plane must be grid-aligned")
    if not 0 <= idx < grid.counts[0]:
        raise ValueError("plane lies outside the grid")
    out = np.empty(len(trajectory.times))
    lateral = _lateral_weights(grid)
    kinematics = _Operator(scenario).kinematics
    for k, st in enumerate(trajectory.states):
        e, gamma, kappa = kinematics(st)
        S, h, _, q = field_response(e, gamma, kappa, st.phi, st.theta, material)
        plane = _normal_power(S, h, q, st, 0, material, sel=(idx,))
        out[k] = math.exp(lam * st.t) * float(np.sum(plane * lateral))
    return out


# ---------------------------------------------------------------------------
# Certificates


@dataclass(eq=False)
class EnergyIdentityReport:
    """Both sides of the weighted energy identity and their gap."""

    lhs: float
    rhs: float
    residual: float
    residual_max: float
    scale: float
    terms: dict

    def __str__(self):
        return (f"energy identity: lhs={self.lhs:.9e} rhs={self.rhs:.9e} "
                f"residual={self.residual:.3e} (max over time {self.residual_max:.3e})")


def check_energy_identity(trajectory, region, material, lam):
    """Evaluate the weighted energy identity over a grid-aligned box.

    ``region`` is a tuple of inclusive (lo, hi) node-index pairs per axis,
    or None for the whole domain.  The residual converges at second order
    under joint refinement of mesh and step.
    """
    scenario = trajectory.scenario
    grid = scenario.grid
    d = grid.dim
    if region is None:
        region = tuple((0, n - 1) for n in grid.counts)
    region = tuple((int(lo), int(hi)) for lo, hi in region)
    for (lo, hi), n in zip(region, grid.counts):
        if not (0 <= lo < hi < n):
            raise ValueError(f"region {region} not inside the grid")
    box = tuple(slice(lo, hi + 1) for lo, hi in region)
    counts = [hi - lo + 1 for lo, hi in region]
    vol_w = trapezoid_weights(counts, grid.spacing)
    face_w = [trapezoid_weights(counts[:axis] + counts[axis + 1:],
                                grid.spacing[:axis] + grid.spacing[axis + 1:])
              for axis in range(d)]

    times = trajectory.times
    mat = material
    nt = len(times)
    interior = np.empty(nt)
    energy = np.empty(nt)
    surf = np.empty(nt)
    work = np.empty(nt)
    kinematics = _Operator(scenario).kinematics
    for k, st in enumerate(trajectory.states):
        e, gamma, kappa = kinematics(st)
        wgt = math.exp(lam * st.t)
        P, R = energy_density_parts(e, gamma, kappa, st.phi, st.phidot, st.theta, st.v, mat)
        interior[k] = wgt * float(np.sum(vol_w * (lam * P + R)[box]))
        energy[k] = wgt * float(np.sum(vol_w * P[box]))

        S, h, _, q = field_response(e, gamma, kappa, st.phi, st.theta, mat)
        total = 0.0
        for axis in range(d):
            for side, sign in (("min", -1.0), ("max", 1.0)):
                ii = region[axis][0] if side == "min" else region[axis][1]
                sel = tuple(slice(lo, hi + 1) if j != axis else ii
                            for j, (lo, hi) in enumerate(region))
                power = _normal_power(S, h, q, st, axis, mat, sel=sel)
                total += sign * float(np.sum(face_w[axis] * power))
        surf[k] = wgt * total

        f = scenario.source("f", st.t)
        ell = scenario.source("ell", st.t)
        rsrc = scenario.source("r", st.t)
        wden = (mat.rho * np.einsum("i...,i...->...", f, st.v)
                + mat.rho * ell * st.phidot - mat.rho * rsrc * st.theta / mat.theta0)
        work[k] = wgt * float(np.sum(vol_w * wden[box]))

    lhs_t = _cumtrapz(times, interior)
    surf_t = _cumtrapz(times, surf)
    work_t = _cumtrapz(times, work)
    rhs_t = energy - surf_t - work_t - energy[0]
    scale = max(float(np.max(np.abs(energy))), float(np.max(np.abs(surf_t))),
                float(np.max(np.abs(work_t))), float(np.max(np.abs(lhs_t))), 1e-30)
    res_t = np.abs(lhs_t - rhs_t) / scale
    terms = {"final_energy": float(energy[-1]), "surface_work": float(surf_t[-1]),
             "source_work": float(work_t[-1]), "initial_energy": float(energy[0])}
    return EnergyIdentityReport(lhs=float(lhs_t[-1]), rhs=float(rhs_t[-1]),
                                residual=float(res_t[-1]), residual_max=float(res_t.max()),
                                scale=scale, terms=terms)


@dataclass(eq=False)
class DiffInequalityReport:
    """Sampled check of E <= -(zeta/lam) dE/dr + (1/lam) dE/dt."""

    violations: list
    n_checked: int
    worst_margin: float
    tol: float
    scale: float

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"differential inequality: {status} over {self.n_checked} samples, "
                f"worst margin {self.worst_margin:.3e} (slack {self.tol:.1e} * {self.scale:.3e})")


def check_diff_inequality(series, tol=None):
    """Check the first-order differential inequality at every (r, t) sample.

    The slack is ``tol`` times the largest magnitude among the three terms
    (discretization slack; the inequality is exact in the continuum).
    """
    decay = series.decay
    tol = TOLERANCES.discrete_rel if tol is None else tol
    lhs = series.E
    term_r = -(decay.zeta / decay.lam) * series.dE_dr
    term_t = series.dE_dt / decay.lam
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(term_r))),
                float(np.max(np.abs(term_t))), 1e-30)
    margin = term_r + term_t + tol * scale - lhs
    bad = np.argwhere(margin < 0.0)
    violations = [(float(series.r[j]), float(series.t[k]), float(margin[j, k]))
                  for j, k in bad[:64]]
    return DiffInequalityReport(violations=violations, n_checked=int(lhs.size),
                                worst_margin=float(margin.min()), tol=tol, scale=scale)


@dataclass(eq=False)
class DecayReport:
    """Decay of the measure along the characteristic through (t0, r0)."""

    t0: float
    r0: float
    rate_bound: float
    slope: float
    violations: list
    chain_violations: list
    n_floored: int
    n_samples: int
    tol: float

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"decay along characteristic: {status}; fitted slope {self.slope:.4g} "
                f"vs bound {-self.rate_bound:.4g} ({self.n_floored} floored samples)")


def check_decay(series, t0, r0, tol=None):
    """Certify the exponential decay estimate along the characteristic
    t(r) = t0 + (r0 - r)/zeta.

    Asserting in log space: ln E(r, t(r)) <= ln E(0, t(0)) - (lam/zeta) r
    + ln(1 + tol).  Samples below the floor are excluded from the slope fit
    and marked trivially satisfied.  Raises
    :class:`~voidtherm.material.InfeasibleWindow` for anchors outside the
    admissible window.
    """
    from .material import InfeasibleWindow, feasibility_window

    decay = series.decay
    tol = TOLERANCES.discrete_rel if tol is None else tol
    floor = TOLERANCES.decay_floor
    L = float(series.r[-1])
    T = float(series.t[-1])
    window = feasibility_window(decay.zeta, L, T, r0=r0)
    if not (window.t0_min - 1e-9 <= t0 <= window.t0_max + 1e-9):
        raise InfeasibleWindow(
            f"t0 = {t0:.6g} outside [{window.t0_min:.6g}, {window.t0_max:.6g}]")

    tchar = t0 + (r0 - series.r) / decay.zeta
    e_char = np.array([np.interp(tchar[j], series.t, series.E[j])
                       for j in range(series.r.size)])
    floored = e_char <= floor
    logs = np.log(np.maximum(e_char, floor))
    bound = logs[0] - decay.decay_rate * series.r + math.log1p(tol)
    bad = np.argwhere(~floored & (logs > bound)).ravel()
    violations = [(float(series.r[j]), float(logs[j] - bound[j])) for j in bad[:64]]

    live = ~floored
    if int(live.sum()) >= 2:
        slope = float(np.polyfit(series.r[live], logs[live], 1)[0])
    else:
        slope = math.nan

    i_char = np.exp(decay.decay_rate * series.r) * e_char
    chain = []
    for j in range(series.r.size - 1):
        if floored[j] or floored[j + 1]:
            continue
        if i_char[j + 1] > i_char[j] * (1.0 + tol):
            chain.append((float(series.r[j + 1]),
                          float(i_char[j + 1] / max(i_char[j], floor) - 1.0)))
    return DecayReport(t0=float(t0), r0=float(r0), rate_bound=decay.decay_rate,
                       slope=slope, violations=violations, chain_violations=chain,
                       n_floored=int(floored.sum()), n_samples=int(series.r.size),
                       tol=tol)


# ---------------------------------------------------------------------------
# Emission


def write_measure_csv(series, path, r_stride=1, t_stride=1):
    """CSV dump with columns r, t, E, dE_dr, dE_dt, I (17 significant
    digits, r-major row order)."""
    with open(path, "w") as fh:
        fh.write("r,t,E,dE_dr,dE_dt,I\n")
        for j in range(0, series.r.size, r_stride):
            for k in range(0, series.t.size, t_stride):
                fh.write(",".join(f"{v:.17g}" for v in (
                    series.r[j], series.t[k], series.E[j, k],
                    series.dE_dr[j, k], series.dE_dt[j, k], series.I[j, k])) + "\n")


def write_summary_json(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
