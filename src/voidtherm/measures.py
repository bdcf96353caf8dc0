"""Time-weighted volume measure of a trajectory, its r- and t-derivatives,
and the runtime certificates: the energy identity, the first-order
differential inequality, and the spatial decay estimate along
characteristics.

Geometry is restricted to slab supports on rectilinear boxes: the data
slab is x1 <= x0, the body beyond depth r is B_r = {x1 > x0 + r}, and the
separating cross-section S_r is the grid plane at x1 = x0 + r.  All r
samples are grid-aligned so no interpolation error enters the surface
integrals; the inequality margins are the point of the exercise.

The measure density is lambda P + R, so everything the measures need per
sample is lambda-independent: a :class:`SampleRecord` reduces each sample
once, while ``run`` steps (``run(..., reducers=[record])``) or by replaying
snapshots (:func:`record_trajectory`).  The measure, the energy identity and
the surface power take the record alone, for any lambda: the material, the
grid, the box and the sample times are the record's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constitutive import TOLERANCES, stored_energy
from .material import spectrum as material_spectrum, zeta_of_lambda
from .solver import replay, trapezoid_weights


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


def _plane_index(grid, x1, what):
    """Node index along x1 of the grid plane at x1 (a number or an array):
    it must be grid-aligned and inside the grid."""
    h1 = grid.spacing[0]
    idx = np.round(np.asarray(x1) / h1).astype(int)
    if np.any(np.abs(idx * h1 - x1) > 1e-9 * h1):
        raise ValueError(f"{what} must be grid-aligned")
    if np.any((idx < 0) | (idx >= grid.counts[0])):
        raise ValueError(f"{what} lies outside the grid")
    return idx


def support_geometry(scenario):
    """Grid-aligned geometry for a scenario's declared support slab.

    The last sample stops one cell short of the far end so every B_r keeps
    at least one interior cell.
    """
    grid = scenario.grid
    i0 = _plane_index(grid, scenario.support_x0, "support depth x0")
    idx = np.arange(i0, grid.counts[0] - 1)
    return SupportGeometry(x0=scenario.support_x0,
                           L=grid.extents[0] - scenario.support_x0,
                           r_samples=(idx - i0) * grid.spacing[0])


# ---------------------------------------------------------------------------
# Density


def weighted_energy_density(state, udot, material, lam):
    """Integrand of the measure at one point: the lambda-weighted kinetic,
    void-kinetic, thermal, and stored parts plus the rate and conduction
    terms (nonnegative for admissible materials)."""
    m = material
    udot = np.atleast_1d(np.asarray(udot, dtype=float))
    P = (0.5 * (m.rho * udot @ udot + m.rho * m.chi * state.phidot ** 2
                + m.aHeat * state.theta ** 2)
         + stored_energy(state.kinematic(), m))
    R = m.tau * state.phidot ** 2 + state.kappa @ m.K @ state.kappa / m.theta0
    return float(lam * P + R)


def _cumtrapz(times, values, axis=0):
    values = np.moveaxis(values, axis, 0)
    dt = np.diff(times)
    inc = 0.5 * dt.reshape((-1,) + (1,) * (values.ndim - 1)) * (values[1:] + values[:-1])
    out = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(inc, axis=0)])
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# The per-sample record


class SampleRecord:
    """The lambda-independent reductions of a trajectory, one entry per
    sample, from which the measure, the energy identity and the surface
    power follow for any time weight lambda (the density is lambda P + R):

    - ``profiles``: the lateral profiles of P, of R and of the power through
      the x1-planes, integrated over every axis but the first: one (3, n1)
      array per sample;
    - ``box_P``, ``box_R``: the integrals of P and R over the box ``region``,
      a tuple of inclusive (lo, hi) node-index pairs per axis (None: the
      whole grid);
    - ``box_power``: the outward power through the box faces;
    - ``box_work``: the source work over the box.

    A record is a reducer: pass it to ``run(..., reducers=[record])`` to
    fill it while stepping, or replay a snapshot trajectory into it with
    :func:`record_trajectory`; both call it on the same operator level and
    integrate what the operator's ``energy_parts``, ``normal_power`` and
    ``source_work`` return.
    """

    def __init__(self, scenario, region=None):
        grid = scenario.grid
        self.scenario = scenario
        if region is None:
            region = tuple((0, n - 1) for n in grid.counts)
        self.region = tuple((int(lo), int(hi)) for lo, hi in region)
        if len(self.region) != grid.dim or not all(
                0 <= lo < hi < n for (lo, hi), n in zip(self.region, grid.counts)):
            raise ValueError(f"region {self.region} not a box inside the grid")
        self._box = tuple(slice(lo, hi + 1) for lo, hi in self.region)
        counts = [hi - lo + 1 for lo, hi in self.region]
        self._volume = trapezoid_weights(counts, grid.spacing)
        self._faces = []
        for axis, (lo, hi) in enumerate(self.region):
            weights = trapezoid_weights(counts[:axis] + counts[axis + 1:],
                                        grid.spacing[:axis] + grid.spacing[axis + 1:])
            for ii, sign in ((lo, -1.0), (hi, 1.0)):
                sel = self._box[:axis] + (ii,) + self._box[axis + 1:]
                self._faces.append((axis, sel, sign * weights))
        self._lateral = trapezoid_weights(grid.counts[1:], grid.spacing[1:]).reshape(-1)
        self.t, self.profiles = [], []
        self.box_P, self.box_R, self.box_power, self.box_work = [], [], [], []

    def __call__(self, op, t):
        P, R = op.energy_parts()
        box = self._box
        self.t.append(t)
        fields = np.stack([P, R, op.normal_power(0)])
        self.profiles.append(fields.reshape(3, len(P), -1) @ self._lateral)
        self.box_P.append(float(np.sum(self._volume * P[box])))
        self.box_R.append(float(np.sum(self._volume * R[box])))
        self.box_power.append(sum(float(np.sum(w * op.normal_power(axis, sel)))
                                  for axis, sel, w in self._faces))
        work = op.source_work(t)
        self.box_work.append(0.0 if work is None else
                             self.scenario.material.rho * float(np.sum(self._volume * work[box])))


def record_trajectory(trajectory, region=None):
    """Replay the snapshots of a trajectory into a :class:`SampleRecord`."""
    record = SampleRecord(trajectory.scenario, region)
    replay(trajectory, [record])
    return record


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


def compute_measure(record, geometry, lam):
    """Measure series for time weight ``lam`` of a :class:`SampleRecord`.

    Space integrals are cell-midpoint quadrature with nodal averages
    (trapezoid weights), the time integral is the trapezoid rule on the
    sample times.  Derivatives are computed directly from their own volume
    and surface integrals, not by differencing E.
    """
    grid, material = record.scenario.grid, record.scenario.material
    times = np.asarray(record.t)
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if lam * float(np.max(np.diff(times))) > 0.25:
        raise ValueError("trajectory sampled too coarsely for this time weight")
    h1 = grid.spacing[0]
    idx = _plane_index(grid, geometry.x0 + geometry.r_samples, "r_samples")

    prof = np.array([lam * p[0] + p[1] for p in record.profiles])
    weighted = np.exp(lam * times)[:, None] * prof

    suffix = np.zeros(weighted.shape)
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


def surface_power(record, r, lam):
    """Weighted power through the cross-section at depth r, oriented along
    +x1 (toward the data-free end), one value per sample time of a
    :class:`SampleRecord`."""
    scenario = record.scenario
    idx = int(_plane_index(scenario.grid, scenario.support_x0 + r, "plane"))
    return np.exp(lam * np.array(record.t)) * np.array([p[2, idx] for p in record.profiles])


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


def check_energy_identity(record, lam):
    """Evaluate the weighted energy identity over the box of a
    :class:`SampleRecord` (its ``region``).

    The residual converges at second order under joint refinement of mesh
    and step.
    """
    times = np.array(record.t)
    wgt = np.exp(lam * times)
    energy = wgt * np.array(record.box_P)
    lhs_t = _cumtrapz(times, wgt * (lam * np.array(record.box_P) + np.array(record.box_R)))
    surf_t = _cumtrapz(times, wgt * np.array(record.box_power))
    work_t = _cumtrapz(times, wgt * np.array(record.box_work))
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
    digits, r-major row order): one ``%``-string per r, over a block of
    the six columns at the strided times."""
    block = np.empty((series.t[::t_stride].size, 6))
    block[:, 1] = series.t[::t_stride]
    rows = (",".join(["%.17g"] * 6) + "\n") * len(block)
    with open(path, "w") as fh:
        fh.write("r,t,E,dE_dr,dE_dt,I\n")
        for j in range(0, series.r.size, r_stride):
            block[:, 0] = series.r[j]
            for col, a in enumerate((series.E, series.dE_dr, series.dE_dt, series.I), 2):
                block[:, col] = a[j, ::t_stride]
            fh.write(rows % tuple(block.ravel().tolist()))


def write_summary_json(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
