"""Time-weighted volume measure of a trajectory, its r- and t-derivatives,
the runtime certificates (the energy identity, the first-order
differential inequality, and the spatial decay estimate along
characteristics) and :func:`certify`, the policy that combines them.

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

:func:`admissible_lambdas` is the one rule for the time weight (the anchor's
window, the sampling of e^{lambda t}) that ``certify`` and ``sweep-lambda`` read.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _csvtext, solver
from .constitutive import DECAY_FLOOR, DISCRETE_REL, energy_density, rate_density
from .material import (InfeasibleWindow, NoFeasibleLambda, feasibility_window,
                       spectrum as material_spectrum, zeta_of_lambda)
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
    at least one interior cell; a slab that leaves fewer than two depths is
    rejected.
    """
    grid = scenario.grid
    i0 = _plane_index(grid, scenario.support_x0, "support depth x0")
    idx = np.arange(i0, grid.counts[0] - 1)
    if idx.size < 2:
        raise ValueError(f"support slab x1 <= {scenario.support_x0:.6g} leaves {idx.size} depths r")
    return SupportGeometry(x0=scenario.support_x0,
                           L=grid.extents[0] - scenario.support_x0,
                           r_samples=(idx - i0) * grid.spacing[0])


# ---------------------------------------------------------------------------
# Density


def weighted_energy_density(state, udot, material, lam):
    """Integrand of the measure at a state's nodes: the lambda-weighted
    kinetic, void-kinetic, thermal, and stored parts plus the rate and
    conduction terms (nonnegative for admissible materials); ``udot`` is
    (d, *n) like the state's gamma."""
    d, n = material.dim, state.phi.shape
    g = np.concatenate([state.e.reshape(d * d, -1), state.gamma.reshape(d, -1)])
    w = np.concatenate([np.reshape(udot, (d, -1)), state.phidot.reshape(1, -1)])
    P = energy_density(material, g, state.phi.reshape(-1), w, state.theta.reshape(-1))
    R = rate_density(material, w[d], state.kappa.reshape(d, -1))
    return (lam * P + R).reshape(n)


def _cumtrapz(times, values, out=None):
    """Cumulative trapezoid integral over the sample times along axis 0, into
    ``out`` (new when None), which must not overlap ``values``: ``out[k]``
    becomes the integral from ``times[0]`` to ``times[k]``, each step
    ``(0.5 dt) (v[k+1] + v[k])`` summed in order.  Returns ``out``; numpy
    would copy ``values`` first to add it into itself shifted."""
    out = np.empty(values.shape) if out is None else out
    hdt = 0.5 * np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    np.add(values[1:], values[:-1], out=out[1:])
    out[1:] *= hdt
    np.cumsum(out[1:], axis=0, out=out[1:])
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# The per-sample record


class SampleRecord:
    """The lambda-independent reductions of a trajectory, one entry per
    sample, from which the measure, the energy identity and the surface
    power follow for any time weight lambda (the density is lambda P + R):

    - ``profile_blocks``: the lateral profiles of P, of R and of the power
      through the x1-planes, integrated over every axis but the first: one
      (3, samples, n1) array per sample block;
    - ``box_P``, ``box_R``: the integrals of P and R over the box ``region``,
      a tuple of inclusive (lo, hi) node-index pairs per axis (None: the
      whole grid);
    - ``box_power``: the outward power through the box faces;
    - ``box_work``: the source work over the box.

    A record is a reducer: pass it to ``run(..., reducers=[record])`` to
    fill it while stepping, or replay a snapshot trajectory into it with
    :func:`record_trajectory`; both hand it the same sample blocks, and it
    integrates what their ``energy_parts``, ``normal_power`` and
    ``source_work`` return; a whole-grid ``box_P`` is their ``energy_total``.
    """

    def __init__(self, scenario, region=None):
        grid = scenario.grid
        self.scenario = scenario
        whole = tuple((0, n - 1) for n in grid.counts)
        self.region = tuple((int(lo), int(hi)) for lo, hi in (whole if region is None else region))
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
        self._whole = self.region == whole
        self._lateral = trapezoid_weights(grid.counts[1:], grid.spacing[1:]).reshape(-1)
        self.t, self.profile_blocks = [], []
        self.box_P, self.box_R, self.box_power, self.box_work = [], [], [], []

    def __call__(self, block):
        P, R = block.energy_parts()
        (m, n1), box = P.shape[:2], (slice(None),) + self._box
        self.t.extend(block.times)

        def total(weights, density):   # one sum per sample
            return (weights * density).reshape(m, -1).sum(axis=1)
        plane_power = block.normal_power(0)  # the box faces normal to x1 are slices of it
        profiles = np.empty((3, m, n1))
        # a BLAS call per sample, bits per sample; a lateral weight that is one
        # number (1D) rounds no sum, so there one call takes the whole block
        stack = (1, m * n1) if self._lateral.size == 1 else (m, n1)
        for profile, density in zip(profiles, (P, R, plane_power)):
            np.matmul(density.reshape(stack + (-1,)), self._lateral, out=profile.reshape(stack))
        self.profile_blocks.append(profiles)
        self.box_P.extend(block.energy_total if self._whole else
                          total(self._volume, P[box]).tolist())
        self.box_R.extend(total(self._volume, R[box]).tolist())
        self.box_power.extend(sum(total(w, plane_power[(slice(None),) + sel] if axis == 0 else
                                        block.normal_power(axis, sel))
                                  for axis, sel, w in self._faces).tolist())
        work = block.source_work()
        self.box_work.extend([0.0] * m if work is None else
                             (self.scenario.material.rho * total(self._volume, work[box])).tolist())


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
    and surface integrals, not by differencing E.  The tables start at x0,
    the first depth's column: the suffix sums run from the far end, so no
    column at or beyond x0 reads one inside the data slab.
    """
    grid, material = record.scenario.grid, record.scenario.material
    times = np.asarray(record.t)
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if lam * float(np.max(np.diff(times))) > MAX_LAMBDA_DT:
        raise ValueError("trajectory sampled too coarsely for this time weight")
    h1 = grid.spacing[0]
    idx = _plane_index(grid, geometry.x0 + geometry.r_samples, "r_samples")
    i0, idx = idx[0], idx - idx[0]

    # the weighted profile e^{lam t} (lam P + R) from x0 on, a row per
    # sample, by blocks
    weighted = np.empty((times.size, record.profile_blocks[0].shape[2] - i0))
    ends = np.cumsum([0] + [p.shape[1] for p in record.profile_blocks])
    for p, rows in zip(record.profile_blocks, map(slice, ends[:-1], ends[1:])):  # no view outlives
        np.add(np.multiply(p[0, :, i0:], lam, out=weighted[rows]), p[1, :, i0:],
               out=weighted[rows])
    weighted *= np.exp(lam * times)[:, None]

    # suffix sums of the cell integrals: column j holds the integral over
    # x1 > x1_j, summed from the far end
    cells = np.empty(weighted.shape)
    np.add(weighted[:, :-1], weighted[:, 1:], out=cells[:, :-1])
    cells[:, :-1] *= 0.5 * h1
    cells[:, -1] = 0.0
    np.cumsum(cells[:, -2::-1], axis=1, out=cells[:, -2::-1])

    # at most two work tables: free each once its r columns are read
    vol = cells[:, idx]                        # (nt, nr) volume integrals over B_r
    del cells
    plane = weighted[:, idx]                   # (nt, nr) weighted density on S_r
    del weighted
    # (nr, nt) tables, each row contiguous in t, as check_decay reads them
    E = _cumtrapz(times, vol, np.empty(vol.shape[::-1]).T).T
    dE_dt = vol.T
    dE_dr = _cumtrapz(times, plane, np.empty(plane.shape[::-1]).T).T
    del plane
    np.negative(dE_dr, out=dE_dr)

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
    return np.exp(lam * np.array(record.t)) * np.concatenate(
        [p[2, :, idx] for p in record.profile_blocks])


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


def _absmax(x):
    """Largest magnitude in ``x`` without an ``abs`` copy (exact for finite
    values)."""
    return float(max(x.max(), -x.min()))


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
    scale = max(_absmax(energy), _absmax(surf_t), _absmax(work_t), _absmax(lhs_t), 1e-30)
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


# table entries per row block of the inequality check: its work tables
# stay a fixed size whatever the number of samples
CHECK_BLOCK = 1 << 14


def check_diff_inequality(series, tol=None):
    """Check the first-order differential inequality at every (r, t) sample.

    The slack is ``tol`` times the largest magnitude among the three terms
    (discretization slack; the inequality is exact in the continuum).  The
    terms and the margin are formed a block of about ``CHECK_BLOCK`` entries
    at a time, twice: once for the scale, once for the margin.
    """
    decay = series.decay
    tol = DISCRETE_REL if tol is None else tol
    E, n_t = series.E, series.E.shape[1]
    step = max(1, CHECK_BLOCK // n_t)
    blocks = [slice(j, j + step) for j in range(0, E.shape[0], step)]

    def margin_terms(rows):   # term_r (later the margin) and term_t of a block
        return -(decay.zeta / decay.lam) * series.dE_dr[rows], series.dE_dt[rows] / decay.lam

    # np.max, not max: a nan in any block reaches the scale, as on full tables
    r_max, t_max = np.max([[_absmax(term) for term in margin_terms(rows)] for rows in blocks],
                          axis=0)
    scale = max(_absmax(E), float(r_max), float(t_max), 1e-30)
    violations, minima = [], []
    for rows in blocks:
        margin, term_t = margin_terms(rows)
        margin += term_t
        del term_t
        margin += tol * scale
        margin -= E[rows]
        minima.append(margin.min())
        for j, k in np.argwhere(margin < 0.0)[:64 - len(violations)]:
            violations.append((float(series.r[rows.start + j]), float(series.t[k]),
                               float(margin[j, k])))
    return DiffInequalityReport(violations=violations, n_checked=int(E.size),
                                worst_margin=float(np.min(minima)), tol=tol, scale=scale)


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


def check_window(zeta, L, T, t0, r0):
    """Raise :class:`~voidtherm.material.InfeasibleWindow` unless t0 lies in
    the feasibility window of the anchor (t0, r0), to within 1e-9."""
    t0_min, t0_max = feasibility_window(zeta, L, T, r0)
    if not (t0_min - 1e-9 <= t0 <= t0_max + 1e-9):
        raise InfeasibleWindow(f"t0 = {t0:.6g} outside [{t0_min:.6g}, {t0_max:.6g}]")


def check_decay(series, t0, r0, tol=None):
    """Certify the exponential decay estimate along the characteristic
    t(r) = t0 + (r0 - r)/zeta.

    Asserting in log space: ln E(r, t(r)) <= ln E(0, t(0)) - (lam/zeta) r
    + ln(1 + tol).  Samples below the floor are excluded from the slope fit
    and marked trivially satisfied.  Raises
    :class:`~voidtherm.material.InfeasibleWindow` for anchors outside the
    admissible window.
    """
    decay = series.decay
    tol = DISCRETE_REL if tol is None else tol
    check_window(decay.zeta, float(series.r[-1]), float(series.t[-1]), t0, r0)

    tchar = t0 + (r0 - series.r) / decay.zeta
    e_char = np.array([np.interp(tchar[j], series.t, series.E[j])
                       for j in range(series.r.size)])
    floored = e_char <= DECAY_FLOOR
    logs = np.log(np.maximum(e_char, DECAY_FLOOR))
    bound = logs[0] - decay.decay_rate * series.r + math.log1p(tol)
    bad = np.argwhere(~floored & (logs > bound)).ravel()
    violations = [(float(series.r[j]), float(logs[j] - bound[j])) for j in bad[:64]]

    live = ~floored
    if int(live.sum()) >= 2:
        slope = float(np.polyfit(series.r[live], logs[live], 1)[0])
    else:
        slope = math.nan

    # the weighted measure must not rise between neighbouring live samples
    i_char = np.exp(decay.decay_rate * series.r) * e_char
    rises = live[:-1] & live[1:] & (i_char[1:] > i_char[:-1] * (1.0 + tol))
    chain = [(float(series.r[j + 1]), float(i_char[j + 1] / max(i_char[j], DECAY_FLOOR) - 1.0))
             for j in np.flatnonzero(rises)]
    return DecayReport(t0=float(t0), r0=float(r0), rate_bound=decay.decay_rate,
                       slope=slope, violations=violations, chain_violations=chain,
                       n_floored=int(floored.sum()), n_samples=int(series.r.size),
                       tol=tol)


# ---------------------------------------------------------------------------
# Certification policy

# default time weights; energy-identity tolerance; reference resolution, 400
# cells over a 1.25 bar: coarser grids scale every slack by (h1 / REF_SPACING)^2;
# the largest lambda times the sample spacing that resolves the weight e^{lambda t}
AUTO_LAMBDAS = (2.0, 4.0, 8.0, 16.0, 32.0)
ENERGY_IDENTITY_TOL = 5e-4
REF_SPACING = 1.25 / 400
MAX_LAMBDA_DT = 0.25


def _sample_cap(scenario, lam, floor=801):
    """One sample per 0.05 / lam of time, at least ``floor``, at most 1601."""
    return min(1601, max(floor, math.ceil(scenario.T * lam / 0.05)))


def stream_record(scenario, lam, floor=801):
    """Run ``scenario`` into a streaming :class:`SampleRecord`, sampled for
    time weight ``lam`` (:func:`_sample_cap`).  Returns (record, trajectory)."""
    record = SampleRecord(scenario)
    return record, solver.run(scenario, n_samples=_sample_cap(scenario, lam, floor),
                              reducers=[record])


LambdaRow = namedtuple("LambdaRow", "lam decay anchor reason")


def admissible_lambdas(scenario, lambdas=None, r0=None, t0=None):
    """One ``LambdaRow`` (lam, decay, anchor, reason) per lambda of ``lambdas``
    (default :data:`AUTO_LAMBDAS`), in order, with no run: the anchor (t0, r0)
    if lambda is admissible, else None and the reason.  r0 = min(L, zeta T/2)
    snapped down to the grid (one cell at least) or the given r0; t0 = T -
    r0/zeta or the given t0.  Admissible: the anchor's window over the whole
    length L is feasible, and lambda times the sample spacing of the
    :func:`stream_record` run is at most :data:`MAX_LAMBDA_DT`."""
    lambdas = [float(lam) for lam in (lambdas or AUTO_LAMBDAS)]
    if not all(0.0 < lam < math.inf for lam in lambdas):
        raise ValueError(f"lambda grid must be positive and finite, got {lambdas}")
    spec, T = material_spectrum(scenario.material), scenario.T
    geometry = support_geometry(scenario)
    h1 = scenario.grid.spacing[0]
    rows = []
    for lam in lambdas:
        decay = zeta_of_lambda(spec, scenario.material, lam)
        r0_lam = r0 if r0 is not None else max(
            h1, math.floor(min(geometry.L, 0.5 * decay.zeta * T) / h1 + 1e-9) * h1)
        anchor = (T - r0_lam / decay.zeta if t0 is None else t0), r0_lam
        # the widest gap between the times run records, formed as it forms
        # them, which compute_measure reads; stride * dt can round lower
        dt, nsteps, stride = solver.time_grid(scenario, _sample_cap(scenario, lam))
        spacing = float(np.diff(np.arange(0, nsteps + 1, stride) * dt).max(initial=0.0))
        try:
            check_window(decay.zeta, geometry.L, T, *anchor)
            reason = None if lam * spacing <= MAX_LAMBDA_DT else (
                f"sampled too coarsely: lambda * spacing {lam * spacing!r} > {MAX_LAMBDA_DT}")
        except InfeasibleWindow as exc:
            reason = f"infeasible window: {exc}"
        rows.append(LambdaRow(lam, decay, None if reason else anchor, reason))
    return rows


def certify(scenario, lambdas=None, r0=None, t0=None):
    """Certify one streamed run of ``scenario`` at the lambda of
    :func:`admissible_lambdas` with the largest decay rate, the smallest on
    a tie (none admissible: ``NoFeasibleLambda``, before any run).  It
    passes when the energy-identity residual and the inequality and decay
    violations sit inside the resolution-scaled slacks.  Returns (verdict,
    series): a JSON-ready dict, ``passed`` its outcome, and the
    :class:`MeasureSeries`."""
    spec = material_spectrum(scenario.material)
    geometry = support_geometry(scenario)
    h1 = scenario.grid.spacing[0]
    res_factor = max(1.0, (h1 / REF_SPACING) ** 2)

    rows = admissible_lambdas(scenario, lambdas, r0, t0)
    admissible = [row for row in rows if row.anchor]
    if not admissible:
        raise NoFeasibleLambda("; ".join(
            f"lambda = {row.lam:.6g}: {row.reason}" for row in rows))
    lam, decay, (t0, r0), _ = max(admissible, key=lambda row: (row.decay.decay_rate, -row.lam))

    record, traj = stream_record(scenario, lam)
    series = compute_measure(record, geometry, lam)
    identity = check_energy_identity(record, lam)
    del record
    identity_tol, tol = ENERGY_IDENTITY_TOL * res_factor, DISCRETE_REL * res_factor
    diff_rep = check_diff_inequality(series, tol=tol)
    decay_rep = check_decay(series, t0, r0, tol=tol)

    warnings = list(traj.log["warnings"])
    if res_factor > 1.0:
        warnings.append(
            f"resolution-limited: grid spacing {h1:.6g} above the reference "
            f"{REF_SPACING:.6g}; slacks enlarged by {res_factor:.6g}")
    if tol >= 3.0:
        # the margin is tol * scale plus three terms each at most the scale
        # in magnitude, so it is at least (tol - 3) scale
        warnings.append(f"vacuous inequality check: its tolerance {tol:.6g} is at least 3, "
                        "so no (r, t) sample can violate it")
    verdict = {
        "spectrum": {"mu_m": spec.mu_m, "mu_M": spec.mu_M, "k_m": spec.k_m,
                     "k_M": spec.k_M, "M2": spec.M2},
        "lambda": lam,
        "epsilon": decay.epsilon,
        "zeta": decay.zeta,
        "decay_rate": decay.decay_rate,
        "window": {"t0": t0, "r0": r0, "L": geometry.L, "T": scenario.T},
        "energy_identity": {"residual": identity.residual,
                            "residual_max": identity.residual_max,
                            "tolerance": identity_tol},
        "diff_inequality": {"violations": len(diff_rep.violations),
                            "checked": diff_rep.n_checked,
                            "worst_margin": diff_rep.worst_margin,
                            "tolerance": diff_rep.tol},
        "decay": {"violations": len(decay_rep.violations),
                  "chain_violations": len(decay_rep.chain_violations),
                  "slope": decay_rep.slope,
                  "slope_bound": -decay.decay_rate,
                  "floored_samples": decay_rep.n_floored,
                  "tolerance": decay_rep.tol},
        "resolution_factor": res_factor,
        "warnings": warnings,
        "passed": identity.residual <= identity_tol and diff_rep.ok and decay_rep.ok,
    }
    return verdict, series


# ---------------------------------------------------------------------------
# Emission


def write_measure_csv(series, path, r_stride=1, t_stride=1):
    """CSV dump with columns r, t, E, dE_dr, dE_dt, I (17 significant
    digits, ``%.17g``, r-major row order) at every ``r_stride``-th r and
    ``t_stride``-th t.  The r and t prefixes are formatted once each; the
    table goes through the vectorised ``%.17g`` kernel a block of r at a
    time, about ``SLAB`` values per block and one write each, into a
    temporary file renamed to ``path``, so a failure leaves no partial
    file."""
    r, t = series.r[::r_stride], series.t[::t_stride]
    r_lead, t_lead = _csvtext.lead(r[:, None])[:, None], _csvtext.lead(t[:, None])
    step = max(1, _csvtext.SLAB // (4 * t.size))
    with _csvtext.replace_on_success(path) as fh:
        fh.write("r,t,E,dE_dr,dE_dt,I\n")
        for j in range(0, r.size, step):
            rows = slice(j * r_stride, (j + step) * r_stride, r_stride)
            block = np.stack([a[rows, ::t_stride] for a in
                              (series.E, series.dE_dr, series.dE_dt, series.I)], axis=-1)
            cells = _csvtext.g17_cells(block).reshape(block.shape + (-1,))
            fh.write(_csvtext.csv_text(cells, r_lead[j:j + step], t_lead))


def write_summary_json(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
