"""The constitutive law, its energy forms, and the inequality checks behind
the decay diagnostics.

The law is coded numerically once, in :func:`field_response` and
:func:`entropy_field`.  These act on arrays with any number of trailing grid
axes.  :func:`response_matrix` reads the packed law off
:func:`field_response` by unit inputs; the pointwise responses are one
matvec with it, as the solver's grid is.  The stored energy W is not
written again: it is the quadratic form z^T H z / 2 of the symmetric part
:func:`energy_matrix`, both at a point (:func:`stored_energy`) and on the
solver's grid; so are the parts P and R
of the measure density lambda P + R (:func:`energy_density`,
:func:`rate_density`).  Both matrices are cached per material, so the kernel
is probed once per material.  The only other copies are independent
oracles: the assembled quadratic form ``Q`` of
:func:`~voidtherm.material.assemble_quadratic_form` (behind
:func:`bilinear_form`, also cached) and the symbolic law of
:mod:`voidtherm.mms`.

Inequality checks return (lhs, rhs) pairs instead of booleans; tolerance
handling lives in :class:`TolerancePolicy` so that floating-point slack is
decided in exactly one place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .material import assemble_quadratic_form, spectrum as material_spectrum, symmetric_basis


class NonPositiveEpsilon(ValueError):
    """Free parameter of the stress bound must be strictly positive."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative slacks: proved inequalities get round-off slack only,
    discretized-PDE checks get resolution-dependent slack."""

    proved_rel: float = 1e-10
    discrete_rel: float = 5e-3
    decay_floor: float = 1e-300

    def dominated(self, lhs, rhs):
        rel = self.proved_rel
        return lhs <= rhs * (1.0 + rel) + rel


TOLERANCES = TolerancePolicy()


# ---------------------------------------------------------------------------
# Field triples


@dataclass(frozen=True, eq=False)
class KinematicVector:
    """Element of the energy space: symmetric tensor, vector, scalar."""

    E: np.ndarray
    pi: np.ndarray
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "E", np.asarray(self.E, dtype=float))
        object.__setattr__(self, "pi", np.atleast_1d(np.asarray(self.pi, dtype=float)))
        object.__setattr__(self, "psi", float(self.psi))
        d = self.pi.shape[0]
        if self.E.shape == () and d == 1:
            object.__setattr__(self, "E", self.E.reshape(1, 1))
        if self.E.shape != (d, d):
            raise ValueError(f"E has shape {self.E.shape}, expected ({d}, {d})")

    def scaled_coords(self, material):
        """Coordinate vector z with z^T Q z = twice the stored energy, in the
        basis (and the sqrt(chi) scaling of pi) that ``Q`` is assembled in."""
        return np.concatenate([np.einsum("aij,ij->a", symmetric_basis(material.dim), self.E),
                               math.sqrt(material.chi) * self.pi, [self.psi]])

    @classmethod
    def zero(cls, dim):
        return cls(E=np.zeros((dim, dim)), pi=np.zeros(dim), psi=0.0)


@dataclass(frozen=True, eq=False)
class GeneralizedStress:
    """Image of a kinematic vector under the constitutive map."""

    Shat: np.ndarray
    hhat: np.ndarray
    Ghat: float


@dataclass(frozen=True, eq=False)
class PointState:
    """Strain, void gradient, temperature gradient, and the local scalars
    at one point."""

    e: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    phi: float
    phidot: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        object.__setattr__(self, "kappa", np.atleast_1d(np.asarray(self.kappa, dtype=float)))
        d = self.gamma.shape[0]
        e = np.asarray(self.e, dtype=float)
        if e.shape == () and d == 1:
            e = e.reshape(1, 1)
        object.__setattr__(self, "e", e)
        for name in ("phi", "phidot", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def kinematic(self):
        return KinematicVector(E=self.e, pi=self.gamma, psi=self.phi)

    @classmethod
    def zero(cls, dim):
        return cls(e=np.zeros((dim, dim)), gamma=np.zeros(dim), kappa=np.zeros(dim),
                   phi=0.0, phidot=0.0, theta=0.0)


@dataclass(frozen=True, eq=False)
class ResponseState:
    """Full response at one point: stress, equilibrated stress vector,
    intrinsic force (with and without the rate term), entropy, heat flux."""

    S: np.ndarray
    h: np.ndarray
    g: float
    G: float
    rhoEta: float
    q: np.ndarray


# ---------------------------------------------------------------------------
# The numeric kernel: every field argument carries its tensor axes first and
# any number of trailing grid axes (none for a single point).


def field_response(e, gamma, kappa, phi, theta, material):
    """Stress S, equilibrated stress h, intrinsic force G (rate term
    excluded) and heat flux q; ``kappa=None`` skips the heat flux."""
    S = (np.einsum("ijrs,rs...->ij...", material.C, e)
         + np.einsum("ijs,s...->ij...", material.D, gamma)
         + np.multiply.outer(material.B, phi)
         - np.multiply.outer(material.M, theta))
    h = (np.einsum("rsi,rs...->i...", material.D, e)
         + np.einsum("ij,j...->i...", material.A, gamma)
         + np.multiply.outer(material.b, phi)
         - np.multiply.outer(material.aVec, theta))
    G = (-np.einsum("ij,ij...->...", material.B, e)
         - np.einsum("i,i...->...", material.b, gamma)
         - material.xi * phi + material.m * theta)
    q = None if kappa is None else np.einsum("ij,j...->i...", material.K, kappa)
    return S, h, G, q


def entropy_field(e, gamma, phi, theta, material):
    """Entropy rho*eta = M:e + aVec.gamma + m*phi + aHeat*theta; being
    linear, the same map takes the rates to the entropy rate."""
    return (np.einsum("ij,ij...->...", material.M, e)
            + np.einsum("i,i...->...", material.aVec, gamma)
            + material.m * phi + material.aHeat * theta)


@functools.lru_cache
def response_matrix(material):
    """The constitutive law on stacked differences, one matrix per material:
    column k is the kernel's response to the k-th unit input, so the matrix
    holds the packed (Voigt) coefficients and the law stays written once.
    Rows: per axis j the normal fluxes (S[:, j], h[j]), then the intrinsic
    force G (rate term excluded).  Columns: the derivatives d_s of
    (u_0, ..., u_{d-1}, phi) in row-major (field, axis) order, then phi and
    theta.

    Cached per material (a :class:`~voidtherm.material.Material` is frozen
    and hashed by identity; it is not changed in place), so the kernel is
    probed once per material; the matrix is read-only."""
    d = material.dim
    z = np.eye((d + 1) * d + 2)
    du = z[:d * d].reshape((d, d, -1))
    S, h, G, _ = field_response(0.5 * (du + du.swapaxes(0, 1)), z[d * d:d * (d + 1)], None,
                                z[-2], z[-1], material)
    flux = np.concatenate([S.swapaxes(0, 1), h[:, None]], axis=1)
    R = np.vstack([flux.reshape(d * (d + 1), -1), G])
    R.flags.writeable = False
    return R


@functools.lru_cache
def energy_matrix(material):
    """H with 2W = z^T H z for z = (the derivatives of (u, phi) in
    (field, axis) order, phi): the rows of :func:`response_matrix` that are
    the derivatives of W, re-ordered from (axis, field) to (field, axis),
    and -G; the column of theta is dropped.  H is symmetric, the Hessian of
    W.  Cached per material like :func:`response_matrix`; read-only."""
    d, R = material.dim, response_matrix(material)
    rows = [s * (d + 1) + r for r in range(d + 1) for s in range(d)]
    H = np.vstack([R[rows], -R[-1:]])[:, :-1]
    H.flags.writeable = False
    return H


# ---------------------------------------------------------------------------
# Pointwise maps and forms


def _packed_response(e, gamma, phi, theta, material):
    """S, h and G (rate term excluded) at one point, as one matvec with the
    packed law :func:`response_matrix`; its inputs z = (e row-major, gamma,
    phi, theta) are returned too: z[:-1] are those of :func:`energy_matrix`."""
    d = material.dim
    z = np.concatenate([np.ravel(e), gamma, (phi, theta)])
    r = response_matrix(material) @ z
    flux = r[:-1].reshape(d, d + 1)
    return flux[:, :d].T, flux[:, d], float(r[-1]), z


def generalized_response(E, material):
    """Constitutive image of a kinematic vector (no thermal terms)."""
    Shat, hhat, Ghat, _ = _packed_response(E.E, E.pi, E.psi, 0.0, material)
    return GeneralizedStress(Shat=Shat, hhat=hhat, Ghat=Ghat)


def bilinear_form(Ea, Eb, material):
    """Symmetric bilinear form whose diagonal is the stored energy, from the
    assembled quadratic form."""
    za, zb = Ea.scaled_coords(material), Eb.scaled_coords(material)
    return 0.5 * float(za @ assemble_quadratic_form(material) @ zb)


def stored_energy(E, material):
    """Stored energy of a kinematic vector, z^T H z / 2 with H the
    :func:`energy_matrix` and z = (E, pi, psi) (E flattened row-major)."""
    return _stored_energy(np.concatenate([E.E.ravel(), E.pi, [E.psi]]), material)


def _stored_energy(z, material):
    return 0.5 * float(z @ energy_matrix(material) @ z)


def energy_density(material, g, phi, w, theta):
    """The energy density P = (rho |v|^2 + rho chi phidot^2 + aHeat theta^2
    + z^T H z) / 2 at n nodes: ``g`` (d (d + 1), n) the derivatives of
    (u, phi) in (field, axis) order, ``phi`` and ``theta`` (n,), ``w``
    (d + 1, n) the velocities (v, phidot); z = (g, phi)."""
    d, H = material.dim, energy_matrix(material)
    # H is symmetric, so z^T H z = g^T H_gg g + (2 H_phi,g g + H_phi,phi phi) phi
    Hg = H[:-1, :-1] @ g
    return 0.5 * (material.rho * np.einsum("kn,kn->n", w[:d], w[:d])
                  + material.rho * material.chi * w[d] ** 2 + material.aHeat * theta ** 2
                  + np.einsum("kn,kn->n", g, Hg)
                  + (2.0 * (H[-1, :-1] @ g) + H[-1, -1] * phi) * phi)


def rate_density(material, phidot, kappa):
    """The rate and conduction density R = tau phidot^2 + K kappa . kappa /
    theta0 at n nodes: ``phidot`` (n,), ``kappa`` (d, n)."""
    return (material.tau * phidot ** 2
            + np.einsum("kn,kn->n", kappa, material.K @ kappa) / material.theta0)


def response(state, material):
    """Full pointwise response, anti-dissipative rate sign (the sign the
    time-reflected forward problem carries)."""
    S, h, G, _ = _packed_response(state.e, state.gamma, state.phi, state.theta, material)
    rhoEta = float(entropy_field(state.e, state.gamma, state.phi, state.theta, material))
    return ResponseState(S=S, h=h, g=material.tau * state.phidot + G, G=G,
                         rhoEta=rhoEta, q=material.K @ state.kappa)


# ---------------------------------------------------------------------------
# Inequality checks (lhs, rhs) pairs


def check_flux_bound(kappa, material, spec=None):
    """Schwarz bound on the heat flux: |q|^2 <= k_M * K kappa . kappa."""
    if spec is None:
        spec = material_spectrum(material, require="energy")
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    q = material.K @ kappa
    lhs = float(q @ q)
    rhs = float(spec.k_M * (kappa @ material.K @ kappa))
    return lhs, rhs


def check_stress_bound(state, material, epsilon_free, spec=None):
    """Bound on S:S + h.h/chi by the stored energy plus a temperature term.

    ``epsilon_free`` is the free parameter of the two-tensor splitting
    inequality; any positive value gives a valid bound.
    """
    if epsilon_free <= 0.0:
        raise NonPositiveEpsilon(f"epsilon_free must be > 0, got {epsilon_free}")
    if spec is None:
        spec = material_spectrum(material, require="energy")
    S, h, _, z = _packed_response(state.e, state.gamma, state.phi, state.theta, material)
    lhs = float(np.sum(S ** 2) + h @ h / material.chi)
    wstar = _stored_energy(z[:-1], material)
    rhs = ((1.0 + epsilon_free) * 2.0 * spec.mu_M * wstar
           + (1.0 + 1.0 / epsilon_free) * spec.M2 * state.theta ** 2)
    return lhs, float(rhs)


def check_surface_power_bound(state, udot, normal, material, decay, lam, spec=None):
    """Pointwise bound of the surface power by the weighted energy density.

    lhs is the absolute surface power through a plane with unit normal
    ``normal``; rhs is the arithmetic-geometric splitting evaluated with the
    balanced constants from :func:`~voidtherm.material.zeta_of_lambda`.
    This is the pointwise engine behind the differential inequality.
    """
    if spec is None:
        spec = material_spectrum(material, require="energy")
    udot = np.atleast_1d(np.asarray(udot, dtype=float))
    normal = np.atleast_1d(np.asarray(normal, dtype=float))
    S, h, _, z = _packed_response(state.e, state.gamma, state.phi, state.theta, material)
    q = material.K @ state.kappa
    lhs = abs(float((S @ normal) @ udot + (h @ normal) * state.phidot
                    - state.theta * (q @ normal) / material.theta0))

    rho, chi, a, th0, tau = (material.rho, material.chi, material.aHeat,
                             material.theta0, material.tau)
    eps, e1, e2 = decay.epsilon, decay.eps1, decay.eps2
    wstar = _stored_energy(z[:-1], material)
    kin = (1.0 / (lam * e1)) * (0.5 * lam * (rho * udot @ udot + rho * chi * state.phidot ** 2)
                                + tau * state.phidot ** 2)
    elastic = (e1 * (1.0 + eps) * spec.mu_M / (lam * rho)) * (lam * wstar)
    if spec.M2 == 0.0:
        m2_coeff = 0.0
    else:
        if eps <= 0.0:
            raise NonPositiveEpsilon("decay epsilon must be positive when M2 > 0")
        m2_coeff = e1 * spec.M2 * (1.0 + 1.0 / eps) / (lam * rho * a)
    thermal = (m2_coeff + 1.0 / (lam * th0 * e2)) * (0.5 * lam * a * state.theta ** 2)
    # k_M = 0 gives eps2 = inf and K = 0: the conduction term is 0, not inf * 0
    flux = 0.0 if spec.k_M == 0.0 else (e2 * spec.k_M / (2.0 * a)) * (
        (state.kappa @ material.K @ state.kappa) / th0)
    return lhs, float(kin + elastic + thermal + flux)


# ---------------------------------------------------------------------------
# Random sampling for the property suites (seeds always explicit)


def random_kinematic(material, rng):
    d = material.dim
    E = rng.normal(size=(d, d))
    E = 0.5 * (E + E.T)
    return KinematicVector(E=E, pi=rng.normal(size=d), psi=float(rng.normal()))


def random_point_state(material, rng):
    d = material.dim
    e = rng.normal(size=(d, d))
    e = 0.5 * (e + e.T)
    return PointState(e=e, gamma=rng.normal(size=d), kappa=rng.normal(size=d),
                      phi=float(rng.normal()), phidot=float(rng.normal()),
                      theta=float(rng.normal()))


def random_unit_vector(dim, rng):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)
