"""The constitutive law, its energy forms, and the inequality checks behind
the decay diagnostics.

The law is coded numerically once, in :func:`field_response`,
:func:`stored_energy_field`, :func:`entropy_field` and
:func:`energy_density_parts`.  These act on arrays with any number of
trailing grid axes; the pointwise maps call them with none.  The only other
copies are independent oracles: the assembled quadratic form ``Q`` of
:func:`~voidtherm.material.assemble_quadratic_form` (behind
:func:`bilinear_form`) and the symbolic law of :mod:`voidtherm.mms`.

Inequality checks return (lhs, rhs) pairs instead of booleans; tolerance
handling lives in :class:`TolerancePolicy` so that floating-point slack is
decided in exactly one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .material import assemble_quadratic_form, spectrum as material_spectrum


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
    """Element of the energy space: symmetric tensor, vector, scalar.

    ``chi1`` carries the sqrt of the equilibrated inertia so that
    ``norm2`` matches the scaled coordinates of the quadratic form.
    """

    E: np.ndarray
    pi: np.ndarray
    psi: float
    chi1: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "E", np.asarray(self.E, dtype=float))
        object.__setattr__(self, "pi", np.atleast_1d(np.asarray(self.pi, dtype=float)))
        object.__setattr__(self, "psi", float(self.psi))
        object.__setattr__(self, "chi1", float(self.chi1))
        d = self.pi.shape[0]
        if self.E.shape == () and d == 1:
            object.__setattr__(self, "E", self.E.reshape(1, 1))
        if self.E.shape != (d, d):
            raise ValueError(f"E has shape {self.E.shape}, expected ({d}, {d})")

    @property
    def dim(self):
        return self.pi.shape[0]

    def norm2(self):
        """Squared scaled norm: E:E + chi*pi.pi + psi^2."""
        return float(np.sum(self.E ** 2) + self.chi1 ** 2 * self.pi @ self.pi + self.psi ** 2)

    def scaled_coords(self):
        """Coordinate vector z with z^T Q z = twice the stored energy."""
        from .material import voigt_pairs
        pairs = voigt_pairs(self.dim)
        z = np.empty(len(pairs) + self.dim + 1)
        for a, (i, j) in enumerate(pairs):
            z[a] = self.E[i, i] if i == j else math.sqrt(2.0) * self.E[i, j]
        z[len(pairs):len(pairs) + self.dim] = self.chi1 * self.pi
        z[-1] = self.psi
        return z

    @classmethod
    def zero(cls, dim, chi=1.0):
        return cls(E=np.zeros((dim, dim)), pi=np.zeros(dim), psi=0.0, chi1=math.sqrt(chi))


@dataclass(frozen=True, eq=False)
class GeneralizedStress:
    """Image of a kinematic vector under the constitutive map."""

    Shat: np.ndarray
    hhat: np.ndarray
    Ghat: float

    def as_kinematic(self, chi):
        """Repackage as an element of the energy space again."""
        return KinematicVector(E=self.Shat, pi=self.hhat / chi, psi=-self.Ghat,
                               chi1=math.sqrt(chi))


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

    @property
    def dim(self):
        return self.gamma.shape[0]

    def kinematic(self, chi=1.0):
        return KinematicVector(E=self.e, pi=self.gamma, psi=self.phi, chi1=math.sqrt(chi))

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


def stored_energy_field(e, gamma, phi, material):
    """Stored energy density W(e, gamma, phi)."""
    return 0.5 * (np.einsum("ijrs,ij...,rs...->...", material.C, e, e)
                  + material.xi * phi ** 2
                  + np.einsum("ij,i...,j...->...", material.A, gamma, gamma)
                  + 2.0 * np.einsum("ij,ij...->...", material.B, e) * phi
                  + 2.0 * np.einsum("ijs,ij...,s...->...", material.D, e, gamma)
                  + 2.0 * np.einsum("i,i...->...", material.b, gamma) * phi)


def entropy_field(e, gamma, phi, theta, material):
    """Entropy rho*eta = M:e + aVec.gamma + m*phi + aHeat*theta; being
    linear, the same map takes the rates to the entropy rate."""
    return (np.einsum("ij,ij...->...", material.M, e)
            + np.einsum("i,i...->...", material.aVec, gamma)
            + material.m * phi + material.aHeat * theta)


def energy_density_parts(e, gamma, kappa, phi, phidot, theta, v, material):
    """The lambda-independent parts (P, R) of the measure density
    lambda*P + R: P is the kinetic, void-kinetic, thermal and stored
    energy, R the rate and conduction terms."""
    v2 = np.einsum("i...,i...->...", v, v)
    kq = np.einsum("i...,ij,j...->...", kappa, material.K, kappa)
    P = 0.5 * (material.rho * v2 + material.rho * material.chi * phidot ** 2
               + material.aHeat * theta ** 2
               + 2.0 * stored_energy_field(e, gamma, phi, material))
    return P, material.tau * phidot ** 2 + kq / material.theta0


# ---------------------------------------------------------------------------
# Pointwise maps and forms


def generalized_response(E, material):
    """Constitutive image of a kinematic vector (no thermal terms)."""
    Shat, hhat, Ghat, _ = field_response(E.E, E.pi, None, E.psi, 0.0, material)
    return GeneralizedStress(Shat=Shat, hhat=hhat, Ghat=float(Ghat))


def bilinear_form(Ea, Eb, material):
    """Symmetric bilinear form whose diagonal is the stored energy, from the
    assembled quadratic form (in the material's own chi scaling)."""
    za, zb = (replace(E, chi1=math.sqrt(material.chi)).scaled_coords() for E in (Ea, Eb))
    return 0.5 * float(za @ assemble_quadratic_form(material) @ zb)


def stored_energy(E, material):
    """Stored energy of a kinematic vector."""
    return float(stored_energy_field(E.E, E.pi, E.psi, material))


def response(state, material):
    """Full pointwise response, anti-dissipative rate sign (the sign the
    time-reflected forward problem carries)."""
    S, h, G, q = field_response(state.e, state.gamma, state.kappa, state.phi,
                                state.theta, material)
    G = float(G)
    rhoEta = float(entropy_field(state.e, state.gamma, state.phi, state.theta, material))
    return ResponseState(S=S, h=h, g=material.tau * state.phidot + G, G=G,
                         rhoEta=rhoEta, q=q)


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
    r = response(state, material)
    lhs = float(np.sum(r.S ** 2) + r.h @ r.h / material.chi)
    wstar = stored_energy(state.kinematic(material.chi), material)
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
    r = response(state, material)
    traction = r.S @ normal
    lhs = abs(float(traction @ udot + (r.h @ normal) * state.phidot
                    - state.theta * (r.q @ normal) / material.theta0))

    rho, chi, a, th0, tau = (material.rho, material.chi, material.aHeat,
                             material.theta0, material.tau)
    eps, e1, e2 = decay.epsilon, decay.eps1, decay.eps2
    wstar = stored_energy(state.kinematic(chi), material)
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
    flux = (e2 * spec.k_M / (2.0 * a)) * ((state.kappa @ material.K @ state.kappa) / th0)
    return lhs, float(kin + elastic + thermal + flux)


# ---------------------------------------------------------------------------
# Random sampling for the property suites (seeds always explicit)


def random_kinematic(material, rng):
    d = material.dim
    E = rng.normal(size=(d, d))
    E = 0.5 * (E + E.T)
    return KinematicVector(E=E, pi=rng.normal(size=d), psi=float(rng.normal()),
                           chi1=math.sqrt(material.chi))


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
