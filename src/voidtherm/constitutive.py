"""The constitutive law, its energy forms, and the inequality checks behind
the decay diagnostics.

The law is coded numerically once, in :func:`field_response` and
:func:`entropy_field`.  These act on arrays with any number of trailing grid
axes.  :func:`response_matrix` reads the packed law off
:func:`field_response` by unit inputs.  A :class:`PointState` carries the
same trailing axes, one state per node and none for a single point; the
pointwise responses are one matmul with the matrix, as the solver's grid
is.  The stored energy W is not written again: it is the quadratic form
z^T H z / 2 of the symmetric part :func:`energy_matrix`, both at states
(:func:`stored_energy`) and on the solver's grid; so are the parts P and R
of the measure density lambda P + R (:func:`energy_density`,
:func:`rate_density`).  Both matrices are cached per material, so the kernel
is probed once per material.  The only other copies are independent
oracles: the assembled quadratic form ``Q`` of
:func:`~voidtherm.material.assemble_quadratic_form` (behind
:func:`bilinear_form`, also cached) and the symbolic law of
:mod:`voidtherm.mms`.

Inequality checks return (lhs, rhs) arrays over the nodes instead of
booleans; the slacks are the constants below, and :func:`dominated` is the
one test of a proved inequality with round-off slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .material import assemble_quadratic_form, spectrum as material_spectrum, symmetric_basis


class NonPositiveEpsilon(ValueError):
    """Free parameter of the stress bound must be strictly positive."""


# relative slacks: proved inequalities get round-off slack only, checks of
# the discretized PDE a resolution-dependent one; below the floor a measure
# value counts as zero
PROVED_REL = 1e-10
DISCRETE_REL = 5e-3
DECAY_FLOOR = 1e-300


def dominated(lhs, rhs):
    """lhs <= rhs up to the round-off slack of a proved inequality."""
    return lhs <= rhs * (1.0 + PROVED_REL) + PROVED_REL


# ---------------------------------------------------------------------------
# Pointwise states, in the shape convention of the numeric kernel below


def _dot(a, b):
    """Contraction over the leading axis; the node axes broadcast."""
    return np.einsum("i...,i...->...", a, b)


def _apply(A, x):
    """The matrix A on the leading axis of x; x's node axes ride along
    (reversed, they are matmul's stack axes)."""
    return (x.T @ A.T).T


@dataclass(frozen=True, eq=False)
class PointState:
    """Strain e (d, d, *n), void gradient gamma (d, *n), temperature
    gradient kappa (d, *n) and the scalars phi, phidot, theta (*n) at the
    nodes n.  A number given for kappa or a scalar is taken at every node;
    any other shape must be exactly these.  An element of the energy space
    (e, gamma, phi) is a state whose kappa, phidot and theta are zero."""

    e: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        d, n = gamma.shape[0], gamma.shape[1:]
        for name, shape in (("e", (d, d) + n), ("gamma", gamma.shape), ("kappa", gamma.shape),
                            ("phi", n), ("phidot", n), ("theta", n)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape and (value.ndim or name == "e"):
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            # [()] gives a single point numpy scalars: 0-d arrays cost more per operation
            object.__setattr__(self, name, np.broadcast_to(value, shape)[()])

    def scaled_coords(self, material):
        """Coordinates z with z^T Q z = twice the stored energy, in the basis
        (and the sqrt(chi) scaling of gamma) that ``Q`` is assembled in."""
        return np.concatenate([np.einsum("aij,ij...->a...", symmetric_basis(material.dim), self.e),
                               math.sqrt(material.chi) * self.gamma, self.phi[None]])

    @classmethod
    def zero(cls, dim):
        return cls(e=np.zeros((dim, dim)), gamma=np.zeros(dim), kappa=0.0,
                   phi=0.0, phidot=0.0, theta=0.0)


@dataclass(frozen=True, eq=False)
class ResponseState:
    """Full response at a state's nodes: stress, equilibrated stress vector,
    intrinsic force (with and without the rate term), entropy, heat flux."""

    S: np.ndarray
    h: np.ndarray
    g: np.ndarray
    G: np.ndarray
    rhoEta: np.ndarray
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
# Pointwise maps and forms, on a state's trailing node axes


def _inputs(state):
    """The inputs z = (e row-major, gamma, phi, theta) of
    :func:`response_matrix`; z[:-1] are those of :func:`energy_matrix`."""
    n = state.phi.shape
    return np.concatenate([state.e.reshape((-1,) + n), state.gamma, [state.phi, state.theta]])


def _packed_response(state, material):
    """S, h and G (rate term excluded) at a state's nodes, one matmul with
    the packed law :func:`response_matrix`."""
    d = material.dim
    r = _apply(response_matrix(material), _inputs(state))
    flux = r[:-1].reshape((d, d + 1) + r.shape[1:])
    return flux[:, :d].swapaxes(0, 1), flux[:, d], r[-1]


def bilinear_form(a, b, material):
    """Symmetric bilinear form of two states' (e, gamma, phi) whose diagonal
    is the stored energy, from the assembled quadratic form."""
    zb = _apply(assemble_quadratic_form(material), b.scaled_coords(material))
    return 0.5 * _dot(a.scaled_coords(material), zb)


def stored_energy(state, material):
    """Stored energy of a state's (e, gamma, phi), z^T H z / 2 with H the
    :func:`energy_matrix` and z = (e row-major, gamma, phi)."""
    z = _inputs(state)[:-1]
    return 0.5 * _dot(z, _apply(energy_matrix(material), z))


def energy_density(material, g, phi, w, theta):
    """The energy density P = (rho |v|^2 + rho chi phidot^2 + aHeat theta^2
    + z^T H z) / 2 at n nodes: ``g`` (d (d + 1), n) the derivatives of
    (u, phi) in (field, axis) order, ``phi`` and ``theta`` (n,), ``w``
    (d + 1, n) the velocities (v, phidot); z = (g, phi); leading axes stack."""
    d, H = material.dim, energy_matrix(material)
    # H is symmetric, so z^T H z = g^T H_gg g + (2 H_phi,g g + H_phi,phi phi) phi
    Hg = H[:-1, :-1] @ g
    return 0.5 * (material.rho * np.einsum("...kn,...kn->...n", w[..., :d, :], w[..., :d, :])
                  + material.rho * material.chi * w[..., d, :] ** 2 + material.aHeat * theta ** 2
                  + np.einsum("...kn,...kn->...n", g, Hg)
                  + (2.0 * (H[-1, :-1] @ g) + H[-1, -1] * phi) * phi)


def rate_density(material, phidot, kappa):
    """The rate and conduction density R = tau phidot^2 + K kappa . kappa /
    theta0 at n nodes: ``phidot`` (n,), ``kappa`` (d, n); leading axes stack."""
    return (material.tau * phidot ** 2
            + np.einsum("...kn,...kn->...n", kappa, material.K @ kappa) / material.theta0)


def response(state, material):
    """Full response at a state's nodes, anti-dissipative rate sign (the
    sign the time-reflected forward problem carries)."""
    S, h, G = _packed_response(state, material)
    rhoEta = entropy_field(state.e, state.gamma, state.phi, state.theta, material)
    return ResponseState(S=S, h=h, g=material.tau * state.phidot + G, G=G, rhoEta=rhoEta,
                         q=_apply(material.K, state.kappa))


# ---------------------------------------------------------------------------
# Inequality checks: (lhs, rhs) arrays over a state's nodes


def check_flux_bound(kappa, material):
    """Schwarz bound on the heat flux: |q|^2 <= k_M * K kappa . kappa."""
    spec = material_spectrum(material, require="energy")
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    q = _apply(material.K, kappa)
    return _dot(q, q), spec.k_M * _dot(kappa, q)


def check_stress_bound(state, material, epsilon_free):
    """Bound on S:S + h.h/chi by the stored energy plus a temperature term.

    ``epsilon_free``, one number or one per node, is the free parameter of
    the two-tensor splitting inequality; any positive value gives a valid
    bound.
    """
    if np.any(np.asarray(epsilon_free) <= 0.0):
        raise NonPositiveEpsilon(f"epsilon_free must be > 0, got {epsilon_free}")
    spec = material_spectrum(material, require="energy")
    S, h, _ = _packed_response(state, material)
    lhs = np.sum(S ** 2, axis=(0, 1)) + _dot(h, h) / material.chi
    rhs = ((1.0 + epsilon_free) * 2.0 * spec.mu_M * stored_energy(state, material)
           + (1.0 + 1.0 / epsilon_free) * spec.M2 * state.theta ** 2)
    return lhs, rhs


def check_surface_power_bound(state, udot, normal, material, decay, lam):
    """Pointwise bound of the surface power by the weighted energy density.

    lhs is the absolute surface power through a plane with unit normal
    ``normal`` (d,) or (d, *n); rhs is the arithmetic-geometric splitting
    evaluated with the balanced constants from
    :func:`~voidtherm.material.zeta_of_lambda`.  This is the pointwise
    engine behind the differential inequality.
    """
    spec = material_spectrum(material, require="energy")
    udot, normal = np.asarray(udot, dtype=float), np.asarray(normal, dtype=float)
    S, h, _ = _packed_response(state, material)
    q = _apply(material.K, state.kappa)
    lhs = np.abs(_dot(np.einsum("ij...,j...->i...", S, normal), udot)
                 + _dot(h, normal) * state.phidot
                 - state.theta * _dot(q, normal) / material.theta0)

    rho, chi, a, th0, tau = (material.rho, material.chi, material.aHeat,
                             material.theta0, material.tau)
    eps, e1, e2 = decay.epsilon, decay.eps1, decay.eps2
    wstar = stored_energy(state, material)
    kin = (1.0 / (lam * e1)) * (0.5 * lam * (rho * _dot(udot, udot) + rho * chi * state.phidot ** 2)
                                + tau * state.phidot ** 2)
    elastic = (e1 * (1.0 + eps) * spec.mu_M / (lam * rho)) * (lam * wstar)
    if spec.M2 != 0.0 and eps <= 0.0:
        raise NonPositiveEpsilon("decay epsilon must be positive when M2 > 0")
    m2_coeff = 0.0 if spec.M2 == 0.0 else e1 * spec.M2 * (1.0 + 1.0 / eps) / (lam * rho * a)
    thermal = (m2_coeff + 1.0 / (lam * th0 * e2)) * (0.5 * lam * a * state.theta ** 2)
    # k_M = 0 gives eps2 = inf and K = 0: the conduction term is 0, not inf * 0
    flux = 0.0 if spec.k_M == 0.0 else (e2 * spec.k_M / (2.0 * a)) * (_dot(state.kappa, q) / th0)
    return lhs, kin + elastic + thermal + flux


# ---------------------------------------------------------------------------
# Random sampling for the property suites (seeds always explicit)


def random_point_state(material, rng, n):
    """n standard normal states on one trailing axis, e symmetrised."""
    d = material.dim
    e = rng.normal(size=(d, d, n))
    return PointState(e=0.5 * (e + e.swapaxes(0, 1)), gamma=rng.normal(size=(d, n)),
                      kappa=rng.normal(size=(d, n)), phi=rng.normal(size=n),
                      phidot=rng.normal(size=n), theta=rng.normal(size=n))


def random_unit_vector(dim, rng, n):
    """n unit vectors (dim, n) uniform on the sphere."""
    v = rng.normal(size=(dim, n))
    return v / np.linalg.norm(v, axis=0)
