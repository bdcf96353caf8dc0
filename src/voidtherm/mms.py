"""Manufactured solutions: pick analytic fields, derive the volumetric
sources symbolically so the fields satisfy the coupled system exactly, and
wrap everything as a runnable scenario plus the exact solution for error
measurement."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .solver import BoundaryCondition, BoundaryPartition, FieldData, Scenario


def space_symbols(dim):
    return sp.symbols(" ".join(f"x{i+1}" for i in range(dim)), real=True)


TIME = sp.Symbol("t", real=True)


def _as_tuple(x):
    return x if isinstance(x, (tuple, list)) else (x,)


@dataclass(eq=False)
class ExactSolution:
    """Exact fields of a manufactured run: callables (X, t) -> array."""

    dim: int
    u: object
    udot: object
    phi: object
    phidot: object
    theta: object

    def errors(self, state, scenario):
        """Max-norm errors of a computed state against the exact fields."""
        X = scenario.mesh()
        t = state.t
        return {
            "u": float(np.abs(state.u - self.u(X, t)).max()),
            "udot": float(np.abs(state.v - self.udot(X, t)).max()),
            "phi": float(np.abs(state.phi - self.phi(X, t)).max()),
            "phidot": float(np.abs(state.phidot - self.phidot(X, t)).max()),
            "theta": float(np.abs(state.theta - self.theta(X, t)).max()),
        }


# Coordinate tuples whose basis values one scenario keeps: the mesh and the
# 2 d faces of its grid, with room to spare.
_BASIS_CACHE = 16


class _Basis:
    """The spatial monomials of one manufactured scenario, shared by all its
    fields.  ``values(X)`` evaluates them on a coordinate tuple, as a
    (monomials, nodes) array and the nodes' shape, and keeps the result,
    keyed by the tuple's id, for the last ``_BASIS_CACHE`` tuples; the tuple
    is kept with it, so its id cannot be reused while the entry lives.  The
    arrays of a cached tuple must not be changed in place."""

    def __init__(self, xs):
        self.xs, self.monomials, self._fn, self._cache = xs, {}, None, {}

    def values(self, X):
        hit = self._cache.get(id(X))
        if hit is None:
            if self._fn is None:
                self._fn = sp.lambdify(self.xs, list(self.monomials), "numpy")
            shape = np.broadcast_shapes(*(np.shape(x) for x in X))
            vals = np.empty((len(self.monomials), math.prod(shape)))
            for m, v in enumerate(self._fn(*X)):
                vals[m].reshape(shape)[...] = v
            if len(self._cache) >= _BASIS_CACHE:
                del self._cache[next(iter(self._cache))]
            hit = self._cache[id(X)] = (X, vals, shape)
        return hit[1:]


def _split(expr, basis):
    """``expr`` expanded as {(time factor, monomial index): coefficient} plus
    a remainder: the terms whose time factor still holds a space symbol."""
    terms, remainder = {}, sp.Integer(0)
    for term in sp.Add.make_args(sp.expand(expr)):
        if term == 0:
            continue
        spatial, time = term.as_independent(TIME, as_Add=False)
        if time.has(*basis.xs):
            remainder += term
            continue
        const, monomial = spatial.as_independent(*basis.xs, as_Add=False)
        key = (time, basis.monomials.setdefault(monomial, len(basis.monomials)))
        terms[key] = terms.get(key, 0.0) + float(const)
    return terms, remainder


class _Field:
    """A field (X, t) -> array of shape (*nodes), or (components, *nodes)
    for a vector field: sum over k of tau_k(t) * sum over m of W[c, m, k] *
    basis[m](X), plus the remainder evaluated directly.  The coefficients
    W @ tau(t) of the last t are kept: the faces of one Dirichlet write
    share them."""

    def __init__(self, parts, basis, vector):
        times = list(dict.fromkeys(time for terms, _ in parts for time, _ in terms))
        self.W = np.zeros((len(parts), len(basis.monomials), len(times)))
        for c, (terms, _) in enumerate(parts):
            for (time, m), coef in terms.items():
                self.W[c, m, times.index(time)] = coef
        self.tau = sp.lambdify(TIME, times, "math")
        rest = [r for _, r in parts]
        self.remainder = (sp.lambdify((*basis.xs, TIME), rest, "numpy")
                          if any(r != 0 for r in rest) else None)
        self.basis, self.vector = basis, vector
        self._t = self._coef = None

    def __call__(self, X, t):
        B, shape = self.basis.values(X)
        if t != self._t:
            self._t, self._coef = t, self.W @ np.array(self.tau(t), dtype=float)
        coef = self._coef
        out = (coef @ B).reshape(coef.shape[:1] + shape)
        if self.remainder is not None:
            for c, r in enumerate(self.remainder(*X, t)):
                out[c] += r
        return out if self.vector else out[0]


def _fields(exprs, xs):
    """One callable per entry of ``exprs`` (name -> expression, or list of
    expressions for a vector field), all on one spatial basis."""
    basis = _Basis(xs)
    parts = {name: [_split(e, basis) for e in _as_tuple(ex)] for name, ex in exprs.items()}
    return {name: _Field(p, basis, isinstance(exprs[name], list)) for name, p in parts.items()}


def manufactured_scenario(u_exprs, phi_expr, theta_expr, grid, material,
                          dt="auto", T=1.0, dissipative=False):
    """Scenario whose sources make (u, phi, theta) the exact solution.

    ``u_exprs`` is one sympy expression per displacement component in the
    symbols from :func:`space_symbols` plus ``t``.  All faces carry
    Dirichlet data read off the exact fields; the support slab covers the
    whole domain (manufactured runs exercise the integrator and the energy
    identity, not the decay geometry).

    Returns (scenario, exact).
    """
    d = grid.dim
    xs = _as_tuple(space_symbols(d))
    u_exprs = [sp.sympify(e) for e in _as_tuple(u_exprs)]
    phi_expr = sp.sympify(phi_expr)
    theta_expr = sp.sympify(theta_expr)
    if len(u_exprs) != d:
        raise ValueError(f"need {d} displacement expressions, got {len(u_exprs)}")

    C, D, A, B = material.C, material.D, material.A, material.B
    bvec, M, aVec, K = material.b, material.M, material.aVec, material.K

    e = [[sp.Rational(1, 2) * (sp.diff(u_exprs[i], xs[j]) + sp.diff(u_exprs[j], xs[i]))
          for j in range(d)] for i in range(d)]
    gamma = [sp.diff(phi_expr, xs[i]) for i in range(d)]
    kappa = [sp.diff(theta_expr, xs[i]) for i in range(d)]

    def dsum(fn):
        return sum(fn(i) for i in range(d))

    S = [[sum(C[i, j, r, s] * e[r][s] for r in range(d) for s in range(d))
          + sum(D[i, j, s] * gamma[s] for s in range(d))
          + B[i, j] * phi_expr - M[i, j] * theta_expr
          for j in range(d)] for i in range(d)]
    h = [sum(D[r, s, i] * e[r][s] for r in range(d) for s in range(d))
         + sum(A[i, j] * gamma[j] for j in range(d))
         + bvec[i] * phi_expr - aVec[i] * theta_expr
         for i in range(d)]
    G = (-sum(B[i, j] * e[i][j] for i in range(d) for j in range(d))
         - sum(bvec[i] * gamma[i] for i in range(d))
         - material.xi * phi_expr + material.m * theta_expr)
    tau_sign = -1 if dissipative else 1
    g = tau_sign * material.tau * sp.diff(phi_expr, TIME) + G
    rho_eta = (sum(M[i, j] * e[i][j] for i in range(d) for j in range(d))
               + sum(aVec[i] * gamma[i] for i in range(d))
               + material.m * phi_expr + material.aHeat * theta_expr)
    q = [sum(K[i, j] * kappa[j] for j in range(d)) for i in range(d)]

    f_exprs = [sp.diff(u_exprs[i], TIME, 2)
               - dsum(lambda j, i=i: sp.diff(S[i][j], xs[j])) / material.rho
               for i in range(d)]
    ell_expr = (material.chi * sp.diff(phi_expr, TIME, 2)
                - (dsum(lambda i: sp.diff(h[i], xs[i])) + g) / material.rho)
    thermal_sign = 1 if dissipative else -1
    # balance: thermal_sign * rho*theta0*eta_dot = div q + rho * r
    r_expr = (thermal_sign * material.theta0 * sp.diff(rho_eta, TIME)
              - dsum(lambda i: sp.diff(q[i], xs[i]))) / material.rho

    fns = _fields({
        "u": u_exprs, "udot": [sp.diff(e_, TIME) for e_ in u_exprs],
        "phi": phi_expr, "phidot": sp.diff(phi_expr, TIME),
        "theta": theta_expr, "thetadot": sp.diff(theta_expr, TIME),
        "f": f_exprs, "ell": ell_expr, "r": r_expr}, xs)
    exact = ExactSolution(dim=d, u=fns["u"], udot=fns["udot"], phi=fns["phi"],
                          phidot=fns["phidot"], theta=fns["theta"])

    faces = {}
    for axis in range(d):
        for side in ("min", "max"):
            faces[(axis, side)] = {
                group: BoundaryCondition(
                    "dirichlet", fielddata=FieldData(value=fns[name], rate=fns[name + "dot"]))
                for group, name in (("displacement", "u"), ("void", "phi"),
                                    ("thermal", "theta"))}

    scenario = Scenario(
        grid=grid, material=material, boundary=BoundaryPartition(faces=faces),
        dt=dt, T=float(T), support_x0=float(grid.extents[0]),
        initial={name: functools.partial(fns[name], t=0.0)
                 for name in ("u", "udot", "phi", "phidot", "theta")},
        sources={key: fns[key] for key in ("f", "ell", "r")},
        label="manufactured",
    )
    return scenario, exact


def static_equilibrium_scenario(u_exprs, grid, material, dt="auto", T=1.0):
    """Scenario whose body force holds a time-independent displacement in
    equilibrium (zero void fraction and temperature): f = -div S / rho, so
    the exact trajectory is stationary."""
    return manufactured_scenario(u_exprs, sp.Integer(0), sp.Integer(0),
                                 grid, material, dt=dt, T=T)
