"""Manufactured solutions: pick analytic fields, derive the volumetric
sources so the fields satisfy the coupled system exactly, and wrap
everything as a runnable scenario plus the exact solution for error
measurement.

The sources are derived on coefficient tables, not on assembled
expressions.  Each profile is expanded once into terms time factor x
constant x spatial monomial, all on one basis per scenario.  sympy
differentiates each monomial along each axis and each time factor in t
once, and each result is split back onto the basis.  The balance laws,
(e, gamma, kappa) -> (S, h, G, g, rho eta, q) -> (f, ell, r), are then
float sums and multiples of those tables.  A term whose time factor still
holds a space symbol, as in a travelling wave, is kept as a sympy
remainder: it goes through the same laws and is differentiated with
``sympy.diff``."""

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
    arrays of a cached tuple must not be changed in place.

    ``dx`` and ``dt`` give the derivative of one monomial along one axis and
    of one time factor in t, each split back onto the basis; sympy
    differentiates each of them once per basis.

    ``times`` numbers the time factors the fields use, and
    ``time_values(t)`` evaluates them all at t, through one lambdified
    function per basis (made again only when a factor is added)."""

    def __init__(self, xs):
        self.xs, self.monomials, self._fn, self._cache = xs, {}, None, {}
        self._dx, self._dt = {}, {}
        self.times, self._time_fn = {}, (None, None)

    def dx(self, m, axis):
        """d(monomial m)/d(x_axis) as {monomial index: coefficient}."""
        key = (m, axis)
        if key not in self._dx:
            monomial = list(self.monomials)[m]
            self._dx[key] = {m2: c for (_, m2), c in
                             _split(sp.diff(monomial, self.xs[axis]), self).terms.items()}
        return self._dx[key]

    def dt(self, time):
        """d(time factor)/dt as {time factor: coefficient}."""
        if time not in self._dt:
            out = self._dt[time] = {}
            for term in sp.Add.make_args(sp.expand(sp.diff(time, TIME))):
                if term != 0:
                    const, factor = term.as_independent(TIME, as_Add=False)
                    out[factor] = out.get(factor, 0.0) + float(const)
        return self._dt[time]

    def time_values(self, t):
        """Every time factor at t, as a float array indexed by ``times``."""
        if self._time_fn[0] != len(self.times):
            self._time_fn = (len(self.times), sp.lambdify(TIME, list(self.times), "math"))
        return np.array(self._time_fn[1](t), dtype=float)

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


class _Part:
    """One scalar field on a basis: ``terms`` maps (time factor, monomial
    index) to a coefficient, and ``rest`` is a sympy expression of the terms
    whose time factor still holds a space symbol.  Sums, scalar multiples
    and derivatives act on the table; the remainder goes along
    symbolically."""

    __array_ufunc__ = None   # numpy scalars defer to __rmul__

    def __init__(self, basis, terms, rest=sp.S.Zero):
        self.basis, self.terms, self.rest = basis, terms, rest

    def __add__(self, other):
        if other == 0:   # the start of sum()
            return self
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0.0) + c
        return _Part(self.basis, terms, self.rest + other.rest)

    __radd__ = __add__

    def __mul__(self, c):
        if c == 0:
            return _Part(self.basis, {})
        c = float(c)
        return _Part(self.basis, {key: c * v for key, v in self.terms.items()}, c * self.rest)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1.0 / float(c))

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        return self + -other

    def _rest_diff(self, symbol):
        return sp.diff(self.rest, symbol) if self.rest != 0 else self.rest

    def dx(self, axis):
        """The derivative along x_axis."""
        terms = {}
        for (time, m), c in self.terms.items():
            for m2, c2 in self.basis.dx(m, axis).items():
                terms[time, m2] = terms.get((time, m2), 0.0) + c * c2
        return _Part(self.basis, terms, self._rest_diff(self.basis.xs[axis]))

    def dt(self):
        """The derivative in t."""
        terms = {}
        for (time, m), c in self.terms.items():
            for time2, c2 in self.basis.dt(time).items():
                terms[time2, m] = terms.get((time2, m), 0.0) + c * c2
        return _Part(self.basis, terms, self._rest_diff(TIME))


def _split(expr, basis):
    """``expr`` expanded onto ``basis``, as a :class:`_Part`."""
    terms, rest = {}, sp.S.Zero
    for term in sp.Add.make_args(sp.expand(expr)):
        if term == 0:
            continue
        spatial, time = term.as_independent(TIME, as_Add=False)
        if time.has(*basis.xs):
            rest += term
            continue
        const, monomial = spatial.as_independent(*basis.xs, as_Add=False)
        key = (time, basis.monomials.setdefault(monomial, len(basis.monomials)))
        terms[key] = terms.get(key, 0.0) + float(const)
    return _Part(basis, terms, rest)


class _Field:
    """A field (X, t) -> array of shape (*nodes), or (components, *nodes)
    for a vector field: sum over k of tau_k(t) * sum over m of W[c, m, k] *
    basis[m](X), plus the remainder evaluated directly.  The coefficients
    W @ tau(t) of the last t are kept: the faces of one Dirichlet write
    share them."""

    def __init__(self, parts, basis, vector):
        times = list(dict.fromkeys(time for p in parts for time, _ in p.terms))
        self.W = np.zeros((len(parts), len(basis.monomials), len(times)))
        for c, p in enumerate(parts):
            for (time, m), coef in p.terms.items():
                self.W[c, m, times.index(time)] = coef
        self._columns = [basis.times.setdefault(time, len(basis.times)) for time in times]
        rest = [p.rest for p in parts]
        self.remainder = (sp.lambdify((*basis.xs, TIME), rest, "numpy")
                          if any(r != 0 for r in rest) else None)
        self.basis, self.vector = basis, vector
        self._t = self._coef = None

    def tau(self, t):
        """The field's time factors at t, in the order of W's last axis."""
        return self.basis.time_values(t)[self._columns]

    def __call__(self, X, t):
        B, shape = self.basis.values(X)
        if t != self._t:
            self._t, self._coef = t, self.W @ self.tau(t)
        coef = self._coef
        out = (coef @ B).reshape(coef.shape[:1] + shape)
        if self.remainder is not None:
            for c, r in enumerate(self.remainder(*X, t)):
                out[c] += r
        return out if self.vector else out[0]


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
    u_exprs = _as_tuple(u_exprs)
    if len(u_exprs) != d:
        raise ValueError(f"need {d} displacement expressions, got {len(u_exprs)}")
    basis = _Basis(xs)
    u = [_split(e_, basis) for e_ in u_exprs]
    phi, theta = _split(phi_expr, basis), _split(theta_expr, basis)

    C, D, A, B = material.C, material.D, material.A, material.B
    bvec, M, aVec, K = material.b, material.M, material.aVec, material.K

    du = [[ui.dx(j) for j in range(d)] for ui in u]
    e = [[0.5 * (du[i][j] + du[j][i]) for j in range(d)] for i in range(d)]
    gamma = [phi.dx(i) for i in range(d)]
    kappa = [theta.dx(i) for i in range(d)]

    def dsum(fn):
        return sum(fn(i) for i in range(d))

    S = [[sum(C[i, j, r, s] * e[r][s] for r in range(d) for s in range(d))
          + sum(D[i, j, s] * gamma[s] for s in range(d))
          + B[i, j] * phi - M[i, j] * theta
          for j in range(d)] for i in range(d)]
    h = [sum(D[r, s, i] * e[r][s] for r in range(d) for s in range(d))
         + sum(A[i, j] * gamma[j] for j in range(d))
         + bvec[i] * phi - aVec[i] * theta
         for i in range(d)]
    G = (-sum(B[i, j] * e[i][j] for i in range(d) for j in range(d))
         - sum(bvec[i] * gamma[i] for i in range(d))
         - material.xi * phi + material.m * theta)
    udot, phidot = [ui.dt() for ui in u], phi.dt()
    tau_sign = -1 if dissipative else 1
    g = tau_sign * material.tau * phidot + G
    rho_eta = (sum(M[i, j] * e[i][j] for i in range(d) for j in range(d))
               + sum(aVec[i] * gamma[i] for i in range(d))
               + material.m * phi + material.aHeat * theta)
    q = [sum(K[i, j] * kappa[j] for j in range(d)) for i in range(d)]

    f = [udot[i].dt() - dsum(lambda j, i=i: S[i][j].dx(j)) / material.rho
         for i in range(d)]
    ell = material.chi * phidot.dt() - (dsum(lambda i: h[i].dx(i)) + g) / material.rho
    thermal_sign = 1 if dissipative else -1
    # balance: thermal_sign * rho*theta0*eta_dot = div q + rho * r
    r = (thermal_sign * material.theta0 * rho_eta.dt()
         - dsum(lambda i: q[i].dx(i))) / material.rho

    fns = {name: _Field(_as_tuple(p), basis, isinstance(p, list)) for name, p in {
        "u": u, "udot": udot, "phi": phi, "phidot": phidot,
        "theta": theta, "thetadot": theta.dt(), "f": f, "ell": ell, "r": r}.items()}
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

