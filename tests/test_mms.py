"""The manufactured-data evaluator against a test-held reference.

``manufactured_scenario`` derives the sources from the profiles' basis
factors, each differentiated once, and evaluates every field it builds
(the exact fields and their rates, which are also the Dirichlet and
initial data, and the sources f, ell and r) from one cached spatial basis
per scenario.  The reference here assembles the balance laws as whole
sympy expressions (``symbolic_fields``), differentiates them with
``sympy.diff`` and evaluates each by a direct ``sympy.lambdify`` on the
mesh and on every face.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

import voidtherm as vt
from voidtherm import mms, presets
from voidtherm.solver import SimState, _face_data, _Operator, face_slice, initial_arrays

from test_solver import mms_profiles_3d, reference_material_3d

ROOT = pathlib.Path(__file__).resolve().parents[1]
T = 0.8
GROUPS = (("displacement", "u"), ("void", "phi"), ("thermal", "theta"))


def travelling_profiles():
    """2D fields in which some terms cannot be split into a time factor
    times a spatial monomial, so the remainder path is needed."""
    x1, x2 = mms.space_symbols(2)
    t = mms.TIME
    u = [sp.Float(0.05) * sp.sin(sp.pi * (x1 - sp.Float(0.6) * t)) * sp.cos(sp.pi * x2),
         sp.Float(0.04) * sp.cos(sp.pi * x1) * sp.sin(sp.pi * x2) * sp.sin(t)]
    phi = sp.Float(0.03) * sp.sin(sp.pi * (x1 + x2 - t)) + sp.Float(0.01) * x1 * x2 * t
    theta = sp.Float(0.02) * sp.cos(sp.pi * x1) * sp.cos(sp.pi * x2) * sp.sin(sp.Float(0.8) * t)
    return u, phi, theta


def memory_material_2d():
    """The 2D reference set with the memory term tau * phidot switched on."""
    return dataclasses.replace(presets.reference_material_2d(), tau=0.5)


def coupled_material_2d():
    """A random 2D set: every coupling block (D, b, aVec) nonzero and
    anisotropic, tau > 0."""
    return vt.random_material(2, np.random.default_rng(5))


# name -> (profiles, material, dimension, dissipative)
CASES = {
    "1d": (presets.mms_profiles_1d, presets.reference_material, 1, False),
    "2d": (presets.mms_profiles_2d, presets.reference_material_2d, 2, False),
    "3d": (mms_profiles_3d, reference_material_3d, 3, False),
    "travelling": (travelling_profiles, presets.reference_material_2d, 2, False),
    "memory": (presets.mms_profiles_2d, memory_material_2d, 2, False),
    "dissipative": (presets.mms_profiles_2d, memory_material_2d, 2, True),
    "coupled": (presets.mms_profiles_2d, coupled_material_2d, 2, True),
}


def symbolic_fields(u_exprs, phi, theta, material, dissipative=False):
    """Every field of a manufactured scenario as a sympy expression (a list:
    a vector field): the balance laws assembled from the constitutive sums
    and differentiated as whole expressions."""
    d = material.dim
    xs = mms.space_symbols(d)
    xs = xs if isinstance(xs, tuple) else (xs,)
    t = mms.TIME
    C, D, A, B = material.C, material.D, material.A, material.B
    bvec, M, aVec, K = material.b, material.M, material.aVec, material.K
    rng = range(d)

    e = [[sp.Rational(1, 2) * (sp.diff(u_exprs[i], xs[j]) + sp.diff(u_exprs[j], xs[i]))
          for j in rng] for i in rng]
    gamma = [sp.diff(phi, x) for x in xs]
    kappa = [sp.diff(theta, x) for x in xs]
    S = [[sum(C[i, j, r, s] * e[r][s] for r in rng for s in rng)
          + sum(D[i, j, s] * gamma[s] for s in rng) + B[i, j] * phi - M[i, j] * theta
          for j in rng] for i in rng]
    h = [sum(D[r, s, i] * e[r][s] for r in rng for s in rng)
         + sum(A[i, j] * gamma[j] for j in rng) + bvec[i] * phi - aVec[i] * theta
         for i in rng]
    G = (-sum(B[i, j] * e[i][j] for i in rng for j in rng)
         - sum(bvec[i] * gamma[i] for i in rng) - material.xi * phi + material.m * theta)
    g = (-1 if dissipative else 1) * material.tau * sp.diff(phi, t) + G
    rho_eta = (sum(M[i, j] * e[i][j] for i in rng for j in rng)
               + sum(aVec[i] * gamma[i] for i in rng)
               + material.m * phi + material.aHeat * theta)
    q = [sum(K[i, j] * kappa[j] for j in rng) for i in rng]

    f = [sp.diff(u_exprs[i], t, 2) - sum(sp.diff(S[i][j], xs[j]) for j in rng) / material.rho
         for i in rng]
    ell = (material.chi * sp.diff(phi, t, 2)
           - (sum(sp.diff(h[i], xs[i]) for i in rng) + g) / material.rho)
    # balance: thermal_sign * rho*theta0*eta_dot = div q + rho * r
    r = ((1 if dissipative else -1) * material.theta0 * sp.diff(rho_eta, t)
         - sum(sp.diff(q[i], xs[i]) for i in rng)) / material.rho
    return {"u": list(u_exprs), "udot": [sp.diff(e_, t) for e_ in u_exprs],
            "phi": phi, "phidot": sp.diff(phi, t), "theta": theta,
            "thetadot": sp.diff(theta, t), "f": f, "ell": ell, "r": r}


def build(case):
    """The scenario of one case, its exact solution, and the reference
    expressions (name -> expression or list of expressions) of its fields."""
    profiles, material, dim, dissipative = CASES[case]
    u, phi, theta = profiles()
    material = material()
    grid = vt.Grid(extents=(1.0, 0.8, 0.6)[:dim], counts=(9, 7, 6)[:dim])
    scen, exact = mms.manufactured_scenario(u, phi, theta, grid, material, T=T,
                                            dissipative=dissipative)
    return scen, exact, symbolic_fields(u, phi, theta, material, dissipative)


def reference(expr, X, t):
    """Direct lambdify of an expression (a list: a vector field) on X."""
    xs = mms.space_symbols(len(X))
    xs = xs if isinstance(xs, tuple) else (xs,)
    shape = np.broadcast_shapes(*(np.shape(x) for x in X))
    parts = expr if isinstance(expr, list) else [expr]
    vals = [np.broadcast_to(sp.lambdify((*xs, mms.TIME), e, "numpy")(*X, t), shape)
            for e in parts]
    return np.stack(vals) if isinstance(expr, list) else vals[0]


def assert_close(got, want, scale, what):
    got = np.asarray(got)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    gap = float(np.abs(got - want).max(initial=0.0))
    assert gap <= 1e-13 * scale, (what, gap, scale)


@pytest.mark.parametrize("case", list(CASES))
def test_fields_match_direct_lambdify(case):
    scen, exact, exprs = build(case)
    assert set(exprs) == {"u", "udot", "phi", "phidot", "theta", "thetadot", "f", "ell", "r"}
    # the committed profiles separate completely; the travelling wave does not
    assert (scen.sources["f"].remainder is not None) == (case == "travelling")
    faces = list(scen.boundary.faces)
    fields = {"u": exact.u, "udot": exact.udot, "phi": exact.phi, "phidot": exact.phidot,
              "theta": exact.theta, "thetadot": scen.boundary.faces[faces[0]]["thermal"]
              .fielddata.rate, **scen.sources}
    X = scen.mesh()
    times = (0.0, 0.37, T)
    scale = {name: max(float(np.abs(reference(e, X, t)).max()) for t in times)
             for name, e in exprs.items()}
    for t in times:
        for name, expr in exprs.items():
            for coords in [X] + [scen.mesh(face) for face in faces]:
                assert_close(fields[name](coords, t), reference(expr, coords, t),
                             scale[name], (name, t))
        for key in ("f", "ell", "r"):
            assert_close(scen.source(key, t), reference(exprs[key], X, t), scale[key], (key, t))
        # the solver's face reader, on the scenario's cached face coordinates
        for face in faces:
            for group, name in GROUPS:
                for rate, field_name in ((False, name), (True, name + "dot")):
                    want = reference(exprs[field_name], scen.mesh(face), t)
                    assert_close(_face_data(scen, face, group, t, rate), want,
                                 scale[field_name], (face, group, rate, t))
    for name in ("u", "udot", "phi", "phidot", "theta"):
        assert_close(scen.initial[name](X), reference(exprs[name], X, 0.0), scale[name], name)


@pytest.mark.parametrize("case", ("3d", "travelling"))
def test_each_factor_differentiated_once(case, monkeypatch):
    # the sources come from the profiles' factors: sympy differentiates each
    # basis monomial along each axis and each time factor in t at most once,
    # never an assembled sum; only a remainder adds calls of its own
    calls = []
    diff = sp.diff

    def counted(expr, *symbols, **kwargs):
        calls.append((expr, symbols))
        return diff(expr, *symbols, **kwargs)

    profiles, material, dim, dissipative = CASES[case]
    args = (*profiles(), vt.Grid(extents=(1.0,) * dim, counts=(5,) * dim), material())
    monkeypatch.setattr(sp, "diff", counted)
    scen, _ = mms.manufactured_scenario(*args, T=T, dissipative=dissipative)
    monkeypatch.undo()
    basis = scen.sources["f"].basis
    assert len(set(calls)) == len(calls)
    spatial = [e for e, s in calls if s != (mms.TIME,)]
    temporal = [e for e, s in calls if s == (mms.TIME,)]
    monomials = [e for e in spatial if e in basis.monomials]
    factors = [e for e in temporal if not e.has(*basis.xs)]
    assert len(monomials) <= len(basis.monomials) * len(basis.xs)
    remainders = [e for e in spatial + temporal if e not in monomials + factors]
    if case == "travelling":
        assert remainders and all(e.has(mms.TIME) and e.has(*basis.xs) for e in remainders)
    else:
        assert remainders == []


@pytest.mark.parametrize("case", list(CASES))
def test_time_factors_lambdified_once(case, monkeypatch):
    # one lambdify for the scenario's time factors, one for its monomials,
    # and one per field with a remainder, whatever the fields evaluated
    calls = []
    lambdify = sp.lambdify

    def counted(args, *rest, **kwargs):
        calls.append(args)
        return lambdify(args, *rest, **kwargs)

    monkeypatch.setattr(sp, "lambdify", counted)
    scen, exact, _ = build(case)
    fields = [exact.u, exact.udot, exact.phi, exact.phidot, exact.theta,
              *scen.sources.values(), *(bc.fielddata.rate for face in scen.boundary.faces.values()
                                        for bc in face.values())]
    for t in (0.0, 0.37):
        for field in fields:
            field(scen.mesh(), t)
    monkeypatch.undo()
    remainders = len({id(f) for f in fields if f.remainder is not None})
    assert calls.count(mms.TIME) == 1
    assert len(calls) == 2 + remainders
    assert (remainders > 0) == (case == "travelling")


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_zero_profile_sources_are_zero_with_shape(dim):
    zero = sp.Integer(0)
    counts = (9, 7, 6)[:dim]
    mat = {1: presets.reference_material, 2: presets.reference_material_2d,
           3: reference_material_3d}[dim]()
    scen, exact = mms.manufactured_scenario([zero] * dim, zero, zero,
                                            vt.Grid(extents=(1.0,) * dim, counts=counts),
                                            mat, T=T)
    X = scen.mesh()
    for key, shape in (("f", (dim,) + counts), ("ell", counts), ("r", counts)):
        got = scen.sources[key](X, 0.37)
        assert got.shape == shape and not np.any(got), key
    assert exact.u(X, 0.37).shape == (dim,) + counts and not np.any(exact.u(X, 0.37))
    assert exact.theta(X, 0.37).shape == counts and not np.any(exact.theta(X, 0.37))


def test_basis_cache_is_bounded():
    grid = vt.Grid(extents=(1.0, 1.0), counts=(9, 7))
    scen, _ = mms.manufactured_scenario(*presets.mms_profiles_2d(), grid,
                                        presets.reference_material_2d(), T=T)
    f = scen.sources["f"]
    X = scen.mesh()
    want = f(X, 0.37)
    for _ in range(50):
        fresh = tuple(x.copy() for x in X)
        np.testing.assert_array_equal(f(fresh, 0.37), want)
    assert len(f.basis._cache) == mms._BASIS_CACHE
    # the mesh's entry was evicted; evaluating there again still agrees
    np.testing.assert_array_equal(f(X, 0.37), want)
    assert len(f.basis._cache) == mms._BASIS_CACHE


def test_field_coefficients_follow_t():
    # a field keeps the time coefficients of its last t: a call at another t
    # recomputes them, so t1, t2, t1 gives each time its own values
    scen, exact, exprs = build("2d")
    X, t1, t2 = scen.mesh(), 0.37, 0.61
    scale = max(float(np.abs(reference(exprs["u"], X, t)).max()) for t in (t1, t2))
    first = exact.u(X, t1)
    second = exact.u(X, t2)
    assert_close(first, reference(exprs["u"], X, t1), scale, "t1")
    assert_close(second, reference(exprs["u"], X, t2), scale, "t2")
    assert not np.array_equal(first, second)
    assert np.array_equal(exact.u(X, t1), first)


@pytest.mark.parametrize("case", ("2d", "3d"))
def test_advance_evaluates_each_time_once(case, monkeypatch):
    # over three steps every field's time factors run once per distinct time
    # (the faces of one Dirichlet write share them), and the Dirichlet faces
    # hold _face_data's arrays, the later face winning where faces meet
    scen, _, _ = build(case)
    bcs = scen.boundary.faces[(0, "min")]
    fields = {"u": bcs["displacement"].fielddata.value, "udot": bcs["displacement"].fielddata.rate,
              "phi": bcs["void"].fielddata.value, "phidot": bcs["void"].fielddata.rate,
              "theta": bcs["thermal"].fielddata.value, **scen.sources}
    op = _Operator(scen)
    op.load(SimState(0.0, *initial_arrays(scen)))
    op.impose(0.0)
    op.level(0.0)
    calls = {name: [] for name in fields}
    for name, field in fields.items():
        def counted(t, name=name, tau=field.tau):
            calls[name].append(t)
            return tau(t)
        monkeypatch.setattr(field, "tau", counted)
    t, dt, want = 0.0, scen.resolve_dt(), {name: [] for name in fields}
    for _ in range(3):
        op.advance(t, dt)
        want["r"] += [t, t + 0.5 * dt]
        want["theta"] += [t + 0.5 * dt, t + dt]
        t += dt
        for name in ("u", "udot", "phi", "phidot", "f", "ell"):
            want[name].append(t)
    assert calls == want
    d, Y = scen.grid.dim, op.Y.copy()
    rows = {("displacement", False): slice(0, d), ("void", False): d, ("thermal", False): d + 1,
            ("displacement", True): slice(d + 2, 2 * d + 2), ("void", True): 2 * d + 2}
    for face in scen.boundary.faces:
        for (group, rate), row in rows.items():
            Y[row][(Ellipsis,) + face_slice(*face, d)] = _face_data(scen, face, group, t, rate)
    assert np.array_equal(op.Y, Y)


def test_import_leaves_sympy_unloaded():
    code = ("import sys, voidtherm, voidtherm.cli\n"
            "assert 'sympy' not in sys.modules, 'sympy loaded by import voidtherm'\n"
            "assert callable(voidtherm.manufactured_scenario)\n"
            "assert 'sympy' in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
