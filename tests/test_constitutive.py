import dataclasses

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import constitutive as cn
from voidtherm import presets
from voidtherm.material import random_material, voigt_pairs


def simple_1d():
    return vt.Material(dim=1, C=2.0, A=3.0, K=1.0, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, D=1.0)


def energy_state(e, gamma, phi):
    """An element (e, gamma, phi) of the energy space: kappa, phidot and
    theta zero."""
    return cn.PointState(e=e, gamma=gamma, kappa=0.0, phi=phi, phidot=0.0, theta=0.0)


def random_energy_states(m, rng, n):
    st = cn.random_point_state(m, rng, n)
    return energy_state(st.e, st.gamma, st.phi)


def point(st, k):
    """The k-th state of a batch on one trailing axis, without node axes."""
    return cn.PointState(**{f.name: getattr(st, f.name)[..., k] for f in dataclasses.fields(st)})


# ---------------------------------------------------------------------------
# the response on the energy space (theta = 0)


def test_response_at_origin(rng):
    m = random_material(3, rng)
    r = vt.response(cn.PointState.zero(3), m)
    assert np.all(r.S == 0.0) and np.all(r.h == 0.0) and r.G == 0.0


def test_hand_evaluated_1d():
    m = simple_1d()
    r = vt.response(energy_state([[1.0]], [2.0], 0.0), m)
    assert r.S[0, 0] == pytest.approx(4.0)  # 2*1 + 1*2
    assert r.h[0] == pytest.approx(7.0)     # 1*1 + 3*2
    assert r.G == 0.0


def test_components_recoverable_from_bilinear_form(rng):
    # independent evaluation path: pair against basis elements
    m = random_material(2, rng)
    E = point(random_energy_states(m, rng, 1), 0)
    g = vt.response(E, m)
    for i, j in voigt_pairs(2):
        basis = np.zeros((2, 2))
        basis[i, j] = basis[j, i] = 1.0
        expect = g.S[i, j] * (1.0 if i == j else 2.0)
        Eb = energy_state(basis, np.zeros(2), 0.0)
        assert 2.0 * vt.bilinear_form(E, Eb, m) == pytest.approx(expect, rel=1e-12, abs=1e-12)
    for k in range(2):
        Eb = energy_state(np.zeros((2, 2)), np.eye(2)[k], 0.0)
        assert 2.0 * vt.bilinear_form(E, Eb, m) == pytest.approx(g.h[k], rel=1e-12, abs=1e-12)
    Eb = energy_state(np.zeros((2, 2)), np.zeros(2), 1.0)
    assert 2.0 * vt.bilinear_form(E, Eb, m) == pytest.approx(-g.G, rel=1e-12, abs=1e-12)


def test_linearity(rng):
    m = random_material(3, rng)
    E = random_energy_states(m, rng, 2)
    a, b = rng.normal(), rng.normal()
    combo = energy_state(E.e @ [a, b], E.gamma @ [a, b], E.phi @ [a, b])
    g, gc = vt.response(E, m), vt.response(combo, m)
    assert np.allclose(gc.S, g.S @ [a, b], atol=1e-12)
    assert np.allclose(gc.h, g.h @ [a, b], atol=1e-12)
    assert gc.G == pytest.approx(g.G @ [a, b], abs=1e-12)


def test_image_stays_in_the_space(rng):
    m = random_material(2, rng)
    g = vt.response(point(random_energy_states(m, rng, 1), 0), m)
    assert np.allclose(g.S, g.S.T)
    assert g.h.shape == (2,) and np.ndim(g.G) == 0


# ---------------------------------------------------------------------------
# bilinear form and stored energy


def test_bilinear_form_zero_and_symmetry(rng):
    m = random_material(3, rng)
    E = point(random_energy_states(m, rng, 1), 0)
    assert vt.bilinear_form(E, cn.PointState.zero(3), m) == 0.0
    Ea, Eb = random_energy_states(m, rng, 200), random_energy_states(m, rng, 200)
    fab, fba = vt.bilinear_form(Ea, Eb, m), vt.bilinear_form(Eb, Ea, m)
    wa, wb = vt.stored_energy(Ea, m), vt.stored_energy(Eb, m)
    assert np.all(abs(fab - fba) <= 1e-12 * (abs(wa) + abs(wb) + 1.0))


def test_bilinear_equals_half_pairing(rng):
    m = random_material(2, rng)
    Ea, Eb = random_energy_states(m, rng, 100), random_energy_states(m, rng, 100)
    g = vt.response(Ea, m)
    pairing = (np.einsum("ijn,ijn->n", g.S, Eb.e) + np.einsum("in,in->n", g.h, Eb.gamma)
               - g.G * Eb.phi)
    np.testing.assert_allclose(vt.bilinear_form(Ea, Eb, m), 0.5 * pairing, rtol=1e-12, atol=1e-13)


def test_stored_energy_examples(rng):
    m3 = vt.Material(dim=1, C=2.0, A=3.0, K=1.0, rho=1.0, chi=1.0,
                     aHeat=1.0, theta0=1.0, xi=5.0)
    z_first = energy_state([[1.0]], [0.0], 0.0)
    assert vt.stored_energy(z_first, m3) == pytest.approx(1.0)  # z^T Q z / 2 = 2/2
    assert vt.stored_energy(cn.PointState.zero(1), m3) == 0.0

    m = random_material(3, rng)
    Q = vt.assemble_quadratic_form(m)
    spec = vt.spectrum(m)
    E = random_energy_states(m, rng, 200)
    z = E.scaled_coords(m)
    zQz = np.einsum("kn,kl,ln->n", z, Q, z)
    np.testing.assert_allclose(2.0 * vt.stored_energy(E, m), zQz, rtol=1e-11, atol=1e-12)
    assert np.all(2.0 * vt.stored_energy(E, m) >= spec.mu_m * np.sum(z * z, axis=0) - 1e-9)


def test_cauchy_schwarz(rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        Ea, Eb = random_energy_states(m, rng, 300), random_energy_states(m, rng, 300)
        f = vt.bilinear_form(Ea, Eb, m)
        bound = vt.stored_energy(Ea, m) * vt.stored_energy(Eb, m)
        assert np.all(f * f <= bound * (1.0 + 1e-10) + 1e-12)


def test_response_image_energy_bound(rng):
    # |image|^2 <= 2 mu_M W(E), which also exercises the image-energy bound
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        spec = vt.spectrum(m)
        E = random_energy_states(m, rng, 300)
        g = vt.response(E, m)
        lhs = np.sum(g.S ** 2, axis=(0, 1)) + np.sum(g.h ** 2, axis=0) / m.chi + g.G ** 2
        rhs = 2.0 * spec.mu_M * vt.stored_energy(E, m)
        assert np.all(lhs <= rhs * (1.0 + 1e-10) + 1e-12)


def test_energy_rate_matches_finite_differences(rng):
    # smooth path: analytic rate vs centred differences, second order
    m = random_material(2, rng)
    E = random_energy_states(m, rng, 3)

    def path(t):
        c = [1.0, t, t * t]
        return energy_state(E.e @ c, E.gamma @ c, E.phi @ c)

    def rate(t):
        c = [0.0, 1.0, 2 * t]
        g = vt.response(path(t), m)
        return np.einsum("ij,ij->", g.S, E.e @ c) + g.h @ (E.gamma @ c) - g.G * (E.phi @ c)

    t0 = 0.37
    errs = []
    for dt in (1e-2, 5e-3):
        fd = (vt.stored_energy(path(t0 + dt), m) - vt.stored_energy(path(t0 - dt), m)) / (2 * dt)
        errs.append(abs(fd - rate(t0)))
    assert errs[0] / max(errs[1], 1e-16) == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# full response


def test_full_response_zero_and_theta_column(rng):
    m = random_material(3, rng)
    zero = cn.PointState.zero(3)
    r = vt.response(zero, m)
    assert np.all(r.S == 0.0) and np.all(r.h == 0.0) and r.g == 0.0 and r.rhoEta == 0.0

    theta_only = cn.PointState(e=np.zeros((3, 3)), gamma=np.zeros(3), kappa=np.zeros(3),
                               phi=0.0, phidot=0.0, theta=1.0)
    r = vt.response(theta_only, m)
    assert np.allclose(r.S, -m.M)
    assert np.allclose(r.h, -m.aVec)
    assert r.G == pytest.approx(m.m)
    assert r.rhoEta == pytest.approx(m.aHeat)
    assert np.all(r.q == 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_packed_response_matches_field_response(dim):
    # response is one matmul with response_matrix; the kernel it was read
    # off is the oracle, to 1e-13 of each state's largest component, and the
    # two bound checks read the same S, h and q
    rng = np.random.default_rng(60 + dim)
    m = random_material(dim, rng)
    spec = vt.spectrum(m)

    def close(got, want):
        # components stacked on axis 0, one column per state on the last axis
        got, want = (np.concatenate([np.reshape(x, (-1, x.shape[-1])) for x in xs])
                     for xs in (got, want))
        return np.all(np.abs(got - want).max(axis=0) <= 1e-13 * np.abs(want).max(axis=0))

    st = cn.random_point_state(m, rng, 50)
    S, h, G, q = cn.field_response(st.e, st.gamma, st.kappa, st.phi, st.theta, m)
    r = vt.response(st, m)
    assert close((r.S, r.h, r.G, r.q), (S, h, G, q))
    assert np.array_equal(r.g, m.tau * st.phidot + r.G)
    assert np.array_equal(r.rhoEta, cn.entropy_field(st.e, st.gamma, st.phi, st.theta, m))
    lhs, _ = cn.check_stress_bound(st, m, 1.0)
    assert close([lhs], [np.sum(S ** 2, axis=(0, 1)) + np.sum(h * h, axis=0) / m.chi])
    udot, normal = rng.normal(size=(dim, 50)), cn.random_unit_vector(dim, rng, 50)
    lhs, _ = cn.check_surface_power_bound(st, udot, normal, m,
                                          vt.zeta_of_lambda(spec, m, 2.0), 2.0)
    power = (np.einsum("ijn,jn,in->n", S, normal, udot) + np.sum(h * normal, axis=0) * st.phidot
             - st.theta * np.sum(q * normal, axis=0) / m.theta0)
    scale = (np.abs(S).max(axis=(0, 1)) + np.abs(h).max(axis=0) + np.abs(q).max(axis=0)) * (
        1.0 + np.abs(udot).max(axis=0) + np.abs(st.phidot) + np.abs(st.theta))
    assert np.all(abs(lhs - abs(power)) <= 1e-13 * scale)
    E = random_energy_states(m, rng, 50)
    Shat, hhat, Ghat, _ = cn.field_response(E.e, E.gamma, None, E.phi, E.theta, m)
    g = vt.response(E, m)
    assert close((g.S, g.h, g.G), (Shat, hhat, Ghat))
    assert g.S.shape == (dim, dim, 50) and g.G.shape == (50,)


@pytest.mark.parametrize("case", ["1D", "2D", "3D", "uncoupled"])
def test_batched_checks_equal_pointwise_loop(case):
    # a batch on a trailing axis is the loop of its single points: response,
    # stored_energy and the three bound checks on 40 states equal 40 calls
    # without node axes, whose results are 0-d, to 1e-13 of each point's
    # largest component; uncoupled has k_M = 0
    rng = np.random.default_rng(70)
    if case == "uncoupled":
        m = presets.uncoupled_elastic_material()
    else:
        m = random_material(int(case[0]), rng)
    spec = vt.spectrum(m, require="energy")
    decay = vt.zeta_of_lambda(spec, m, 2.0)
    n = 40
    st = cn.random_point_state(m, rng, n)
    udot, normal = rng.normal(size=(m.dim, n)), cn.random_unit_vector(m.dim, rng, n)

    def evaluate(s, u, nrm):
        r = vt.response(s, m)
        return (r.S, r.h, r.g, r.G, r.rhoEta, r.q, vt.stored_energy(s, m),
                *cn.check_flux_bound(s.kappa, m),
                *cn.check_stress_bound(s, m, 0.5),
                *cn.check_surface_power_bound(s, u, nrm, m, decay, 2.0))

    loop = [evaluate(point(st, k), udot[:, k], normal[:, k]) for k in range(n)]
    assert all(np.ndim(x) == np.ndim(y) - 1 for x, y in zip(loop[0], evaluate(st, udot, normal)))
    for got, points in zip(evaluate(st, udot, normal), zip(*loop)):
        want = np.stack(points, axis=-1)
        assert got.shape == want.shape
        err, size = (np.abs(x).reshape(-1, n).max(axis=0) for x in (got - want, want))
        assert np.all(err <= 1e-13 * size)


def test_point_state_shapes():
    # numbers given for kappa and the scalars are taken at every node; any
    # other shape, and any e, must match gamma's
    st = cn.PointState(e=np.zeros((2, 2, 5)), gamma=np.zeros((2, 5)), kappa=0.0, phi=1.0,
                       phidot=0.0, theta=0.0)
    assert st.kappa.shape == (2, 5) and st.phi.shape == (5,) and np.all(st.phi == 1.0)
    with pytest.raises(ValueError, match=r"expected \(2, 2, 5\)"):
        cn.PointState(e=np.zeros((2, 2)), gamma=np.zeros((2, 5)), kappa=0.0, phi=0.0,
                      phidot=0.0, theta=0.0)
    with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
        cn.PointState(e=np.zeros((3, 3)), gamma=np.zeros(2), kappa=0.0, phi=0.0,
                      phidot=0.0, theta=0.0)
    # a per-axis kappa (d,) is not read as one value per node, not even for n == d
    with pytest.raises(ValueError, match=r"kappa has shape \(2,\), expected \(2, 2\)"):
        cn.PointState(e=np.zeros((2, 2, 2)), gamma=np.zeros((2, 2)), kappa=[1.0, 2.0],
                      phi=0.0, phidot=0.0, theta=0.0)
    with pytest.raises(ValueError, match=r"phi has shape \(5,\), expected \(2, 5\)"):
        cn.PointState(e=np.zeros((2, 2, 2, 5)), gamma=np.zeros((2, 2, 5)), kappa=0.0,
                      phi=np.zeros(5), phidot=0.0, theta=0.0)


def test_rate_term():
    m = vt.Material(dim=1, C=1.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, tau=2.0)
    st = cn.PointState(e=[[0.0]], gamma=[0.0], kappa=[0.0], phi=0.0, phidot=3.0, theta=0.0)
    assert vt.response(st, m).g == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# inequality checks


def test_flux_bound_cases(rng):
    m = vt.Material(dim=2, C=np.einsum("ir,js->ijrs", np.eye(2), np.eye(2)),
                    A=np.eye(2), K=np.diag([2.0, 4.0]), rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    assert vt.check_flux_bound([0.0, 0.0], m) == (0.0, 0.0)
    lhs, rhs = vt.check_flux_bound([1.0, 0.0], m)
    assert (lhs, rhs) == (4.0, 8.0)
    # isotropic conductivity attains equality
    iso = vt.Material(dim=2, C=np.einsum("ir,js->ijrs", np.eye(2), np.eye(2)),
                      A=np.eye(2), K=3.0 * np.eye(2), rho=1.0, chi=1.0,
                      aHeat=1.0, theta0=1.0, xi=1.0)
    for _ in range(50):
        kappa = rng.normal(size=2)
        lhs, rhs = vt.check_flux_bound(kappa, iso)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_flux_bound_random(rng):
    for dim in (2, 3):
        m = random_material(dim, rng)
        for _ in range(500):
            lhs, rhs = vt.check_flux_bound(rng.normal(size=dim), m)
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


def test_tensor_splitting_inequality(rng):
    for eps in (0.1, 1.0, 10.0):
        for _ in range(500):
            L = rng.normal(size=(3, 3))
            F = rng.normal(size=(3, 3))
            lhs = float(np.sum((L + F) ** 2))
            rhs = (1 + eps) * float(np.sum(L ** 2)) + (1 + 1 / eps) * float(np.sum(F ** 2))
            assert lhs <= rhs * (1.0 + 1e-12)


def test_stress_bound(rng):
    m = random_material(2, rng)
    zero = cn.PointState.zero(2)
    assert vt.check_stress_bound(zero, m, 1.0) == (0.0, 0.0)
    with pytest.raises(vt.NonPositiveEpsilon):
        vt.check_stress_bound(zero, m, 0.0)
    for eps in (0.1, 1.0, 10.0):
        lhs, rhs = vt.check_stress_bound(cn.random_point_state(m, rng, 400), m, eps)
        assert np.all(lhs <= rhs * (1.0 + 1e-10) + 1e-12)


def test_stress_bound_reduces_without_temperature(rng):
    # theta = 0 removes the free-parameter term entirely
    m = random_material(3, rng)
    spec = vt.spectrum(m)
    st = dataclasses.replace(cn.random_point_state(m, rng, 300), theta=0.0)
    lhs, _ = vt.check_stress_bound(st, m, 1.0)
    wstar = vt.stored_energy(st, m)
    assert np.all(lhs <= 2.0 * spec.mu_M * wstar * (1.0 + 1e-10) + 1e-12)


def test_surface_power_bound(rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        spec = vt.spectrum(m)
        lam = 3.7
        decay = vt.zeta_of_lambda(spec, m, lam)
        zero = cn.PointState.zero(dim)
        lhs, rhs = vt.check_surface_power_bound(zero, np.zeros(dim), np.eye(dim)[0],
                                                m, decay, lam)
        assert (lhs, rhs) == (0.0, 0.0)
        st = cn.random_point_state(m, rng, 500)
        udot = rng.normal(size=(dim, 500))
        normal = cn.random_unit_vector(dim, rng, 500)
        lhs, rhs = vt.check_surface_power_bound(st, udot, normal, m, decay, lam)
        assert np.all(lhs <= rhs * (1.0 + 1e-10) + 1e-12)


def test_surface_power_bound_without_conduction(rng):
    # k_M = 0 sets eps2 = inf; the conduction term must be 0, not inf * 0
    m = presets.uncoupled_elastic_material()
    spec = vt.spectrum(m, require="energy")
    decay = vt.zeta_of_lambda(spec, m, 2.0)
    st = cn.random_point_state(m, rng, 200)
    lhs, rhs = vt.check_surface_power_bound(st, rng.normal(size=(1, 200)), [1.0], m, decay, 2.0)
    assert np.all(np.isfinite(rhs))
    assert np.all(lhs <= rhs * (1.0 + 1e-10) + 1e-12)


def test_surface_power_bound_velocity_only(rng):
    # pure velocity with zero stress: one-sided bound, kinetic term on rhs
    m = random_material(2, rng)
    spec = vt.spectrum(m)
    decay = vt.zeta_of_lambda(spec, m, 2.0)
    st = cn.PointState.zero(2)
    lhs, rhs = vt.check_surface_power_bound(st, [1.0, -2.0], [1.0, 0.0], m, decay, 2.0)
    assert lhs == 0.0
    assert rhs > 0.0
