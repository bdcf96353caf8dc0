import math

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import constitutive as cn
from voidtherm import presets
from voidtherm.material import random_material, voigt_pairs


def simple_1d():
    return vt.Material(dim=1, C=2.0, A=3.0, K=1.0, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, D=1.0)


# ---------------------------------------------------------------------------
# generalized response


def test_response_at_origin(rng):
    m = random_material(3, rng)
    g = vt.generalized_response(cn.KinematicVector.zero(3), m)
    assert np.all(g.Shat == 0.0) and np.all(g.hhat == 0.0) and g.Ghat == 0.0


def test_hand_evaluated_1d():
    m = simple_1d()
    E = cn.KinematicVector(E=[[1.0]], pi=[2.0], psi=0.0)
    g = vt.generalized_response(E, m)
    assert g.Shat[0, 0] == pytest.approx(4.0)  # 2*1 + 1*2
    assert g.hhat[0] == pytest.approx(7.0)     # 1*1 + 3*2
    assert g.Ghat == 0.0


def test_components_recoverable_from_bilinear_form(rng):
    # independent evaluation path: pair against basis elements
    m = random_material(2, rng)
    E = cn.random_kinematic(m, rng)
    g = vt.generalized_response(E, m)
    for i, j in voigt_pairs(2):
        basis = np.zeros((2, 2))
        basis[i, j] = basis[j, i] = 1.0
        Eb = cn.KinematicVector(E=basis, pi=np.zeros(2), psi=0.0)
        expect = g.Shat[i, j] * (1.0 if i == j else 2.0)
        assert 2.0 * vt.bilinear_form(E, Eb, m) == pytest.approx(expect, rel=1e-12, abs=1e-12)
    for k in range(2):
        pi = np.zeros(2)
        pi[k] = 1.0
        Eb = cn.KinematicVector(E=np.zeros((2, 2)), pi=pi, psi=0.0)
        assert 2.0 * vt.bilinear_form(E, Eb, m) == pytest.approx(g.hhat[k], rel=1e-12, abs=1e-12)
    Eb = cn.KinematicVector(E=np.zeros((2, 2)), pi=np.zeros(2), psi=1.0)
    assert 2.0 * vt.bilinear_form(E, Eb, m) == pytest.approx(-g.Ghat, rel=1e-12, abs=1e-12)


def test_linearity(rng):
    m = random_material(3, rng)
    E1, E2 = cn.random_kinematic(m, rng), cn.random_kinematic(m, rng)
    a, b = rng.normal(), rng.normal()
    combo = cn.KinematicVector(E=a * E1.E + b * E2.E, pi=a * E1.pi + b * E2.pi,
                               psi=a * E1.psi + b * E2.psi)
    g1, g2, gc = (vt.generalized_response(E, m) for E in (E1, E2, combo))
    assert np.allclose(gc.Shat, a * g1.Shat + b * g2.Shat, atol=1e-12)
    assert np.allclose(gc.hhat, a * g1.hhat + b * g2.hhat, atol=1e-12)
    assert gc.Ghat == pytest.approx(a * g1.Ghat + b * g2.Ghat, abs=1e-12)


def test_image_stays_in_the_space(rng):
    m = random_material(2, rng)
    g = vt.generalized_response(cn.random_kinematic(m, rng), m)
    assert np.allclose(g.Shat, g.Shat.T)
    assert g.hhat.shape == (2,) and isinstance(g.Ghat, float)


# ---------------------------------------------------------------------------
# bilinear form and stored energy


def test_bilinear_form_zero_and_symmetry(rng):
    m = random_material(3, rng)
    E = cn.random_kinematic(m, rng)
    zero = cn.KinematicVector.zero(3)
    assert vt.bilinear_form(E, zero, m) == 0.0
    for _ in range(200):
        Ea, Eb = cn.random_kinematic(m, rng), cn.random_kinematic(m, rng)
        fab, fba = vt.bilinear_form(Ea, Eb, m), vt.bilinear_form(Eb, Ea, m)
        wa, wb = vt.stored_energy(Ea, m), vt.stored_energy(Eb, m)
        assert abs(fab - fba) <= 1e-12 * (abs(wa) + abs(wb) + 1.0)


def test_bilinear_equals_half_pairing(rng):
    m = random_material(2, rng)
    for _ in range(100):
        Ea, Eb = cn.random_kinematic(m, rng), cn.random_kinematic(m, rng)
        g = vt.generalized_response(Ea, m)
        pairing = (np.einsum("ij,ij->", g.Shat, Eb.E) + g.hhat @ Eb.pi - g.Ghat * Eb.psi)
        assert vt.bilinear_form(Ea, Eb, m) == pytest.approx(0.5 * pairing, rel=1e-12, abs=1e-13)


def test_stored_energy_examples(rng):
    m3 = vt.Material(dim=1, C=2.0, A=3.0, K=1.0, rho=1.0, chi=1.0,
                     aHeat=1.0, theta0=1.0, xi=5.0)
    z_first = cn.KinematicVector(E=[[1.0]], pi=[0.0], psi=0.0)
    assert vt.stored_energy(z_first, m3) == pytest.approx(1.0)  # z^T Q z / 2 = 2/2
    assert vt.stored_energy(cn.KinematicVector.zero(1), m3) == 0.0

    m = random_material(3, rng)
    Q = vt.assemble_quadratic_form(m)
    spec = vt.spectrum(m)
    for _ in range(200):
        E = cn.random_kinematic(m, rng)
        z = E.scaled_coords(m)
        assert 2.0 * vt.stored_energy(E, m) == pytest.approx(z @ Q @ z, rel=1e-11, abs=1e-12)
        assert 2.0 * vt.stored_energy(E, m) >= spec.mu_m * (z @ z) - 1e-9


def test_cauchy_schwarz(rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        for _ in range(300):
            Ea, Eb = cn.random_kinematic(m, rng), cn.random_kinematic(m, rng)
            f = vt.bilinear_form(Ea, Eb, m)
            bound = vt.stored_energy(Ea, m) * vt.stored_energy(Eb, m)
            assert f * f <= bound * (1.0 + 1e-10) + 1e-12


def test_response_image_energy_bound(rng):
    # |image|^2 <= 2 mu_M W(E), which also exercises the image-energy bound
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        spec = vt.spectrum(m)
        for _ in range(300):
            E = cn.random_kinematic(m, rng)
            g = vt.generalized_response(E, m)
            lhs = float(np.sum(g.Shat ** 2) + g.hhat @ g.hhat / m.chi + g.Ghat ** 2)
            rhs = 2.0 * spec.mu_M * vt.stored_energy(E, m)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def test_energy_rate_matches_finite_differences(rng):
    # smooth path: analytic rate vs centred differences, second order
    m = random_material(2, rng)
    E0, E1, E2 = (cn.random_kinematic(m, rng) for _ in range(3))

    def path(t):
        return cn.KinematicVector(E=E0.E + t * E1.E + t * t * E2.E,
                                  pi=E0.pi + t * E1.pi + t * t * E2.pi,
                                  psi=E0.psi + t * E1.psi + t * t * E2.psi)

    def rate(t):
        dot = cn.KinematicVector(E=E1.E + 2 * t * E2.E, pi=E1.pi + 2 * t * E2.pi,
                                 psi=E1.psi + 2 * t * E2.psi)
        g = vt.generalized_response(path(t), m)
        return float(np.einsum("ij,ij->", g.Shat, dot.E) + g.hhat @ dot.pi - g.Ghat * dot.psi)

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
    # response and generalized_response are one matvec with response_matrix;
    # the kernel they were read off is the oracle, to 1e-13 of the largest
    # component, and the two bound checks read the same S, h and q
    rng = np.random.default_rng(60 + dim)
    m = random_material(dim, rng)
    spec = vt.spectrum(m)

    def close(got, want):
        got, want = (np.concatenate([np.ravel(x) for x in xs]) for xs in (got, want))
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    for _ in range(50):
        st = cn.random_point_state(m, rng)
        S, h, G, q = cn.field_response(st.e, st.gamma, st.kappa, st.phi, st.theta, m)
        r = vt.response(st, m)
        assert close((r.S, r.h, r.G, r.q), (S, h, G, q))
        assert r.g == m.tau * st.phidot + r.G
        assert r.rhoEta == float(cn.entropy_field(st.e, st.gamma, st.phi, st.theta, m))
        lhs, _ = cn.check_stress_bound(st, m, 1.0, spec=spec)
        assert close([lhs], [np.sum(S ** 2) + h @ h / m.chi])
        udot, normal = rng.normal(size=dim), cn.random_unit_vector(dim, rng)
        lhs, _ = cn.check_surface_power_bound(st, udot, normal, m,
                                              vt.zeta_of_lambda(spec, m, 2.0), 2.0, spec=spec)
        power = (S @ normal) @ udot + (h @ normal) * st.phidot - st.theta * (q @ normal) / m.theta0
        scale = (np.abs(S).max() + np.abs(h).max() + np.abs(q).max()) * (
            1.0 + np.abs(udot).max() + abs(st.phidot) + abs(st.theta))
        assert abs(lhs - abs(power)) <= 1e-13 * scale
        E = cn.random_kinematic(m, rng)
        Shat, hhat, Ghat, _ = cn.field_response(E.E, E.pi, None, E.psi, 0.0, m)
        g = vt.generalized_response(E, m)
        assert close((g.Shat, g.hhat, g.Ghat), (Shat, hhat, Ghat))
        assert g.Shat.shape == (dim, dim) and isinstance(g.Ghat, float)


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
        spec = vt.spectrum(m)
        for _ in range(500):
            lhs, rhs = vt.check_flux_bound(rng.normal(size=dim), m, spec=spec)
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
    spec = vt.spectrum(m)
    zero = cn.PointState.zero(2)
    assert vt.check_stress_bound(zero, m, 1.0, spec=spec) == (0.0, 0.0)
    with pytest.raises(vt.NonPositiveEpsilon):
        vt.check_stress_bound(zero, m, 0.0)
    for eps in (0.1, 1.0, 10.0):
        for _ in range(400):
            st = cn.random_point_state(m, rng)
            lhs, rhs = vt.check_stress_bound(st, m, eps, spec=spec)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def test_stress_bound_reduces_without_temperature(rng):
    # theta = 0 removes the free-parameter term entirely
    m = random_material(3, rng)
    spec = vt.spectrum(m)
    for _ in range(300):
        st = cn.random_point_state(m, rng)
        st = cn.PointState(e=st.e, gamma=st.gamma, kappa=st.kappa,
                           phi=st.phi, phidot=st.phidot, theta=0.0)
        lhs, _ = vt.check_stress_bound(st, m, 1.0, spec=spec)
        wstar = vt.stored_energy(st.kinematic(), m)
        assert lhs <= 2.0 * spec.mu_M * wstar * (1.0 + 1e-10) + 1e-12


def test_surface_power_bound(rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        spec = vt.spectrum(m)
        lam = 3.7
        decay = vt.zeta_of_lambda(spec, m, lam)
        zero = cn.PointState.zero(dim)
        lhs, rhs = vt.check_surface_power_bound(zero, np.zeros(dim), np.eye(dim)[0],
                                                m, decay, lam, spec=spec)
        assert (lhs, rhs) == (0.0, 0.0)
        for _ in range(500):
            st = cn.random_point_state(m, rng)
            udot = rng.normal(size=dim)
            normal = cn.random_unit_vector(dim, rng)
            lhs, rhs = vt.check_surface_power_bound(st, udot, normal, m, decay, lam, spec=spec)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def test_surface_power_bound_without_conduction(rng):
    # k_M = 0 sets eps2 = inf; the conduction term must be 0, not inf * 0
    m = presets.uncoupled_elastic_material()
    spec = vt.spectrum(m, require="energy")
    decay = vt.zeta_of_lambda(spec, m, 2.0)
    for _ in range(200):
        st = cn.random_point_state(m, rng)
        lhs, rhs = vt.check_surface_power_bound(st, rng.normal(size=1), [1.0], m, decay, 2.0,
                                                spec=spec)
        assert math.isfinite(rhs)
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def test_surface_power_bound_velocity_only(rng):
    # pure velocity with zero stress: one-sided bound, kinetic term on rhs
    m = random_material(2, rng)
    spec = vt.spectrum(m)
    decay = vt.zeta_of_lambda(spec, m, 2.0)
    st = cn.PointState.zero(2)
    lhs, rhs = vt.check_surface_power_bound(st, [1.0, -2.0], [1.0, 0.0], m, decay, 2.0,
                                            spec=spec)
    assert lhs == 0.0
    assert rhs > 0.0
