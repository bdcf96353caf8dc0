import math

import numpy as np
import pytest

import voidtherm as vt
from voidtherm.material import (epsilon_residual, n_voigt, pack_coupling,
                                pack_elasticity, random_material,
                                unpack_coupling, unpack_elasticity, voigt_pairs)


def diag_material():
    # fully decoupled: quadratic form diag(2, 3, 5)
    return vt.Material(dim=1, C=2.0, A=3.0, K=1.0, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, xi=5.0)


def coupled_material():
    # strain/void-fraction coupling: 2x2 block [[2, 1], [1, 2]] plus lone 1
    return vt.Material(dim=1, C=2.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, xi=2.0, B=1.0)


def toy_material():
    # every spectral constant equals one, M2 = 0
    return vt.Material(dim=1, C=1.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, xi=1.0)


# ---------------------------------------------------------------------------
# validation


def test_validate_isotropic_like_clean():
    lam_e, mu_e = 1.2, 0.7
    eye = np.eye(3)
    C = (lam_e * np.einsum("ij,rs->ijrs", eye, eye)
         + mu_e * (np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye)))
    m = vt.Material(dim=3, C=C, A=np.eye(3), K=np.eye(3), rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    assert vt.validate(m).ok


def test_validate_flags_minor_symmetry():
    C = np.zeros((2, 2, 2, 2))
    C[0, 0, 0, 0] = C[1, 1, 1, 1] = 2.0
    C[0, 0, 0, 1] = 0.3  # C_1112 without the C_1211 partner
    m = vt.Material(dim=2, C=C, A=np.eye(2), K=np.eye(2), rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    rep = vt.validate(m)
    assert not rep.ok
    assert any("symmetry" in v.rule for v in rep.violations)


def test_validate_flags_indefinite_conductivity():
    # eigenvalues 3 and -1 by the 2x2 closed form
    m = vt.Material(dim=2, C=np.einsum("ir,js->ijrs", np.eye(2), np.eye(2)),
                    A=np.eye(2), K=[[1.0, 2.0], [2.0, 1.0]], rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    rep = vt.validate(m)
    assert any("K not positive definite" in v.rule for v in rep.violations)
    assert min(v.magnitude for v in rep.violations) == pytest.approx(-1.0, abs=1e-12)


def test_validate_flags_signs():
    m = vt.Material(dim=1, C=1.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, tau=-0.5)
    rep = vt.validate(m)
    assert any("tau" in v.rule for v in rep.violations)


# ---------------------------------------------------------------------------
# quadratic form and spectrum


def test_quadratic_form_diagonal_case():
    assert np.allclose(vt.assemble_quadratic_form(diag_material()), np.diag([2.0, 3.0, 5.0]))


def test_quadratic_form_coupled_case():
    Q = vt.assemble_quadratic_form(coupled_material())
    assert np.allclose(Q, [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])


def test_quadratic_form_symmetric_random(rng):
    for dim in (1, 2, 3):
        Q = vt.assemble_quadratic_form(random_material(dim, rng))
        assert np.array_equal(Q, Q.T)
        assert Q.shape[0] == n_voigt(dim) + dim + 1


def test_symmetric_basis_cached_per_dimension():
    from voidtherm.material import symmetric_basis

    for dim in (1, 2, 3):
        basis = symmetric_basis(dim)
        assert symmetric_basis(dim) is basis and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 0.0
        # orthonormal symmetric tensors, one per Voigt pair
        assert basis.shape == (n_voigt(dim), dim, dim)
        assert np.array_equal(basis, basis.swapaxes(1, 2))
        assert np.allclose(np.einsum("aij,bij->ab", basis, basis), np.eye(n_voigt(dim)),
                           rtol=0.0, atol=1e-15)


def test_quadratic_form_cached_per_material(rng):
    from voidtherm import constitutive as cn
    from voidtherm.material import assemble_quadratic_form

    m = random_material(3, rng)
    Q = assemble_quadratic_form(m)  # random_material may have assembled it already
    assert assemble_quadratic_form(m) is Q and not Q.flags.writeable
    with pytest.raises(ValueError):
        Q[0, 0] = 0.0

    fresh = vt.Material(dim=m.dim, C=m.C, A=m.A, K=m.K, rho=m.rho, chi=m.chi,
                        aHeat=m.aHeat, theta0=m.theta0, xi=m.xi)
    before = assemble_quadratic_form.cache_info().misses
    Ea, Eb = cn.random_point_state(fresh, rng, 1), cn.random_point_state(fresh, rng, 1)
    for _ in range(100):
        vt.bilinear_form(Ea, Eb, fresh)
    assert assemble_quadratic_form.cache_info().misses - before == 1


def test_spectrum_examples():
    s = vt.spectrum(diag_material())
    assert (s.mu_m, s.mu_M) == (2.0, 5.0)
    s = vt.spectrum(coupled_material())
    assert s.mu_m == pytest.approx(1.0, abs=1e-12)
    assert s.mu_M == pytest.approx(3.0, abs=1e-12)
    m = vt.Material(dim=1, C=1.0, A=1.0, K=np.atleast_2d(2.0), rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    m3 = vt.Material(dim=3, C=np.einsum("ir,js->ijrs", np.eye(3), np.eye(3)),
                     A=np.eye(3), K=np.diag([2.0, 3.0, 4.0]), rho=1.0, chi=4.0,
                     aHeat=1.0, theta0=1.0, xi=1.0,
                     M=np.diag([3.0, 0.0, 0.0]), aVec=[4.0, 0.0, 0.0])
    s3 = vt.spectrum(m3)
    assert (s3.k_m, s3.k_M) == (2.0, 4.0)
    assert s3.M2 == pytest.approx(9.0 + 16.0 / 4.0, abs=1e-14)


def test_spectrum_rayleigh_oracle():
    # coupled case cross-checked by random Rayleigh quotients
    rng = np.random.default_rng(3)
    m = coupled_material()
    Q = vt.assemble_quadratic_form(m)
    s = vt.spectrum(m)
    z = rng.normal(size=(10_000, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = np.einsum("ki,ij,kj->k", z, Q, z)
    assert r.min() >= s.mu_m - 1e-9
    assert r.max() <= s.mu_M + 1e-9


def test_spectrum_raises_indefinite():
    m = vt.Material(dim=1, C=-1.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    with pytest.raises(vt.NotPositiveDefinite):
        vt.spectrum(m)
    m = vt.Material(dim=1, C=1.0, A=1.0, K=0.0, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    with pytest.raises(vt.NotPositiveDefinite):
        vt.spectrum(m)
    # the stepper-facing mode tolerates degenerate conductivity
    assert vt.spectrum(m, require="energy").k_M == 0.0


def test_scaling_homogeneity(rng):
    m = random_material(2, rng)
    s = vt.spectrum(m)
    s4 = vt.spectrum(m.scaled(4.0))
    assert s4.mu_m == pytest.approx(4.0 * s.mu_m, rel=1e-12)
    assert s4.mu_M == pytest.approx(4.0 * s.mu_M, rel=1e-12)


# ---------------------------------------------------------------------------
# decay constants


def test_epsilon_closed_form_examples():
    toy = toy_material()
    s = vt.spectrum(toy)
    assert vt.epsilon_of_lambda(s, toy, 4.0) == pytest.approx(1.0, abs=1e-14)
    assert vt.epsilon_of_lambda(s, toy, 1.0) == 0.0


def test_epsilon_back_substitution(rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        s = vt.spectrum(m)
        for lam in np.geomspace(1e-2, 1e6, 17):
            eps = vt.epsilon_of_lambda(s, m, float(lam))
            res = abs(epsilon_residual(eps, s, m, float(lam)))
            assert res <= 1e-12 * max(1.0, eps ** 2)


def test_epsilon_monotone_in_lambda_and_coupling(rng):
    m = random_material(2, rng)
    s = vt.spectrum(m)
    lams = np.geomspace(0.1, 1e4, 25)
    eps = [vt.epsilon_of_lambda(s, m, float(l)) for l in lams]
    assert all(b >= a - 1e-13 for a, b in zip(eps, eps[1:]))
    # monotone in the thermal coupling bound as well
    from voidtherm.material import Spectrum
    stronger = Spectrum(mu_m=s.mu_m, mu_M=s.mu_M, k_m=s.k_m, k_M=s.k_M, M2=s.M2 + 1.0)
    for lam in (0.5, 3.0, 40.0):
        assert (vt.epsilon_of_lambda(stronger, m, lam)
                >= vt.epsilon_of_lambda(s, m, lam) - 1e-13)


def test_zeta_examples_and_constants():
    toy = toy_material()
    s = vt.spectrum(toy)
    d1 = vt.zeta_of_lambda(s, toy, 1.0)
    assert d1.zeta == pytest.approx(1.0, abs=1e-14)
    assert d1.decay_rate == pytest.approx(1.0, abs=1e-14)
    d4 = vt.zeta_of_lambda(s, toy, 4.0)
    assert d4.zeta == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert d4.decay_rate == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-14)
    # balancing constants hold exactly
    assert d4.eps1 * d4.zeta == pytest.approx(1.0, rel=1e-15)
    assert d4.eps2 * 4.0 * s.k_M == pytest.approx(2.0 * toy.aHeat * d4.zeta, rel=1e-15)


def test_zeta_large_lambda_asymptote():
    toy = toy_material()
    s = vt.spectrum(toy)
    d = vt.zeta_of_lambda(s, toy, 1e6)
    target = math.sqrt(s.k_M / (2.0 * toy.theta0 * toy.aHeat * toy.rho))
    assert d.zeta / math.sqrt(1e6) == pytest.approx(target, rel=0.01)


def test_zeta_monotone_rate(rng):
    m = random_material(1, rng)
    s = vt.spectrum(m)
    lams = np.geomspace(0.5, 1e5, 30)
    decs = [vt.zeta_of_lambda(s, m, float(l)) for l in lams]
    zetas = [d.zeta for d in decs]
    assert all(b >= a - 1e-12 for a, b in zip(zetas, zetas[1:]))
    rates = [d.decay_rate for d in decs]
    threshold = [d.epsilon > 1e-9 for d in decs]
    pairs = [(r1, r2) for (r1, r2, t) in zip(rates, rates[1:], threshold) if t]
    assert all(r2 >= r1 - 1e-10 for r1, r2 in pairs)


# ---------------------------------------------------------------------------
# feasibility window


def test_feasibility_window_examples():
    assert vt.feasibility_window(1.0, 1.0, 2.0, 1.0) == (0.0, 1.0)
    with pytest.raises(vt.InfeasibleWindow):
        vt.feasibility_window(1.0, 3.0, 2.0, 0.0)
    t0_min, t0_max = vt.feasibility_window(2.0, 2.0, 1.0, 0.0)
    assert t0_min == pytest.approx(1.0)
    assert t0_max == pytest.approx(1.0)
    # a negative r0 pushes T - r0/zeta past T: the bound is clamped to T
    # before the interval is tested, so [1.5, 1] is empty
    with pytest.raises(vt.InfeasibleWindow):
        vt.feasibility_window(1.0, 1.0, 1.0, -0.5)
    assert vt.feasibility_window(1.0, 1.0, 2.0, -0.5) == (1.5, 2.0)


# ---------------------------------------------------------------------------
# packing and files


def test_packed_round_trip(rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        assert np.allclose(unpack_elasticity(pack_elasticity(m.C, dim), dim), m.C)
        assert np.allclose(unpack_coupling(pack_coupling(m.D, dim), dim), m.D)
        assert pack_elasticity(m.C, dim).shape == (n_voigt(dim),) * 2


def test_voigt_pair_order():
    assert voigt_pairs(2) == [(0, 0), (1, 1), (0, 1)]
    assert voigt_pairs(3)[:3] == [(0, 0), (1, 1), (2, 2)]


def test_material_file_round_trip(tmp_path, rng):
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        path = tmp_path / f"mat{dim}.mat"
        vt.write_material_file(m, path)
        back = vt.read_material_file(path)
        for name in ("C", "D", "A", "B", "b", "M", "aVec", "K"):
            assert np.array_equal(getattr(back, name), getattr(m, name)), name
        for name in ("rho", "chi", "aHeat", "theta0", "xi", "m", "tau"):
            assert getattr(back, name) == getattr(m, name)


def test_material_file_rejects_missing_and_extra(tmp_path, rng):
    m = random_material(1, rng)
    path = tmp_path / "m.mat"
    vt.write_material_file(m, path)
    lines = path.read_text().splitlines()

    (tmp_path / "missing.mat").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(vt.MaterialFileError, match="missing"):
        vt.read_material_file(tmp_path / "missing.mat")

    (tmp_path / "extra.mat").write_text("\n".join(lines + ["bogus = 1"]) + "\n")
    with pytest.raises(vt.MaterialFileError, match="bogus"):
        vt.read_material_file(tmp_path / "extra.mat")

    (tmp_path / "dup.mat").write_text("\n".join(lines + [lines[-1]]) + "\n")
    with pytest.raises(vt.MaterialFileError, match="duplicate"):
        vt.read_material_file(tmp_path / "dup.mat")


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="expected shape"):
        vt.Material(dim=2, C=np.zeros((2, 2, 2, 3)), A=np.eye(2), K=np.eye(2),
                    rho=1.0, chi=1.0, aHeat=1.0, theta0=1.0)
    with pytest.raises(ValueError, match="dim"):
        vt.Material(dim=4, C=np.zeros((4,) * 4), A=np.eye(4), K=np.eye(4),
                    rho=1.0, chi=1.0, aHeat=1.0, theta0=1.0)


def test_nonpositive_lambda_rejected():
    toy = toy_material()
    s = vt.spectrum(toy)
    with pytest.raises(ValueError):
        vt.epsilon_of_lambda(s, toy, 0.0)
