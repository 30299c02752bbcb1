"""RC thermal model: dynamics, packing, coefficient Jacobians."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsched import rc
from conftest import fd_gradient, rel_err


def random_theta(rng, z):
    alpha = np.eye(z) + rng.normal(0, 0.05, size=(z, z))
    return rc.ThetaParams(
        alpha=alpha,
        eta_h=rng.uniform(0.5, 1.2, size=z),
        eta_c=rng.uniform(0.5, 1.2, size=z),
        r=rng.uniform(2.0, 8.0, size=z),
        c=rng.uniform(1.0, 5.0, size=z),
    )


class TestRcStep:
    def test_fixed_point_identity_alpha(self):
        # alpha = I supplies exact carryover; no driving terms
        z = 3
        theta = rc.ThetaParams(np.eye(z), np.ones(z), np.ones(z),
                               np.full(z, 5.0), np.full(z, 3.0))
        tau = np.full(z, 20.0)
        out = rc.rc_step(theta, tau, 20.0, np.zeros(z), np.zeros(z))
        np.testing.assert_allclose(out, tau, atol=1e-12)

    def test_energy_balance_single_zone(self):
        # 2 kW for 1 h into 1 kWh/degC raises the zone by 2 degC
        theta = rc.ThetaParams([[1.0]], [1.0], [1.0], [1e6], [1.0])
        out = rc.rc_step(theta, [20.0], 20.0, [2.0], [0.0])
        np.testing.assert_allclose(out, [22.0], atol=1e-3)

    def test_matches_matrix_form_oracle(self, rng):
        # independent dense evaluation tau' = M1 tau + M2 p + m3 over one
        # hour, built here from first principles
        z = 4
        theta = random_theta(rng, z)
        tau = rng.uniform(15, 25, size=z)
        amb = 5.0
        p_h = rng.uniform(0, 3, size=z)
        p_c = rng.uniform(0, 3, size=z)

        m1 = theta.alpha - np.diag(1.0 / (theta.r * theta.c))
        m2h = np.diag(theta.eta_h / theta.c)
        m2c = np.diag(-theta.eta_c / theta.c)
        m3 = amb / (theta.r * theta.c)
        oracle = m1 @ tau + m2h @ p_h + m2c @ p_c + m3

        out = rc.rc_step(theta, tau, amb, p_h, p_c)
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-2.0, 3.0))
    def test_affine_in_inputs(self, a):
        # affine combinations with a + b = 1 commute with the step map
        rng = np.random.default_rng(0)
        z = 3
        theta = random_theta(rng, z)
        b = 1.0 - a
        tau1, tau2 = rng.uniform(10, 30, (2, z))
        amb1, amb2 = 0.0, 14.0
        ph1, ph2 = rng.uniform(0, 4, (2, z))
        pc1, pc2 = rng.uniform(0, 4, (2, z))
        mixed = rc.rc_step(theta, a * tau1 + b * tau2, a * amb1 + b * amb2,
                           a * ph1 + b * ph2, a * pc1 + b * pc2)
        parts = a * rc.rc_step(theta, tau1, amb1, ph1, pc1) \
            + b * rc.rc_step(theta, tau2, amb2, ph2, pc2)
        np.testing.assert_allclose(mixed, parts, atol=1e-10)

    def test_monotone_heating(self, rng):
        z = 3
        theta = random_theta(rng, z)
        tau = rng.uniform(15, 25, size=z)
        p_h = rng.uniform(0, 2, size=z)
        base = rc.rc_step(theta, tau, 0.0, p_h, np.zeros(z))
        for zone in range(z):
            bumped = p_h.copy()
            bumped[zone] += 0.5
            out = rc.rc_step(theta, tau, 0.0, bumped, np.zeros(z))
            assert out[zone] > base[zone]
            np.testing.assert_allclose(np.delete(out, zone), np.delete(base, zone))


class TestRollout:
    def test_zero_steps_returns_initial(self):
        theta = rc.ThetaParams([[1.0]], [1.0], [1.0], [5.0], [3.0])
        out = rc.rollout(theta, [19.0], np.zeros(0), np.zeros((0, 1)), np.zeros((0, 1)))
        np.testing.assert_array_equal(out, [[19.0]])

    def test_constant_at_fixed_point(self):
        z, steps = 3, 24
        theta = rc.ThetaParams(np.eye(z), np.ones(z), np.ones(z),
                               np.full(z, 5.0), np.full(z, 3.0))
        out = rc.rollout(theta, np.full(z, 20.0), np.full(steps, 20.0),
                         np.zeros((steps, z)), np.zeros((steps, z)))
        np.testing.assert_allclose(out, 20.0, atol=1e-9)

    def test_recomposition_oracle(self, rng):
        z, steps = 15, 24
        theta = random_theta(rng, z)
        tau0 = rng.uniform(15, 25, size=z)
        amb = rng.uniform(-5, 30, size=steps)
        p_h = rng.uniform(0, 4, size=(steps, z))
        p_c = rng.uniform(0, 4, size=(steps, z))
        out = rc.rollout(theta, tau0, amb, p_h, p_c)
        state = tau0
        for t in range(steps):
            state = rc.rc_step(theta, state, amb[t], p_h[t], p_c[t])
        np.testing.assert_allclose(out[-1], state, atol=1e-12)


class TestPackUnpack:
    def test_flat_length_dense_15_zones(self, rng):
        theta = random_theta(rng, 15)
        assert rc.pack(theta).shape == (15 * 15 + 4 * 15,)

    def test_unit_params_log_to_zero(self):
        theta = rc.ThetaParams([[1.0]], [1.0], [1.0], [1.0], [1.0])
        flat = rc.pack(theta)
        np.testing.assert_array_equal(flat[1:], np.zeros(4))

    def test_round_trip_bitwise(self, rng):
        theta = random_theta(rng, 6)
        flat = rc.pack(theta)
        back = rc.unpack(flat, theta.num_zones)
        np.testing.assert_allclose(back.alpha, theta.alpha, rtol=1e-15)
        np.testing.assert_allclose(back.eta_h, theta.eta_h, rtol=1e-15)
        np.testing.assert_allclose(back.eta_c, theta.eta_c, rtol=1e-15)
        np.testing.assert_allclose(back.r, theta.r, rtol=1e-15)
        np.testing.assert_allclose(back.c, theta.c, rtol=1e-15)
        np.testing.assert_array_equal(rc.pack(back), flat)

    def test_length_mismatch_rejected(self, rng):
        theta = random_theta(rng, 3)
        with pytest.raises(rc.RcError):
            rc.unpack(rc.pack(theta)[:-1], 3)

    def test_positivity_enforced(self):
        with pytest.raises(rc.RcError):
            rc.ThetaParams([[1.0]], [0.0], [1.0], [1.0], [1.0])

    @pytest.mark.parametrize("name", ["eta_h", "eta_c", "r", "c"])
    def test_infinite_parameter_rejected(self, name):
        values = {key: [1.0] for key in ("eta_h", "eta_c", "r", "c")}
        values[name] = [np.inf]
        with pytest.raises(rc.RcError, match=f"^{name} must be finite$"):
            rc.ThetaParams([[1.0]], **values)
        with pytest.raises(rc.RcError, match="alpha must be finite"):
            rc.ThetaParams([[np.nan]], [1.0], [1.0], [1.0], [1.0])


class TestCoefficientJacobian:
    def test_ambient_coefficient_wrt_log_r(self):
        # d(1/(RC))/dlog R = -1/(RC)
        theta = rc.ThetaParams([[1.0]], [1.0], [1.0], [4.0], [2.0])
        jac = rc.coefficient_jacobian(theta).toarray()
        leak = 1.0 / (4.0 * 2.0)
        row_amb = 1 * 1 + 2 * 1  # after m_tau and m_ph, m_pc blocks
        col_log_r = 1 + 2  # after alpha and the two eta entries
        assert jac[row_amb, col_log_r] == pytest.approx(-leak)

    def test_injection_coefficient_wrt_log_c(self):
        # d(eta_h/C)/dlog C = -eta_h/C
        theta = rc.ThetaParams([[1.0]], [0.8], [1.0], [4.0], [2.0])
        jac = rc.coefficient_jacobian(theta).toarray()
        inj = 0.8 / 2.0
        row_ph = 1  # first m_ph row
        col_log_c = 1 + 3
        assert jac[row_ph, col_log_c] == pytest.approx(-inj)

    def test_full_map_finite_differences(self, rng):
        for theta in (random_theta(rng, 2), random_theta(rng, 4)):
            flat0 = rc.pack(theta)
            jac = rc.coefficient_jacobian(theta).toarray()
            assert jac.shape == (theta.num_zones * (theta.num_zones + 3), len(flat0))

            def coeffs(flat):
                sc = rc.step_coefficients(rc.unpack(flat, theta.num_zones))
                return np.concatenate([sc.m_tau.ravel(), sc.m_ph, sc.m_pc, sc.m_amb])

            eps = 1e-7
            for k in range(len(flat0)):
                up, dn = flat0.copy(), flat0.copy()
                up[k] += eps
                dn[k] -= eps
                fd = (coeffs(up) - coeffs(dn)) / (2 * eps)
                assert rel_err(fd, jac[:, k]) <= 1e-6, f"z={theta.num_zones} param {k}"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        theta = random_theta(rng, 5)
        path = tmp_path / "theta.json"
        rc.save_checkpoint(theta, path)
        back = rc.load_checkpoint(path)
        np.testing.assert_array_equal(back.alpha, theta.alpha)
        np.testing.assert_array_equal(back.eta_h, theta.eta_h)
        np.testing.assert_array_equal(back.eta_c, theta.eta_c)
        np.testing.assert_array_equal(back.r, theta.r)
        np.testing.assert_array_equal(back.c, theta.c)

    def test_alpha_mask_key_null_and_a_mask_rejected(self, rng, tmp_path):
        """rc-theta-v1 keeps its alpha_mask key, always null; a checkpoint
        that restricts alpha is refused rather than loaded dense."""
        path = tmp_path / "theta.json"
        rc.save_checkpoint(random_theta(rng, 3), path)
        doc = json.loads(path.read_text())
        assert "alpha_mask" in doc and doc["alpha_mask"] is None
        doc["alpha_mask"] = np.eye(3, dtype=bool).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(rc.RcError, match="alpha mask"):
            rc.load_checkpoint(path)

    def test_log_space_key_false_and_log_space_rejected(self, rng, tmp_path):
        """rc-theta-v1 keeps its log_space key, always false; a checkpoint
        that stores log eta/r/c is refused rather than exponentiated."""
        path = tmp_path / "theta.json"
        rc.save_checkpoint(random_theta(rng, 3), path)
        doc = json.loads(path.read_text())
        assert doc["log_space"] is False
        doc["log_space"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(rc.RcError, match="log-space"):
            rc.load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(rc.RcError):
            rc.load_checkpoint(path)


class TestTopology:
    def test_default_case_study_shape(self):
        topo = rc.default_topology(15)
        assert topo.num_zones == 15
        assert topo.num_floors == 3
        assert all(len(f) == 5 for f in topo.floors)

    def test_zone_in_two_floors_rejected(self):
        with pytest.raises(rc.RcError):
            rc.ZoneTopology(4, ((0, 1), (1, 2)))
