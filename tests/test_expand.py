import numpy as np
import pytest

from deepwkb.expand import (CharState, SolverFailure, char_step, discrete_action,
                            hamiltonian, min_action_estimate, min_action_scan,
                            seed_characteristics, trace_curves)
from deepwkb.models import SdeSystem, make_benchmark

from conftest import AnalyticQp, curve_arrays, figure8_quasipotential

OU_DOMAIN = (np.array([-5.0]), np.array([5.0]))


def ou_oracle():
    return AnalyticQp(
        v_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2,
        grad_fn=lambda x: 2.0 * np.atleast_2d(x),
        hess_fn=lambda x: np.broadcast_to(2.0 * np.eye(1), (np.atleast_2d(x).shape[0], 1, 1)),
    )


def trace_one(system, init, *args, **kwargs):
    (curve,) = trace_curves(system, [init], *args, **kwargs)
    return curve


def test_hand_computed_implicit_step(ou1d):
    # H = -x p + p^2/2, h = 0.1 from (0.1, 0.2): the x-update is implicit,
    # x1 (1 + h) = x0 + h p0.
    x, p, dv, converged = char_step(ou1d, np.array([[0.1]]), np.array([[0.2]]), 0.1)
    assert converged.tolist() == [True]
    assert x[0, 0] == pytest.approx(0.12 / 1.1, abs=1e-12)
    assert p[0, 0] == pytest.approx(0.22, abs=1e-15)
    assert hamiltonian(ou1d, x, p)[0] == pytest.approx(2.0e-4, abs=1e-5)
    assert dv[0] == pytest.approx(0.1 * 0.5 * 0.2**2, abs=1e-15)


def test_zero_costate_follows_implicit_flow(ou1d):
    x, _, dv, _ = char_step(ou1d, np.array([[0.5]]), np.array([[0.0]]), 0.1)
    assert dv[0] == 0.0
    assert x[0, 0] == pytest.approx(0.5 / 1.1, abs=1e-12)  # implicit Euler of dx = -x


def test_step_accumulates_v_exactly(ou1d):
    h = 1e-3
    _, _, dv, _ = char_step(ou1d, np.array([[0.3]]), np.array([[0.7]]), h)
    assert dv[0] == pytest.approx(h * 0.5 * 0.7**2, abs=1e-15)


def test_characteristic_on_manifold(ou1d):
    # From (0.2, 0.4) on p = 2x: v tracks x^2 and the curve reaches v_max.
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    curve = trace_one(ou1d, init, 1e-4, 0.4, OU_DOMAIN, 20)
    assert curve.reason == "reached_v_max"
    assert len(curve.states) == 20
    xs, vs = curve_arrays(curve)
    xs = xs.ravel()
    assert np.all(np.diff(vs) > 0)  # v strictly increasing along the curve
    assert abs(xs[-1]) == pytest.approx(np.sqrt(0.4), abs=2e-3)
    assert np.max(np.abs(vs - xs**2)) < 2e-3
    assert curve.max_energy_drift < 1e-3


def test_energy_drift_halves_with_step(ou1d):
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    drifts = {}
    for h in (1e-4, 5e-5):
        curve = trace_one(ou1d, init, h, 0.4, OU_DOMAIN, 10)
        drifts[h] = curve.max_energy_drift
    assert drifts[5e-5] < 0.6 * drifts[1e-4]


def test_energy_drift_vdp_bounded_horizon():
    sys_ = make_benchmark("vdp")
    drifts = {}
    for h in (1e-3, 5e-4):
        x, p = np.array([[2.0, 0.0]]), np.array([[0.1, -0.2]])
        h0 = hamiltonian(sys_, x, p)[0]
        worst = 0.0
        for _ in range(round(1.0 / h)):  # fixed s-horizon 1.0
            x, p, _, _ = char_step(sys_, x, p, h)
            worst = max(worst, abs(hamiltonian(sys_, x, p)[0] - h0))
        drifts[h] = worst
    assert drifts[5e-4] < 0.6 * drifts[1e-3]


def test_curve_terminates_below_seed_level(ou1d):
    init = CharState(x=np.array([0.7]), p=np.array([1.4]), v=0.49)
    curve = trace_one(ou1d, init, 1e-3, 0.4, OU_DOMAIN, 10)
    assert curve.reason == "reached_v_max"
    assert curve.states == []


def test_curve_leaves_domain(ou1d):
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    curve = trace_one(ou1d, init, 1e-3, 10.0, (np.array([-0.5]), np.array([0.5])), 100)
    assert curve.reason == "left_domain"


def test_seed_characteristics_ou_level_set(ou1d):
    seeds = seed_characteristics(ou1d, ou_oracle(), 0.04, 40, seed=3, domain=OU_DOMAIN)
    assert len(seeds) == 40
    for s in seeds:
        assert abs(s.v - 0.04) < 0.1 * 0.04
        assert abs(abs(s.x[0]) - 0.2) < 0.01
        assert s.p[0] == pytest.approx(2.0 * s.x[0], abs=1e-12)
    assert seed_characteristics(ou1d, ou_oracle(), 0.04, 0, seed=3, domain=OU_DOMAIN) == []


def test_seed_characteristics_rejects_bad_gradients(ou1d):
    # A badly scaled gradient puts |H| far above the tolerance.
    bad = AnalyticQp(
        v_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2,
        grad_fn=lambda x: 5.0 * np.atleast_2d(x),
        hess_fn=lambda x: np.broadcast_to(5.0 * np.eye(1), (np.atleast_2d(x).shape[0], 1, 1)),
    )
    with pytest.raises(SolverFailure, match="seeds"):
        seed_characteristics(ou1d, bad, 0.04, 10, seed=3, domain=OU_DOMAIN, max_tries=20000)


def test_figure8_curves_track_exact_quasipotential(figure8):
    value, grad, hess = figure8_quasipotential(mu=0.5)
    oracle = AnalyticQp(v_fn=value, grad_fn=grad, hess_fn=hess)
    domain = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    seeds = seed_characteristics(figure8, oracle, 0.06, 10, seed=9, domain=domain,
                                 rel_band=0.02)
    for curve in trace_curves(figure8, seeds, 1e-4, 0.3, domain, 10):
        # The energy guard may cut a curve short out in the stiff corner
        # region; whatever samples it recorded must track the exact V.
        assert curve.states, curve.reason
        pts, vs = curve_arrays(curve)
        assert np.max(np.abs(vs - value(pts))) < 5e-3


def test_transport_constant_coefficient(ou1d):
    # c = 1 along the curve: log_z = -s, so after s the factor is exp(-s).
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    curve = trace_one(ou1d, init, 1e-3, 0.4, OU_DOMAIN, 5, transport=lambda x: 1.0)
    assert curve.states[-1].s > 1.0
    for st in curve.states:
        assert st.log_z == pytest.approx(-st.s, abs=1e-12)
    assert np.all(np.diff([st.log_z for st in curve.states]) < 0)  # strictly decaying factor


def test_transport_zero_coefficient_for_exact_ou(ou1d):
    # c(x) = div f + 1/2 tr(A hess V) = -1 + 1 = 0: Z0 constant on curves.
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    curve = trace_one(ou1d, init, 1e-3, 0.4, OU_DOMAIN, 8, transport=lambda x: -1.0 + 1.0)
    z = np.pi**-0.5 * np.exp([st.log_z for st in curve.states])
    assert np.allclose(z, np.pi**-0.5, atol=1e-15)


def test_nonconstant_diffusion_rejected():
    # The noise factor is a required constant (n, m) array.
    with pytest.raises(ValueError, match="sigma_constant"):
        SdeSystem(dim_state=1, dim_noise=1,
                  drift=lambda x: -np.atleast_2d(x),
                  drift_jacobian=lambda x: -np.ones((np.atleast_2d(x).shape[0], 1, 1)),
                  drift_divergence=lambda x: -np.ones(np.atleast_2d(x).shape[0]),
                  attractor_dim=0, sigma_constant=None)


# ---------------------------------------------------------------------------
# Minimum action
# ---------------------------------------------------------------------------


def lq_fixed_horizon_action(a, b, horizon):
    """Closed-form minimal action for the 1-d linear drift -x, A = 1.

    The optimality system x' = -x + p, p' = p has p(t) = p0 e^t; matching
    the endpoints fixes p0 and the action is p0^2 (e^{2T} - 1) / 4.
    """
    p0 = 2.0 * (b - a * np.exp(-horizon)) / (np.exp(horizon) - np.exp(-horizon))
    return p0**2 * (np.exp(2 * horizon) - 1.0) / 4.0


def test_discrete_action_matches_riemann_form(ou1d, rng):
    nodes = np.cumsum(rng.uniform(-0.1, 0.2, size=(21, 1)), axis=0)
    dt = 0.05
    a_inv = np.eye(1)
    vel = np.diff(nodes, axis=0) / dt
    manual = 0.0
    for i in range(20):
        fa = ou1d.drift(nodes[i:i + 1])[0]
        fb = ou1d.drift(nodes[i + 1:i + 2])[0]
        la = 0.5 * float((vel[i] - fa) @ a_inv @ (vel[i] - fa))
        lb = 0.5 * float((vel[i] - fb) @ a_inv @ (vel[i] - fb))
        manual += 0.5 * dt * (la + lb)
    assert discrete_action(ou1d, nodes, dt, a_inv) == pytest.approx(manual, abs=1e-12)


def test_straight_line_descent(ou1d):
    # The first gradient iterations strictly decrease the action.
    from deepwkb.expand import _action_gradient

    nodes = np.linspace([0.3], [0.6], 51)
    dt = 1.0 / 50
    a_inv = np.eye(1)
    actions = [discrete_action(ou1d, nodes, dt, a_inv)]
    for _ in range(10):
        nodes[1:-1] -= 0.3 * dt * _action_gradient(ou1d, nodes, dt, a_inv)[1:-1]
        actions.append(discrete_action(ou1d, nodes, dt, a_inv))
    assert np.all(np.diff(actions) < 0)


def test_action_gradient_matches_finite_differences(ou1d, rng):
    from deepwkb.expand import _action_gradient

    nodes = np.linspace([0.3], [0.6], 13) + rng.normal(0, 0.02, size=(13, 1))
    dt = 0.1
    a_inv = np.eye(1)
    grad = _action_gradient(ou1d, nodes, dt, a_inv)
    step = 1e-7
    for k in range(1, 12):
        plus = nodes.copy()
        plus[k, 0] += step
        minus = nodes.copy()
        minus[k, 0] -= step
        fd = (discrete_action(ou1d, plus, dt, a_inv) - discrete_action(ou1d, minus, dt, a_inv)) / (2 * step)
        assert grad[k, 0] == pytest.approx(fd, rel=1e-6)


def test_min_action_fixed_horizon_matches_lq_oracle(ou1d):
    for horizon in (1.0, 5.0):
        est, path = min_action_estimate(ou1d, np.array([0.6]), np.array([[0.3]]),
                                        horizon, 50, 20000, 0.3 * horizon / 50,
                                        level_value=0.09)
        assert est - 0.09 == pytest.approx(lq_fixed_horizon_action(0.3, 0.6, horizon), abs=2e-3)
        assert path.action >= 0.0


def test_min_action_scan_reaches_quasipotential(ou1d):
    est, _ = min_action_scan(ou1d, np.array([0.6]), np.array([[0.3], [-0.3]]),
                             n_nodes=50, iters=20000, lr_per_dt=0.3, level_value=0.09)
    assert abs(est - 0.36) < 0.02  # V(0.6) = 0.36 for V = x^2


def test_min_action_target_at_equilibrium_start(ou1d):
    # Start and target both at the stable point: the resting path is a flow
    # line with zero cost, so the estimate equals the level value.
    est, _ = min_action_estimate(ou1d, np.array([0.0]), np.array([[0.0]]),
                                 1.0, 20, 50, 1e-3, level_value=0.0)
    assert est == pytest.approx(0.0, abs=1e-15)


def test_min_action_divergence_guard(ou1d):
    with pytest.raises(SolverFailure, match="diverged|consecutive"):
        min_action_estimate(ou1d, np.array([0.6]), np.array([[0.3]]),
                            0.5, 50, 500, 5.0, level_value=0.09)
