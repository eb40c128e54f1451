import numpy as np
import pytest

from deepwkb import expand
from deepwkb.expand import (CharState, SolverFailure, _discrete_action, _lbfgs, char_step,
                            min_action_estimate, seed_characteristics, trace_curves)
from deepwkb.models import SdeSystem, make_benchmark
from deepwkb.train_v import hj_residual

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
    assert hj_residual(ou1d, p, x)[0][0] == pytest.approx(2.0e-4, abs=1e-5)
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
        h0 = hj_residual(sys_, p, x)[0][0]
        worst = 0.0
        for _ in range(round(1.0 / h)):  # fixed s-horizon 1.0
            x, p, _, _ = char_step(sys_, x, p, h)
            worst = max(worst, abs(hj_residual(sys_, p, x)[0][0] - h0))
        drifts[h] = worst
    assert drifts[5e-4] < 0.6 * drifts[1e-3]


def test_curve_terminates_below_seed_level(ou1d, monkeypatch):
    # A seed at or above v_max takes no step.
    monkeypatch.setattr(expand, "char_step", lambda *args: pytest.fail("took a step"))
    for v0 in (0.4, 0.49):
        init = CharState(x=np.array([0.7]), p=np.array([1.4]), v=v0)
        curve = trace_one(ou1d, init, 1e-3, 0.4, OU_DOMAIN, 10)
        assert curve.reason == "reached_v_max"
        assert curve.states == []
        assert curve.max_energy_drift == 0.0


def test_seed_energy_is_the_hj_residual():
    # The 4-d einsums sum in their own order, so only the one kernel gives
    # these bits; v_max below every seed's v keeps the seeds unstepped.
    sys_ = make_benchmark("coupled_vdp")
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, size=(64, 4))
    p = rng.uniform(-1.0, 1.0, size=(64, 4)) * np.logspace(-3, np.log10(50.0), 64)[:, None]
    seeds = [CharState(x=xi, p=pi, v=1.0) for xi, pi in zip(x, p)]
    curves = trace_curves(sys_, seeds, 1e-3, 0.5, (np.full(4, -5.0), np.full(4, 5.0)), 4)
    assert [c.reason for c in curves] == ["reached_v_max"] * 64
    assert np.array_equal([c.h0 for c in curves], hj_residual(sys_, p, x)[0])


def test_step_crossing_several_levels_records_one_sample(ou1d):
    # Levels 0.001 apart; each step adds about 0.0025 to v and records one
    # sample at the state after the step, so 10 levels give fewer samples.
    h, v_max = 0.03, 0.05
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    curve = trace_one(ou1d, init, h, v_max, OU_DOMAIN, 10)
    x, p, v, expected = init.x[None], init.p[None], init.v, []
    while v < v_max:
        x, p, dv, _ = char_step(ou1d, x, p, h)
        v += dv[0]
        expected.append((x[0, 0], p[0, 0], v))
    assert curve.reason == "reached_v_max"
    assert 1 < len(expected) < 10
    assert [(st.x[0], st.p[0], st.v) for st in curve.states] == expected


def test_costate_decay_stalls_the_curve():
    # f = x: the costate decays as p0 e^-s, so p^T A p falls below 1e-4 of
    # its seed value near s = ln(100), long before v reaches v_max.
    unstable = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: np.array(x),
                         drift_jacobian=lambda x: np.ones((x.shape[0], 1, 1)),
                         attractor_dim=0, sigma_constant=np.eye(1))
    init = CharState(x=np.array([0.1]), p=np.array([0.1]), v=0.0)
    curve = trace_one(unstable, init, 1e-2, 1.0, (np.array([-100.0]), np.array([100.0])), 10)
    assert curve.reason == "stalled"
    assert curve.states == []
    assert 0.0 < curve.max_energy_drift < 1e-3


def test_step_too_large_to_contract_is_a_solver_failure(ou1d):
    # With h = 2 the fixed-point map x -> x_k + h (-x + p_k) doubles errors.
    init = CharState(x=np.array([0.2]), p=np.array([0.4]), v=0.04)
    curve = trace_one(ou1d, init, 2.0, 0.4, OU_DOMAIN, 10)
    assert (curve.reason, curve.states, curve.max_energy_drift) == ("solver_failure", [], 0.0)


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
        seed_characteristics(ou1d, bad, 0.04, 10, seed=3, domain=OU_DOMAIN)


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


@pytest.mark.parametrize("every", [1, 10])
def test_transport_state_dependent_coefficient(ou1d, every):
    # On p = 2x the characteristic is x(s) = x0 e^s, so with c(x) = x the
    # exact log_z(s) = -x0 (e^s - 1).  The traced -h sum_m c(x~_j(m)), with
    # j(m) = k floor(m / k) for k = every and x~ the discrete states, misses
    # it by at most
    #   k h |x(s) - x0|: c held over k steps is off by at most kh |x'| = kh |x|
    #   at each s, which integrates to this;
    #   (s / 2) h ((1 + s) |x(s)| + |x0|): the step's own solution
    #   x~_m = 2 x0 (1 + h)^m / (2 + h) + x0 h (1 + h)^-m / (2 + h) lies
    #   within (h / 2) ((1 + s) |x(s)| + |x0|) of x(mh), over s / h steps.
    h = 1e-3
    for x0 in (0.2, -0.2):
        init = CharState(x=np.array([x0]), p=np.array([2.0 * x0]), v=x0**2)
        curve = trace_one(ou1d, init, h, 0.4, OU_DOMAIN, 8, transport=lambda x: x[:, 0],
                          transport_every=every)
        assert curve.reason == "reached_v_max" and curve.states[-1].s > 1.0
        for st in curve.states:
            xs = x0 * np.exp(st.s)
            bound = h * (every * abs(xs - x0)
                         + 0.5 * st.s * ((1.0 + st.s) * abs(xs) + abs(x0)))
            assert abs(st.log_z + x0 * np.expm1(st.s)) <= bound


def test_nonconstant_diffusion_rejected():
    # The noise factor is a required constant (n, m) array.
    with pytest.raises(ValueError, match="sigma_constant"):
        SdeSystem(dim_state=1, dim_noise=1,
                  drift=lambda x: -np.atleast_2d(x),
                  drift_jacobian=lambda x: -np.ones((np.atleast_2d(x).shape[0], 1, 1)),
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
    assert _discrete_action(ou1d, nodes, dt, a_inv)[0] == pytest.approx(manual, abs=1e-12)


def test_straight_line_descent(ou1d):
    # The first gradient iterations strictly decrease the action.
    nodes = np.linspace([0.3], [0.6], 51)
    dt = 1.0 / 50
    a_inv = np.eye(1)
    actions = []
    for _ in range(11):
        action, grad = _discrete_action(ou1d, nodes, dt, a_inv)
        actions.append(action)
        nodes[1:-1] -= 0.3 * dt * grad[1:-1]
    assert np.all(np.diff(actions) < 0)


def test_action_gradient_matches_finite_differences(ou1d, rng):
    nodes = np.linspace([0.3], [0.6], 13) + rng.normal(0, 0.02, size=(13, 1))
    dt = 0.1
    a_inv = np.eye(1)
    grad = _discrete_action(ou1d, nodes, dt, a_inv)[1]
    assert np.all(grad[[0, -1]] == 0.0)  # the endpoints are fixed
    step = 1e-7
    for k in range(1, 12):
        plus = nodes.copy()
        plus[k, 0] += step
        minus = nodes.copy()
        minus[k, 0] -= step
        fd = (_discrete_action(ou1d, plus, dt, a_inv)[0]
              - _discrete_action(ou1d, minus, dt, a_inv)[0]) / (2 * step)
        assert grad[k, 0] == pytest.approx(fd, rel=1e-6)


def test_min_action_fixed_horizon_matches_lq_oracle(ou1d):
    for horizon in (1.0, 5.0):
        est, path = min_action_estimate(ou1d, np.array([0.6]), np.array([[0.3]]), 50,
                                        level_value=0.09, horizons=(horizon,))
        assert est - 0.09 == pytest.approx(lq_fixed_horizon_action(0.3, 0.6, horizon), abs=2e-3)
        assert path.action >= 0.0
        assert path.dt == horizon / 50
        # The returned nodes are the minimizer's, not its last trial point's.
        assert _discrete_action(ou1d, path.nodes, path.dt, np.eye(1))[0] == path.action
        assert np.array_equal(path.nodes[[0, -1]], [[0.3], [0.6]])


def test_min_action_scan_reaches_quasipotential(ou1d):
    est, _ = min_action_estimate(ou1d, np.array([0.6]), np.array([[0.3], [-0.3]]),
                                 n_nodes=50, level_value=0.09)
    assert abs(est - 0.36) < 0.02  # V(0.6) = 0.36 for V = x^2


def test_min_action_target_at_equilibrium_start(ou1d):
    # Start and target both at the stable point: the resting path is a flow
    # line with zero cost, so the estimate equals the level value.
    est, _ = min_action_estimate(ou1d, np.array([0.0]), np.array([[0.0]]), 20,
                                 level_value=0.0, horizons=(1.0,))
    assert est == pytest.approx(0.0, abs=1e-15)


def test_min_action_divergence_guard(ou1d):
    # A target so far out that the straight path's action overflows.
    with pytest.raises(SolverFailure, match="non-finite"):
        min_action_estimate(ou1d, np.array([1e200]), np.array([[0.3]]), 50,
                            level_value=0.09)


# L-BFGS against scipy's L-BFGS-B, run to tight tolerances.
SCIPY_OPTIONS = {"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000}


def scipy_lbfgsb(fg, x0):
    from scipy.optimize import minimize

    res = minimize(fg, x0, jac=True, method="L-BFGS-B", options=SCIPY_OPTIONS)
    return res.x, res.fun


def test_lbfgs_spd_quadratic_matches_scipy(rng):
    q_basis, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    hess = q_basis @ np.diag(np.logspace(0.0, 2.0, 20)) @ q_basis.T
    b = rng.normal(size=20)

    def fg(x):
        hx = hess @ x
        return 0.5 * x @ hx - b @ x, hx - b

    x_star = np.linalg.solve(hess, b)
    f_star = -0.5 * b @ x_star
    x0 = rng.normal(size=20)
    for x, f in (_lbfgs(fg, x0), scipy_lbfgsb(fg, x0)):
        assert np.max(np.abs(x - x_star)) < 1e-5
        assert abs(f - f_star) <= 1e-10 * abs(f_star)


def test_lbfgs_rosenbrock_matches_scipy():
    def fg(x):
        u, v = x
        return (100.0 * (v - u * u) ** 2 + (1.0 - u) ** 2,
                np.array([-400.0 * u * (v - u * u) - 2.0 * (1.0 - u), 200.0 * (v - u * u)]))

    x0 = np.array([-1.2, 1.0])
    for x, f in (_lbfgs(fg, x0), scipy_lbfgsb(fg, x0)):
        assert np.max(np.abs(x - 1.0)) < 1e-5
        assert f < 1e-10
    assert np.array_equal(x0, [-1.2, 1.0])  # the start is not written


def test_lbfgs_nonfinite_value_raises():
    with pytest.raises(SolverFailure, match="start"):
        _lbfgs(lambda x: (np.inf, np.ones_like(x)), np.zeros(3))

    def fg(x):  # finite on x > -0.5 only; the first step has unit length
        return (0.5 * x @ x if x[0] > -0.5 else np.nan), x.copy()

    with pytest.raises(SolverFailure, match="line search"):
        _lbfgs(fg, np.array([0.3]))


def test_lbfgs_stationary_start_returns_its_value():
    center = np.array([0.25, -1.5, 3.0])
    calls = []

    def fg(x):
        calls.append(x.copy())
        d = x - center
        return 3.25 + d @ d, 2.0 * d

    x, f = _lbfgs(fg, center)
    assert f == 3.25
    assert np.array_equal(x, center)
    assert len(calls) == 1
