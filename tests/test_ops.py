"""Operators: smoothed responses, exploration floors, exact solvers."""

import itertools
import math

import numpy as np
import pytest

import zsdyn as z
from zsdyn import ops

E = math.e


# --- softmax ---------------------------------------------------------------

def test_softmax_symmetric_input_is_exactly_uniform():
    out = z.softmax([0.0, 0.0], 1.0)
    assert out[0] == 0.5 and out[1] == 0.5


def test_softmax_frozen_values():
    out = z.softmax([1.0, 0.0], 1.0)
    assert out[0] == pytest.approx(E / (E + 1.0), abs=1e-15)
    assert out[1] == pytest.approx(1.0 / (E + 1.0), abs=1e-15)
    assert out[0] == 0.7310585786300049
    assert out[1] == 0.2689414213699951


def test_softmax_temperature_equals_scaling():
    # dyadic inputs: dividing by 0.5 and doubling are both exact
    q = np.array([0.25, -0.5, 0.75])
    assert np.array_equal(z.softmax(q, 0.5), z.softmax(2.0 * q, 1.0))


def test_softmax_shift_invariance_exact():
    q = np.array([0.25, -0.5, 0.75])
    base = z.softmax(q, 1.0)
    for c in (0.5, 1.0, 2.0, -3.0):
        assert np.array_equal(z.softmax(q + c, 1.0), base)


def test_softmax_tiny_temperature_stays_finite():
    with np.errstate(over="raise", invalid="raise"):
        out = z.softmax([0.5, -0.5], 1e-4)
    assert out[0] == 1.0 and out[1] == 0.0
    assert np.isfinite(out).all()


def test_softmax_monotone_in_q():
    out = z.softmax([0.3, 0.1, 0.9], 0.7)
    assert out[2] > out[0] > out[1]
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_softmax_floor_property():
    # every entry >= e^{-x} / (e^{-x} + n - 1) at x = 2 max|q| / tau
    rng = np.random.default_rng(42)
    for tau in (0.5, 1.0, 2.0):
        for n in (2, 3, 5):
            for _ in range(50):
                q = rng.uniform(-1.0, 1.0, n)
                em = math.exp(-2.0 * float(np.abs(q).max()) / tau)
                floor = em / (em + (n - 1))
                assert float(z.softmax(q, tau).min()) >= floor


def test_softmax_input_errors():
    with pytest.raises(ValueError):
        z.softmax([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        z.softmax([0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        z.softmax([0.0, 0.0], math.inf)
    for eps_bar in (-0.1, 1.5, math.nan):  # checked as SoftmaxParams checks it
        with pytest.raises(ValueError):
            z.softmax([0.0, 0.0], 1.0, eps_bar=eps_bar)
    with pytest.raises(z.DimensionMismatch):
        z.softmax([[0.0, 0.0]], 1.0)
    with pytest.raises(z.DimensionMismatch):
        z.softmax([], 1.0)
    with pytest.raises(z.NonFiniteInput):
        z.softmax([0.0, math.nan], 1.0)


def test_softmax_explore_reduces_at_zero_mix():
    q = [0.3, -0.2, 0.8]
    plain = z.softmax(q, 0.7)
    mixed = z.softmax(q, 0.7, eps_bar=0.0)
    assert np.array_equal(plain, mixed)


def test_softmax_explore_full_mix_is_uniform():
    out = z.softmax([5.0, -5.0], 0.1, eps_bar=1.0)
    assert np.array_equal(out, [0.5, 0.5])


def test_softmax_explore_frozen_values():
    out = z.softmax([1.0, 0.0], 1.0, eps_bar=0.5)
    assert out[0] == 0.6155292893150024
    assert out[1] == 0.38447071068499755


def test_softmax_explore_respects_uniform_floor():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q = rng.uniform(-1.0, 1.0, n)
        eps = float(rng.uniform(0.0, 1.0))
        out = z.softmax(q, 0.2, eps_bar=eps)
        assert float(out.min()) >= eps / n
        assert float(out.sum()) == pytest.approx(1.0, abs=1e-12)


def test_softmax_params_validation():
    with pytest.raises(ValueError):
        z.SoftmaxParams(tau=0.0)
    with pytest.raises(ValueError):
        z.SoftmaxParams(tau=1.0, eps_bar=1.5)
    with pytest.raises(ValueError):
        z.SoftmaxParams(tau=1.0, eps_bar=-0.1)


# --- entropy ---------------------------------------------------------------

def test_entropy_frozen_values():
    assert z.entropy([1.0, 0.0]) == 0.0
    assert z.entropy([0.5, 0.5]) == pytest.approx(0.6931471805599453, abs=1e-15)
    third = 1.0 / 3.0
    assert z.entropy([third, third, third]) == pytest.approx(1.0986122886681098, abs=1e-12)


def test_entropy_zero_times_log_zero_is_zero_not_negative_zero():
    out = z.entropy([1.0, 0.0, 0.0])
    assert out == 0.0 and math.copysign(1.0, out) == 1.0


def test_entropy_bounds():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0.0, 1.0, n) + 1e-9
        mu = w / w.sum()
        h = z.entropy(mu)
        assert 0.0 <= h <= math.log(n) + 1e-12


def test_entropy_rejects_non_distributions():
    with pytest.raises(z.NotADistribution):
        z.entropy([0.5, 0.4])
    with pytest.raises(z.NotADistribution):
        z.entropy([-0.1, 1.1])
    with pytest.raises(z.NotADistribution):
        z.entropy([math.inf, 0.0])
    with pytest.raises(z.NotADistribution):
        z.entropy([[0.5, 0.5]])


# --- exploration bounds ----------------------------------------------------

def test_exploration_bound_matrix_plain_frozen():
    out = z.exploration_bound("matrix", "plain", z.SoftmaxParams(tau=2.0), 2)
    assert out == 0.2689414213699951  # e^{-1} / (e^{-1} + 1)


def test_exploration_bound_matrix_explore_frozen():
    out = z.exploration_bound("matrix", "explore",
                              z.SoftmaxParams(tau=0.1, eps_bar=0.1), 3)
    assert out == 0.033333334260852464


def test_exploration_bound_stochastic_explore_is_uniform_share():
    out = z.exploration_bound("stochastic", "explore",
                              z.SoftmaxParams(tau=0.1, eps_bar=0.1), 2)
    assert out == 0.05


def test_exploration_bound_stochastic_plain_needs_gamma():
    params = z.SoftmaxParams(tau=1.0)
    with pytest.raises(z.MissingGamma):
        z.exploration_bound("stochastic", "plain", params, 2)
    out = z.exploration_bound("stochastic", "plain", params, 2, gamma=0.5)
    x = 2.0 / ((1.0 - 0.5) * 1.0)
    em = math.exp(-x)
    assert out == em / (em + 1.0)


def test_exploration_bound_single_action():
    # softmax floors collapse to 1.0; the uniform-mix bound stays eps_bar / 1
    params = z.SoftmaxParams(tau=0.01, eps_bar=0.2)
    assert z.exploration_bound("matrix", "plain", params, 1) == 1.0
    assert z.exploration_bound("matrix", "explore", params, 1) == 1.0
    assert z.exploration_bound("stochastic", "plain", params, 1, gamma=0.9) == 1.0
    assert z.exploration_bound("stochastic", "explore", params, 1) == 0.2


def test_exploration_bound_tiny_temperature_degrades_to_zero():
    out = z.exploration_bound("matrix", "plain", z.SoftmaxParams(tau=1e-4), 2)
    assert out == 0.0


def test_exploration_bound_range():
    rng = np.random.default_rng(5)
    for _ in range(200):
        tau = float(rng.uniform(0.01, 4.0))
        eps = float(rng.uniform(0.0, 1.0))
        a_max = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.1, 0.99))
        setting = "matrix" if rng.random() < 0.5 else "stochastic"
        variant = "plain" if rng.random() < 0.5 else "explore"
        out = z.exploration_bound(setting, variant,
                                  z.SoftmaxParams(tau=tau, eps_bar=eps),
                                  a_max, gamma=gamma)
        assert 0.0 <= out <= 1.0 / a_max + 1e-15


def test_exploration_bound_bad_names():
    params = z.SoftmaxParams(tau=1.0)
    with pytest.raises(ValueError):
        z.exploration_bound("matrix", "greedy", params, 2)
    with pytest.raises(ValueError):
        z.exploration_bound("bandit", "plain", params, 2)
    with pytest.raises(ValueError):
        z.exploration_bound("matrix", "plain", params, 0)


# --- matrix game value -----------------------------------------------------

def test_value_matching_pennies():
    out = z.matrix_game_value([[1.0, -1.0], [-1.0, 1.0]])
    assert abs(out.value) <= 1e-8
    assert np.allclose(out.maximin, [0.5, 0.5], atol=1e-8)
    assert np.allclose(out.minimax, [0.5, 0.5], atol=1e-8)


def test_value_rock_paper_scissors():
    out = z.matrix_game_value(z.rock_paper_scissors().R1)
    assert abs(out.value) <= 1e-8
    assert np.allclose(out.maximin, 1.0 / 3.0, atol=1e-8)
    assert np.allclose(out.minimax, 1.0 / 3.0, atol=1e-8)


def test_value_asymmetric_two_by_two():
    out = z.matrix_game_value([[2.0, -1.0], [-1.0, 1.0]])
    assert out.value == pytest.approx(0.2, abs=1e-8)
    assert np.allclose(out.maximin, [0.4, 0.6], atol=1e-8)
    assert np.allclose(out.minimax, [0.4, 0.6], atol=1e-8)


def test_value_dominant_strategies():
    out = z.matrix_game_value([[3.0, 1.0], [4.0, 2.0]])
    assert out.value == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(out.maximin, [0.0, 1.0], atol=1e-8)
    assert np.allclose(out.minimax, [0.0, 1.0], atol=1e-8)


def test_value_single_cell():
    out = z.matrix_game_value([[0.3]])
    assert out.value == pytest.approx(0.3, abs=1e-12)
    assert out.maximin[0] == pytest.approx(1.0, abs=1e-12)


def test_value_strategy_guarantees_on_random_games():
    rng = np.random.default_rng(17)
    shapes = [(2, 2), (3, 3), (2, 5), (4, 3), (5, 2)]
    for trial in range(60):
        n, m = shapes[trial % len(shapes)]
        X = rng.uniform(-1.0, 1.0, (n, m))
        if trial % 7 == 0:
            X = 5.0 * X + 2.0  # solver must not depend on payoff range
        out = z.matrix_game_value(X)
        x, y = out.maximin, out.minimax
        assert abs(float(x.sum()) - 1.0) <= 1e-9 and x.min() >= -1e-12
        assert abs(float(y.sum()) - 1.0) <= 1e-9 and y.min() >= -1e-12
        assert float(x @ X @ y) == pytest.approx(out.value, abs=1e-8)
        # maximin guarantees at least the value against every column,
        # minimax concedes at most the value against every row
        assert float((x @ X).min()) >= out.value - 1e-8
        assert float((X @ y).max()) <= out.value + 1e-8
        assert X.min() - 1e-9 <= out.value <= X.max() + 1e-9


def test_value_duality_under_negated_transpose():
    rng = np.random.default_rng(23)
    for _ in range(20):
        X = rng.uniform(-1.0, 1.0, (3, 4))
        a = z.matrix_game_value(X)
        b = z.matrix_game_value(-X.T)
        assert b.value == pytest.approx(-a.value, abs=1e-8)
        # player 2's optimal play is player 1's in the swapped game
        assert float((b.maximin @ (-X.T)).min()) >= -a.value - 1e-8


def test_value_matches_grid_search():
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(15):
        X = rng.uniform(-1.0, 1.0, (2, 2))
        best = -np.inf
        for p in grid:
            mix = np.array([p, 1.0 - p])
            best = max(best, float((mix @ X).min()))
        out = z.matrix_game_value(X)
        assert abs(out.value - best) <= 0.02


def _degenerate_matrices(rng):
    # constant, duplicate rows, rank 1 and saddle-point games: ties and
    # degenerate pivots for the simplex
    for n, m in ((1, 1), (2, 3), (4, 4), (6, 6), (6, 2)):
        yield np.full((n, m), rng.uniform(-1.0, 1.0))
        base = rng.uniform(-1.0, 1.0, (max(n // 2, 1), m))
        yield base[rng.integers(0, base.shape[0], n)]
        yield np.outer(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, m))
        saddle = rng.uniform(-1.0, 1.0, (n, m))
        i, j = rng.integers(0, n), rng.integers(0, m)
        saddle[i, :] = np.maximum(saddle[i, :], 0.5)
        saddle[:, j] = np.minimum(saddle[:, j], 0.5)
        saddle[i, j] = 0.5
        yield saddle


def test_value_matches_highs_linprog():
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def highs_value(X):
        # variables (x, v): maximize v s.t. v <= (x @ X)_j, sum x = 1, x >= 0
        n, m = X.shape
        res = scipy_optimize.linprog(
            c=np.r_[np.zeros(n), -1.0],
            A_ub=np.c_[-X.T, np.ones(m)], b_ub=np.zeros(m),
            A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)], method="highs")
        assert res.status == 0, res.message
        return -res.fun

    rng = np.random.default_rng(2024)
    games = [rng.uniform(-1.0, 1.0, tuple(rng.integers(1, 7, 2))) for _ in range(200)]
    games += list(_degenerate_matrices(rng))
    for X in games:
        out = z.matrix_game_value(X)
        assert out.value == pytest.approx(highs_value(X), abs=1e-9), X
        assert float((out.maximin @ X).min()) >= out.value - 1e-9
        assert float((X @ out.minimax).max()) <= out.value + 1e-9


def test_value_rejects_bad_input():
    with pytest.raises(z.NonFiniteInput):
        z.matrix_game_value([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(z.DimensionMismatch):
        z.matrix_game_value([1.0, 2.0])


# --- Bellman operators -----------------------------------------------------

def _random_sg(rng, n_states=2, n1=2, n2=2, gamma=0.9):
    P = rng.random((n_states, n1, n2, n_states)) + 0.05
    P /= P.sum(axis=3, keepdims=True)
    R1 = rng.uniform(-1.0, 1.0, (n_states, n1, n2))
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def test_bellman_at_zero_is_reward():
    sg = _random_sg(np.random.default_rng(1))
    assert np.array_equal(z.bellman_T(sg, np.zeros(2), 1), sg.R1)
    assert np.array_equal(z.bellman_T(sg, np.zeros(2), 2), sg.R2)


def test_bellman_single_state_adds_discounted_constant():
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    sg = z.validate_stochastic_game(P, R1, gamma=0.5)
    out = z.bellman_T(sg, [0.25], 1)
    assert np.array_equal(out, sg.R1 + 0.5 * 0.25)


def test_bellman_matches_explicit_sums():
    rng = np.random.default_rng(7)
    sg = _random_sg(rng, n_states=3, n1=2, n2=3)
    v = rng.uniform(-2.0, 2.0, 3)
    q1 = z.bellman_T(sg, v, 1)
    q2 = z.bellman_T(sg, v, 2)
    for s in range(3):
        for a in range(2):
            for b in range(3):
                ev = sum(sg.transition[s, a, b, t] * v[t] for t in range(3))
                assert q1[s, a, b] == pytest.approx(sg.R1[s, a, b] + 0.9 * ev, abs=1e-12)
                assert q2[s, b, a] == pytest.approx(sg.R2[s, b, a] + 0.9 * ev, abs=1e-12)


def test_bellman_rejects_bad_values():
    sg = _random_sg(np.random.default_rng(2))
    with pytest.raises(z.DimensionMismatch):
        z.bellman_T(sg, np.zeros(3), 1)
    with pytest.raises(z.NonFiniteInput):
        z.bellman_T(sg, [np.nan, 0.0], 1)


def test_minimax_bellman_single_state_pennies():
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    sg = z.validate_stochastic_game(P, R1, gamma=0.5)
    out = z.minimax_bellman(sg, [0.0], 1)
    assert abs(out[0]) <= 1e-8
    v_star = z.minimax_fixed_point(sg, 1)
    assert abs(v_star[0]) <= 1e-6


def test_minimax_bellman_is_a_contraction():
    rng = np.random.default_rng(13)
    sg = _random_sg(rng, n_states=3, gamma=0.8)
    for _ in range(25):
        v = rng.uniform(-3.0, 3.0, 3)
        w = rng.uniform(-3.0, 3.0, 3)
        lhs = float(np.abs(z.minimax_bellman(sg, v, 1) - z.minimax_bellman(sg, w, 1)).max())
        assert lhs <= 0.8 * float(np.abs(v - w).max()) + 1e-9


def test_minimax_fixed_point_properties():
    rng = np.random.default_rng(19)
    for _ in range(5):
        sg = _random_sg(rng, n_states=3, n1=2, n2=2, gamma=0.7)
        v1 = z.minimax_fixed_point(sg, 1)
        v2 = z.minimax_fixed_point(sg, 2)
        assert float(np.abs(z.minimax_bellman(sg, v1, 1) - v1).max()) <= 1e-6
        assert float(np.abs(v1 + v2).max()) <= 1e-6
        assert float(np.abs(v1).max()) <= 1.0 / (1.0 - 0.7) + 1e-9
    # a game whose payoffs are all zero has the fixed point +0.0, not -0.0
    flat = z.validate_stochastic_game(np.full((2, 2, 2, 2), 0.5), np.zeros((2, 2, 2)), gamma=0.9)
    assert not np.signbit(z.minimax_fixed_point(flat, 1)).any()


def test_minimax_fixed_point_tiny_discount_is_myopic():
    rng = np.random.default_rng(29)
    sg = _random_sg(rng, n_states=3, gamma=1e-9)
    v = z.minimax_fixed_point(sg, 1, tol=1e-9)
    for s in range(3):
        assert v[s] == pytest.approx(z.matrix_game_value(sg.R1[s]).value, abs=1e-6)


def _value_iteration(sg, player, tol):
    # plain Shapley value iteration from v = 0, the reference for the
    # Hoffman-Karp solver: successive iterates at most tol (1 - gamma) /
    # (2 gamma) apart put the last one within tol/2 of the fixed point
    v = np.zeros(sg.n_states)
    while True:
        nxt = z.minimax_bellman(sg, v, player)
        if float(np.abs(nxt - v).max()) <= tol * (1.0 - sg.gamma) / (2.0 * sg.gamma):
            return nxt
        v = nxt


def _assert_certified_fixed_point(sg, player, tol, reference):
    # reference lies within 0.5e-11 of the fixed point
    v = z.minimax_fixed_point(sg, player, tol=tol)
    assert float(np.abs(z.minimax_bellman(sg, v, player) - v).max()) <= tol * (1 - sg.gamma) / 2
    assert float(np.abs(v - reference).max()) <= tol / 2 + 0.5e-11
    return v


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_minimax_fixed_point_matches_value_iteration(gamma):
    rng = np.random.default_rng(int(gamma * 1000))
    for _ in range(10):
        n_states = int(rng.integers(1, 6))
        n1, n2 = (int(n) for n in rng.integers(1, 4, size=2))
        sg = _sparse_sg(rng, n_states, n1, n2, gamma)
        reference = _value_iteration(sg, 1, 1e-11)
        _assert_certified_fixed_point(sg, 1, 1e-6, reference)
        _assert_certified_fixed_point(sg, 2, 1e-6, -reference)  # zero-sum: v2* = -v1*


def test_minimax_fixed_point_reads_only_the_player_payoff():
    # in a general-sum game each player's fixed point is the zero-sum value
    # of its own payoff table: the opponent's table must not enter it
    rng = np.random.default_rng(83)
    P = rng.random((3, 2, 3, 3)) + 0.05
    P /= P.sum(axis=3, keepdims=True)
    R1, R2 = rng.uniform(-1.0, 1.0, (3, 2, 3)), rng.uniform(-1.0, 1.0, (3, 3, 2))
    sg = z.validate_stochastic_game(P, R1, R2, gamma=0.9, require_zero_sum=False)
    assert not sg.zero_sum
    own = {1: z.validate_stochastic_game(P, R1, gamma=0.9),
           2: z.validate_stochastic_game(P, -np.swapaxes(R2, 1, 2), gamma=0.9)}
    for player in (1, 2):
        v = _assert_certified_fixed_point(sg, player, 1e-6, _value_iteration(sg, player, 1e-11))
        assert np.array_equal(v, z.minimax_fixed_point(own[player], player))


def test_minimax_fixed_point_lp_budget(monkeypatch):
    # Hoffman-Karp takes a few rounds of one LP per state whatever gamma (8
    # here); value iteration from v = 0 took 1,640 rounds on this game
    rng = np.random.default_rng(89)
    sg = _random_sg(rng, n_states=20, n1=3, n2=3, gamma=0.99)
    calls, solve = [], ops.matrix_game_value  # every LP goes through this name
    monkeypatch.setattr(ops, "matrix_game_value", lambda X: calls.append(X) or solve(X))
    for player in (1, 2):
        calls.clear()
        v = z.minimax_fixed_point(sg, player)
        assert len(calls) <= 20 * sg.n_states
        assert float(np.abs(z.minimax_bellman(sg, v, player) - v).max()) <= 1e-6 * 0.01 / 2
    # a tolerance below float resolution, or NaN, is refused once v stops
    # improving, not ground through a round budget
    for tol in (1e-30, float("nan")):
        for player in (1, 2):
            calls.clear()
            with pytest.raises(z.NoConvergence):
                z.minimax_fixed_point(sg, player, tol=tol)
            assert len(calls) <= 20 * sg.n_states


# --- best response and policy evaluation -----------------------------------

def test_best_response_single_state_closed_form():
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    sg = z.validate_stochastic_game(P, R1, gamma=0.5)
    opp = np.array([[0.25, 0.75]])
    br = z.best_response_value(sg, 1, opp)
    # stage payoffs (R1 @ opp): a=0 gives -0.5, a=1 gives 0.5; repeat forever
    assert br.v[0] == pytest.approx(0.5 / (1.0 - 0.5), abs=1e-6)
    assert br.policy[0] == 1


def test_best_response_tiny_discount_is_myopic():
    rng = np.random.default_rng(37)
    P = rng.random((3, 2, 2, 3)) + 0.05
    P /= P.sum(axis=3, keepdims=True)
    R1 = rng.uniform(-1.0, 1.0, (3, 2, 2))
    sg = z.validate_stochastic_game(P, R1, gamma=1e-9)
    opp = np.array([[0.3, 0.7]] * 3)
    br = z.best_response_value(sg, 1, opp, tol=1e-9)
    stage = np.einsum("sab,sb->sa", sg.R1, opp)
    assert np.allclose(br.v, stage.max(axis=1), atol=1e-6)
    assert np.array_equal(br.policy, stage.argmax(axis=1))


def test_best_response_beats_enumerated_deterministic_policies():
    rng = np.random.default_rng(41)
    sg = _random_sg(rng, n_states=2, n1=2, n2=2, gamma=0.85)
    opp = rng.random((2, 2)) + 0.1
    opp /= opp.sum(axis=1, keepdims=True)
    br = z.best_response_value(sg, 1, opp)

    best = np.full(2, -np.inf)
    for a0 in range(2):
        for a1 in range(2):
            pi1 = np.zeros((2, 2))
            pi1[0, a0] = 1.0
            pi1[1, a1] = 1.0
            joint = z.validate_joint_policy(pi1, opp, sg)
            best = np.maximum(best, z.policy_value(sg, 1, joint))
    assert np.allclose(br.v, best, atol=1e-6)

    # the reported greedy policy attains the optimum
    pi1 = np.zeros((2, 2))
    pi1[np.arange(2), br.policy] = 1.0
    achieved = z.policy_value(sg, 1, z.validate_joint_policy(pi1, opp, sg))
    assert np.allclose(achieved, br.v, atol=1e-6)


def test_best_response_dominates_sampled_policies():
    rng = np.random.default_rng(43)
    sg = _random_sg(rng, n_states=3, n1=3, n2=2, gamma=0.8)
    opp = rng.random((3, 2)) + 0.1
    opp /= opp.sum(axis=1, keepdims=True)
    br = z.best_response_value(sg, 1, opp)
    for _ in range(20):
        pi1 = rng.random((3, 3)) + 1e-6
        pi1 /= pi1.sum(axis=1, keepdims=True)
        vals = z.policy_value(sg, 1, z.validate_joint_policy(pi1, opp, sg))
        assert (br.v >= vals - 1e-6).all()


def test_best_response_player_two_orientation():
    rng = np.random.default_rng(47)
    sg = _random_sg(rng, n_states=2, n1=3, n2=2, gamma=0.6)
    opp1 = rng.random((2, 3)) + 0.1
    opp1 /= opp1.sum(axis=1, keepdims=True)
    br = z.best_response_value(sg, 2, opp1, tol=1e-8)
    best = np.full(2, -np.inf)
    for b0 in range(2):
        for b1 in range(2):
            pi2 = np.zeros((2, 2))
            pi2[0, b0] = 1.0
            pi2[1, b1] = 1.0
            joint = z.validate_joint_policy(opp1, pi2, sg)
            best = np.maximum(best, z.policy_value(sg, 2, joint))
    assert np.allclose(br.v, best, atol=1e-6)


def test_best_response_rejects_bad_opponent():
    sg = _random_sg(np.random.default_rng(3))
    with pytest.raises(z.DimensionMismatch):
        z.best_response_value(sg, 1, np.full((3, 2), 0.5))
    with pytest.raises(z.NotADistribution):
        z.best_response_value(sg, 1, np.full((2, 2), 0.4))


def _sparse_sg(rng, n_states, n1, n2, gamma):
    # cubed uniforms leave some transitions near zero, so chains mix unevenly
    P = rng.random((n_states, n1, n2, n_states)) ** 3 + 1e-3
    P /= P.sum(axis=3, keepdims=True)
    R1 = rng.uniform(-1.0, 1.0, (n_states, n1, n2))
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def _random_rows(rng, n_states, n):
    rows = rng.random((n_states, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def _played_value(sg, player, opp, policy):
    # exact value of the deterministic policy (one action per state) of `player`
    n_own = sg.n_actions_1 if player == 1 else sg.n_actions_2
    own = np.eye(n_own)[list(policy)]
    pair = (own, opp) if player == 1 else (opp, own)
    return z.policy_value(sg, player, z.validate_joint_policy(*pair, sg))


def _enumerated_best(sg, player, opp):
    # the best value over every deterministic policy of `player`, statewise
    n_own = sg.n_actions_1 if player == 1 else sg.n_actions_2
    return np.max([_played_value(sg, player, opp, acts)
                   for acts in itertools.product(range(n_own), repeat=sg.n_states)], axis=0)


def _bellman_residual(sg, player, opp, v):
    if player == 1:
        r = np.einsum("sab,sb->sa", sg.R1, opp)
        kernel = np.einsum("sabt,sb->sat", sg.transition, opp)
    else:
        r = np.einsum("sba,sa->sb", sg.R2, opp)
        kernel = np.einsum("sabt,sa->sbt", sg.transition, opp)
    return float(np.abs((r + sg.gamma * kernel @ v).max(axis=1) - v).max())


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_best_response_matches_policy_enumeration(gamma):
    rng = np.random.default_rng(int(gamma * 100))
    for _ in range(12):
        n_states = int(rng.integers(1, 5))
        n1, n2 = (int(n) for n in rng.integers(1, 4, size=2))
        sg = _sparse_sg(rng, n_states, n1, n2, gamma)
        for player, n_opp in ((1, n2), (2, n1)):
            opp = _random_rows(rng, n_states, n_opp)
            br = z.best_response_value(sg, player, opp)
            assert np.abs(br.v - _enumerated_best(sg, player, opp)).max() <= 1e-9
            # the returned policy attains the returned values
            assert np.abs(_played_value(sg, player, opp, br.policy) - br.v).max() <= 1e-9
            assert _bellman_residual(sg, player, opp, br.v) <= 1e-6 * (1.0 - gamma) / 2.0


@pytest.mark.parametrize("player", [1, 2])
def test_best_response_terminates_on_exact_ties(player):
    rng = np.random.default_rng(67 + player)
    for gamma in (0.5, 0.9, 0.99):
        P = rng.random((3, 3, 3, 3)) + 0.05
        P /= P.sum(axis=3, keepdims=True)
        R1 = rng.uniform(-1.0, 1.0, (3, 3, 3))
        # the player's actions 1 and 2 duplicate action 0 in rewards and moves
        own_axis = 1 if player == 1 else 2
        for table in (P, R1):
            view = np.moveaxis(table, own_axis, 0)
            view[1] = view[0]
            view[2] = view[0]
        sg = z.validate_stochastic_game(P, R1, gamma=gamma)
        opp = _random_rows(rng, 3, 3)
        br = z.best_response_value(sg, player, opp)
        assert np.abs(br.v - _enumerated_best(sg, player, opp)).max() <= 1e-9
    # a game where no action matters at all
    flat = z.validate_stochastic_game(np.full((2, 2, 2, 2), 0.5), np.zeros((2, 2, 2)),
                                      gamma=0.99)
    br = z.best_response_value(flat, player, np.full((2, 2), 0.5))
    assert np.array_equal(br.v, np.zeros(2))


def test_best_response_residual_certificate_honours_tol():
    rng = np.random.default_rng(71)
    for tol in (1e-3, 1e-6, 1e-9):
        for gamma in (0.5, 0.9, 0.99):
            sg = _random_sg(rng, n_states=4, n1=3, n2=2, gamma=gamma)
            for player, n_opp in ((1, 2), (2, 3)):
                opp = _random_rows(rng, 4, n_opp)
                br = z.best_response_value(sg, player, opp, tol=tol)
                assert _bellman_residual(sg, player, opp, br.v) <= tol * (1.0 - gamma) / 2.0
    # a tolerance below float resolution (or NaN) cannot be certified, so it
    # is refused rather than accepted and ignored
    sg = _random_sg(rng, n_states=3, gamma=0.9)
    for tol in (1e-30, float("nan")):
        with pytest.raises(z.NoConvergence):
            z.best_response_value(sg, 1, _random_rows(rng, 3, 2), tol=tol)


def test_policy_value_geometric_series():
    P = np.ones((1, 1, 1, 1))
    R1 = np.array([[[0.5]]])
    sg = z.validate_stochastic_game(P, R1, gamma=0.5)
    joint = z.uniform_joint_policy(sg)
    assert z.policy_value(sg, 1, joint)[0] == pytest.approx(1.0, abs=1e-12)
    assert z.policy_value(sg, 2, joint)[0] == pytest.approx(-1.0, abs=1e-12)


def test_policy_value_matches_value_iteration():
    rng = np.random.default_rng(53)
    sg = _random_sg(rng, n_states=3, n1=2, n2=3, gamma=0.9)
    pi1 = rng.random((3, 2)) + 0.1
    pi1 /= pi1.sum(axis=1, keepdims=True)
    pi2 = rng.random((3, 3)) + 0.1
    pi2 /= pi2.sum(axis=1, keepdims=True)
    joint = z.validate_joint_policy(pi1, pi2, sg)
    got = z.policy_value(sg, 1, joint)

    r = np.einsum("sab,sa,sb->s", sg.R1, pi1, pi2)
    kernel = np.einsum("sabt,sa,sb->st", sg.transition, pi1, pi2)
    v = np.zeros(3)
    for _ in range(2000):
        v = r + 0.9 * kernel @ v
    assert np.allclose(got, v, atol=1e-10)


def test_zero_sum_policy_values_cancel():
    rng = np.random.default_rng(59)
    sg = _random_sg(rng, n_states=2, gamma=0.8)
    joint = z.uniform_joint_policy(sg)
    v1 = z.policy_value(sg, 1, joint)
    v2 = z.policy_value(sg, 2, joint)
    assert np.allclose(v1 + v2, 0.0, atol=1e-12)


# --- induced chain and stationary distribution ------------------------------

def _chain_game(rows, gamma=0.9):
    """Single-action stochastic game whose induced chain is `rows`."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    P = rows[:, None, None, :]
    R1 = np.zeros((n, 1, 1))
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def test_induced_chain_single_state():
    sg = _chain_game([[1.0]])
    joint = z.uniform_joint_policy(sg)
    assert np.array_equal(z.stationary_distribution(sg, joint), [1.0])


def test_induced_chain_mixes_actions():
    P = np.zeros((2, 2, 1, 2))
    P[:, 0, 0, 0] = 1.0  # action 0 jumps to state 0
    P[:, 1, 0, 1] = 1.0  # action 1 jumps to state 1
    sg = z.validate_stochastic_game(P, np.zeros((2, 2, 1)), gamma=0.5)
    pi1 = np.array([[0.25, 0.75], [0.6, 0.4]])
    pi2 = np.ones((2, 1))
    # the induced chain is [[0.25, 0.75], [0.6, 0.4]]: 0.75 mu_0 = 0.6 mu_1
    mu = z.stationary_distribution(sg, z.validate_joint_policy(pi1, pi2, sg))
    assert np.allclose(mu, np.array([0.6, 0.75]) / 1.35, atol=1e-15)


def test_stationary_distribution_doubly_stochastic():
    sg = _chain_game([[0.3, 0.7], [0.7, 0.3]])
    mu = z.stationary_distribution(sg, z.uniform_joint_policy(sg))
    assert np.allclose(mu, [0.5, 0.5], atol=1e-10)


def test_stationary_distribution_matches_power_iteration():
    rng = np.random.default_rng(61)
    rows = rng.random((4, 4)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    sg = _chain_game(rows)
    mu = z.stationary_distribution(sg, z.uniform_joint_policy(sg))
    probe = np.full(4, 0.25)
    for _ in range(1000):
        probe = probe @ rows
    assert np.allclose(mu, probe, atol=1e-8)
    assert mu.min() > 0.0
    assert float(mu.sum()) == pytest.approx(1.0, abs=1e-10)


def test_stationary_distribution_rejects_reducible_chain():
    # the second chain: state 0 reaches every state, but state 2 is absorbing
    for rows in ([[1.0, 0.0], [0.0, 1.0]],
                 [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]):
        sg = _chain_game(rows)
        with pytest.raises(z.NotErgodic, match="reducible"):
            z.stationary_distribution(sg, z.uniform_joint_policy(sg))


def test_stationary_distribution_rejects_periodic_chain():
    sg = _chain_game([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(z.NotErgodic):
        z.stationary_distribution(sg, z.uniform_joint_policy(sg))
