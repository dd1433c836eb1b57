"""Gap metrics and the smoothed equilibrium solver."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsdyn as z
from zsdyn import _core, metrics
from zsdyn.metrics import matrix_gaps, stochastic_gaps


def _random_joint(rng, n1, n2):
    p1 = rng.random(n1) + 1e-9
    p2 = rng.random(n2) + 1e-9
    return z.validate_joint_policy(p1 / p1.sum(), p2 / p2.sum())


# --- plain Nash gap, matrix ------------------------------------------------

def test_gap_zero_at_matching_pennies_equilibrium():
    game = z.matching_pennies()
    assert z.nash_gap_matrix(game, z.uniform_joint_policy(game)) == 0.0


def test_gap_two_when_both_play_second_action():
    game = z.matching_pennies()
    joint = z.validate_joint_policy([0.0, 1.0], [0.0, 1.0], game)
    assert z.nash_gap_matrix(game, joint) == 2.0


def test_gap_matches_pure_deviation_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        R1 = rng.uniform(-1.0, 1.0, (n1, n2))
        game = z.validate_matrix_game(R1)
        joint = _random_joint(rng, n1, n2)
        x1 = game.R1 @ joint.pi2
        x2 = game.R2 @ joint.pi1
        want = (x1.max() - float(joint.pi1 @ x1)) + (x2.max() - float(joint.pi2 @ x2))
        assert z.nash_gap_matrix(game, joint) == pytest.approx(want, abs=1e-12)


def test_gap_at_tilted_equilibrium():
    game = z.tilted_rps(5)
    joint = z.validate_joint_policy([1 / 3, 2 / 3, 0.0], [0.0, 2 / 3, 1 / 3], game)
    gap = z.nash_gap_matrix(game, joint)
    assert 0.0 <= gap <= 1e-12


def test_gap_nonnegative_and_bounded_by_four():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        game = z.validate_matrix_game(rng.uniform(-1.0, 1.0, (n1, n2)))
        gap = z.nash_gap_matrix(game, _random_joint(rng, n1, n2))
        assert 0.0 <= gap <= 4.0


def test_gap_permutation_equivariance():
    rng = np.random.default_rng(107)
    for _ in range(20):
        R1 = rng.uniform(-1.0, 1.0, (3, 4))
        game = z.validate_matrix_game(R1)
        joint = _random_joint(rng, 3, 4)
        perm = rng.permutation(3)
        game_p = z.validate_matrix_game(R1[perm])
        joint_p = z.validate_joint_policy(joint.pi1[perm], joint.pi2)
        a = z.nash_gap_matrix(game, joint)
        b = z.nash_gap_matrix(game_p, joint_p)
        assert abs(a - b) <= 1e-12
        at = z.regularized_nash_gap(game, joint, 0.3)
        bt = z.regularized_nash_gap(game_p, joint_p, 0.3)
        assert abs(at - bt) <= 1e-12


def test_gap_rejects_mismatched_policy():
    game = z.matching_pennies()
    with pytest.raises(z.DimensionMismatch):
        z.nash_gap_matrix(game, z.validate_joint_policy([1 / 3] * 3, [0.5, 0.5]))


# --- regularized gap --------------------------------------------------------

def test_regularized_gap_zero_at_uniform_symmetric():
    game = z.matching_pennies()
    joint = z.uniform_joint_policy(game)
    for tau in (0.05, 0.3, 1.0, 2.0):
        # two actions: log 2 and the uniform entropy are the same float
        assert z.regularized_nash_gap(game, joint, tau) == 0.0
    rps = z.rock_paper_scissors()
    joint3 = z.uniform_joint_policy(rps)
    for tau in (0.05, 0.3, 1.0, 2.0):
        # three actions: entropy rounds one ulp away from log 3
        assert z.regularized_nash_gap(rps, joint3, tau) <= 1e-15


def test_regularized_gap_positive_off_equilibrium():
    game = z.matching_pennies()
    joint = z.validate_joint_policy([0.9, 0.1], [0.5, 0.5], game)
    assert z.regularized_nash_gap(game, joint, 0.5) > 0.01


def test_gibbs_variational_identity():
    # tau-scaled log-sum-exp equals the smoothed policy's payoff plus entropy
    rng = np.random.default_rng(109)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        x = rng.uniform(-1.0, 1.0, n)
        tau = float(rng.uniform(0.1, 2.0))
        sigma = z.softmax(x, tau)
        m = float(x.max())
        lse = m + tau * math.log(float(np.exp((x - m) / tau).sum()))
        assert lse == pytest.approx(float(sigma @ x) + tau * z.entropy(sigma), abs=1e-10)


def test_regularized_gap_vanishes_at_nash_distribution():
    cases = [(z.matching_pennies(), 0.7), (z.rock_paper_scissors(), 0.3),
             (z.tilted_rps(5), 0.2)]
    for game, tau in cases:
        nd = z.nash_distribution(game, tau)
        assert z.regularized_nash_gap(game, nd.joint, tau) <= 1e-6


def test_smoothing_bias_inequality():
    rng = np.random.default_rng(113)
    for _ in range(200):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        game = z.validate_matrix_game(rng.uniform(-1.0, 1.0, (n1, n2)))
        joint = _random_joint(rng, n1, n2)
        tau = float(rng.uniform(0.01, 2.0))
        ng = z.nash_gap_matrix(game, joint)
        ngtau = z.regularized_nash_gap(game, joint, tau)
        assert ng <= ngtau + 2.0 * tau * math.log(game.a_max) + 1e-9


def test_quadratic_growth_near_nash_distribution():
    rng = np.random.default_rng(127)
    for game, tau in ((z.matching_pennies(), 0.5), (z.tilted_rps(5), 0.2)):
        star = z.nash_distribution(game, tau).joint
        for _ in range(100):
            joint = _random_joint(rng, game.n_actions_1, game.n_actions_2)
            lhs = z.regularized_nash_gap(game, joint, tau)
            d1 = float(((joint.pi1 - star.pi1) ** 2).sum())
            d2 = float(((joint.pi2 - star.pi2) ** 2).sum())
            assert lhs >= tau / 2.0 * (d1 + d2) - 1e-9


# --- generalized gap over explicit payoff pairs -----------------------------

def test_generalized_gap_reduces_to_regularized():
    rng = np.random.default_rng(131)
    for _ in range(30):
        game = z.validate_matrix_game(rng.uniform(-1.0, 1.0, (3, 3)))
        joint = _random_joint(rng, 3, 3)
        tau = float(rng.uniform(0.1, 1.0))
        vx = z.generalized_gap_vx(game.R1, game.R2, joint, tau)
        assert z.regularized_nash_gap(game, joint, tau) == max(0.0, vx)


def test_generalized_gap_entropy_only_case():
    # zero payoffs leave only the entropy shortfall from uniform
    rng = np.random.default_rng(137)
    X1 = np.zeros((3, 4))
    X2 = np.zeros((4, 3))
    uniform = z.validate_joint_policy([1 / 3] * 3, [0.25] * 4)
    assert abs(z.generalized_gap_vx(X1, X2, uniform, 0.7)) <= 1e-12
    for _ in range(30):
        joint = _random_joint(rng, 3, 4)
        tau = float(rng.uniform(0.1, 2.0))
        want = tau * (math.log(3) - z.entropy(joint.pi1)) \
            + tau * (math.log(4) - z.entropy(joint.pi2))
        got = z.generalized_gap_vx(X1, X2, joint, tau)
        assert got == pytest.approx(want, abs=1e-10)
        assert got >= -1e-15


def test_generalized_gap_accepts_non_zero_sum_pairs():
    X1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    X2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    joint = z.validate_joint_policy([0.5, 0.5], [0.5, 0.5])
    out = z.generalized_gap_vx(X1, X2, joint, 0.5)
    assert math.isfinite(out)


def test_generalized_gap_shape_errors():
    joint = z.validate_joint_policy([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(z.DimensionMismatch):
        z.generalized_gap_vx(np.zeros((2, 3)), np.zeros((2, 3)), joint, 0.5)


@pytest.mark.parametrize("pi1, X1, error", [
    ([1.5, -0.5], [[1.0, 0.0], [0.0, 1.0]], z.NotADistribution),
    ([math.nan, 1.0], [[1.0, 0.0], [0.0, 1.0]], z.NotADistribution),
    ([0.5, 0.5], [[math.nan, 0.0], [0.0, 1.0]], z.NonFiniteInput),
], ids=["negative-entry", "nan-entry", "nan-matrix"])
def test_generalized_gap_rejects_bad_input(pi1, X1, error):
    # the gap's final clamp to zero would hide each of these as 0.0
    joint = z.JointPolicy(pi1=np.array(pi1), pi2=np.array([0.5, 0.5]))
    with pytest.raises(error):
        z.generalized_gap_vx(np.array(X1), -np.array(X1).T, joint, 0.5)


# --- smoothed equilibrium solver ---------------------------------------------

def test_nash_distribution_symmetric_games_are_uniform():
    for game in (z.matching_pennies(), z.rock_paper_scissors()):
        for tau in (0.05, 0.5, 2.0):
            nd = z.nash_distribution(game, tau)
            assert np.array_equal(nd.joint.pi1, np.full(game.n_actions_1, 1.0 / game.n_actions_1))
            assert np.array_equal(nd.joint.pi2, np.full(game.n_actions_2, 1.0 / game.n_actions_2))
            assert nd.residual <= 1e-10


def test_nash_distribution_fixed_point_property():
    game = z.tilted_rps(5)
    nd = z.nash_distribution(game, 0.2)
    assert nd.residual <= 1e-10
    s1 = z.softmax(game.R1 @ nd.joint.pi2, 0.2)
    s2 = z.softmax(game.R2 @ nd.joint.pi1, 0.2)
    assert float(np.abs(s1 - nd.joint.pi1).max()) <= 1e-9
    assert float(np.abs(s2 - nd.joint.pi2).max()) <= 1e-9
    assert z.regularized_nash_gap(game, nd.joint, 0.2) <= 1e-6


def test_nash_distribution_halves_damping_below_one_sixteenth():
    # this 4x5 game at tau 0.083 misses tol within 20,000 iterations at
    # damping 1/16 and converges at 1/32, which a floor of 1/16 never tries
    game = z.validate_matrix_game(np.random.default_rng(237).uniform(-1, 1, (4, 5)))
    tau = 0.083
    nd = z.nash_distribution(game, tau, damping=1 / 16, max_iters=20_000)
    assert nd.residual <= 1e-10
    s1 = z.softmax(game.R1 @ nd.joint.pi2, tau)
    s2 = z.softmax(game.R2 @ nd.joint.pi1, tau)
    assert float(np.abs(s1 - nd.joint.pi1).max()) <= 1e-9
    assert float(np.abs(s2 - nd.joint.pi2).max()) <= 1e-9


def test_nash_distribution_requires_zero_sum():
    game = z.validate_matrix_game([[0.5, -0.5], [-0.5, -0.5]],
                                  [[0.0, 0.0], [0.0, 0.0]],
                                  require_zero_sum=False)
    with pytest.raises(z.NotZeroSum):
        z.nash_distribution(game, 0.5)


@pytest.mark.parametrize("kw", [{"tau": 0.0}, {"tau": math.nan}, {"damping": 2.0},
                                {"tol": math.nan}, {"tol": -1.0}, {"max_iters": 0}],
                         ids=["tau-0", "tau-nan", "damping-2", "tol-nan", "tol-negative",
                              "max-iters-0"])
def test_nash_distribution_rejects_bad_arguments_up_front(kw):
    # max_iters=2000 bounds the run should a check be missing
    args = {"tau": 0.3, "max_iters": 2000, **kw}
    with pytest.raises(ValueError):
        z.nash_distribution(z.rock_paper_scissors(), **args)


def test_nash_distribution_asymmetric_2x2():
    # unique interior fixed point, found independently by dense grid refinement
    game = z.validate_matrix_game([[0.8, -0.4], [-0.6, 0.2]])
    tau = 0.5
    nd = z.nash_distribution(game, tau)
    p = nd.joint.pi1
    q = nd.joint.pi2
    assert np.allclose(p, z.softmax(game.R1 @ q, tau), atol=1e-9)
    assert np.allclose(q, z.softmax(game.R2 @ p, tau), atol=1e-9)
    assert z.regularized_nash_gap(game, nd.joint, tau) <= 1e-6


def test_nash_distribution_respects_tolerance_argument():
    game = z.tilted_rps(3)
    nd = z.nash_distribution(game, 0.4, tol=1e-12)
    assert nd.residual <= 1e-12


# --- stochastic-game gap ------------------------------------------------------

def _mp_sg(gamma=0.5):
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def test_stochastic_gap_zero_at_embedded_equilibrium():
    sg = _mp_sg()
    gap = z.nash_gap_stochastic(sg, z.uniform_joint_policy(sg), tol=1e-8)
    assert 0.0 <= gap <= 2e-8


def test_stochastic_gap_detects_exploitable_policy():
    sg = _mp_sg(gamma=0.5)
    joint = z.validate_joint_policy([[0.0, 1.0]], [[0.0, 1.0]], sg)
    # player 2's best response earns 1 forever instead of losing 1 forever
    gap = z.nash_gap_stochastic(sg, joint, tol=1e-8)
    assert gap == pytest.approx(4.0, abs=1e-6)


def test_stochastic_gap_matches_enumeration():
    rng = np.random.default_rng(139)
    for _ in range(10):
        P = rng.random((2, 2, 2, 2)) + 0.05
        P /= P.sum(axis=3, keepdims=True)
        R1 = rng.uniform(-1.0, 1.0, (2, 2, 2))
        sg = z.validate_stochastic_game(P, R1, gamma=0.8)
        pi1 = rng.random((2, 2)) + 0.1
        pi1 /= pi1.sum(axis=1, keepdims=True)
        pi2 = rng.random((2, 2)) + 0.1
        pi2 /= pi2.sum(axis=1, keepdims=True)
        joint = z.validate_joint_policy(pi1, pi2, sg)

        want = 0.0
        for player, own_n in ((1, 2), (2, 2)):
            best = -np.inf
            for a0 in range(own_n):
                for a1 in range(own_n):
                    det = np.zeros((2, own_n))
                    det[0, a0] = 1.0
                    det[1, a1] = 1.0
                    if player == 1:
                        probe = z.validate_joint_policy(det, pi2, sg)
                    else:
                        probe = z.validate_joint_policy(pi1, det, sg)
                    best = max(best, float(sg.initial_dist @ z.policy_value(sg, player, probe)))
            want += best - float(sg.initial_dist @ z.policy_value(sg, player, joint))
        want = max(0.0, want)
        assert z.nash_gap_stochastic(sg, joint, tol=1e-9) == pytest.approx(want, abs=1e-6)


def test_stochastic_gap_nonnegative_on_random_inputs():
    rng = np.random.default_rng(149)
    for _ in range(10):
        P = rng.random((3, 2, 3, 3)) + 0.05
        P /= P.sum(axis=3, keepdims=True)
        sg = z.validate_stochastic_game(P, rng.uniform(-1.0, 1.0, (3, 2, 3)), gamma=0.7)
        pi1 = rng.random((3, 2)) + 0.1
        pi1 /= pi1.sum(axis=1, keepdims=True)
        pi2 = rng.random((3, 3)) + 0.1
        pi2 /= pi2.sum(axis=1, keepdims=True)
        gap = z.nash_gap_stochastic(sg, z.validate_joint_policy(pi1, pi2, sg))
        assert 0.0 <= gap <= 4.0 / (1.0 - 0.7) + 1e-9


def test_stochastic_gap_requires_zero_sum():
    # the duality gap holds only where the players' values cancel
    sg = _mp_sg()
    general = z.validate_stochastic_game(sg.transition, sg.R1, np.zeros((1, 2, 2)),
                                         gamma=0.5, require_zero_sum=False)
    joint = z.uniform_joint_policy(general)
    with pytest.raises(z.NotZeroSum):
        z.nash_gap_stochastic(general, joint)
    with pytest.raises(z.NotZeroSum):
        stochastic_gaps(general, joint.pi1[None], joint.pi2[None])


def _bad_tables(n_states, n):
    # (policy table, error, first bad row): wrong shape, a row off by 1e-9,
    # a NaN row
    good = np.full((n_states, n), 1.0 / n)
    over = good.copy()
    over[1, -1] += 1e-9
    nan = good.copy()
    nan[0, 0] = np.nan
    return ((np.full((n_states + 1, n), 1.0 / n), z.DimensionMismatch, None),
            (over, z.NotADistribution, 1), (nan, z.NotADistribution, 0))


@pytest.mark.parametrize("player", [1, 2])
def test_stochastic_gap_and_oracles_keep_input_guards(player):
    # nash_gap_stochastic validates once and scores with unchecked cores; it
    # and the public oracles must still refuse each malformed table, naming
    # its first bad row
    rng = np.random.default_rng(151)
    P = rng.random((2, 2, 4, 2)) + 0.05
    P /= P.sum(axis=3, keepdims=True)
    sg = z.validate_stochastic_game(P, rng.uniform(-1.0, 1.0, (2, 2, 4)), gamma=0.7)
    pi1, pi2 = np.full((2, 2), 0.5), np.full((2, 4), 0.25)
    for bad, error, row in _bad_tables(2, 2 if player == 1 else 4):
        joint = z.JointPolicy(pi1=bad, pi2=pi2) if player == 1 else z.JointPolicy(pi1=pi1, pi2=bad)
        named = None if row is None else f"pi{player} row {row} "
        with pytest.raises(error, match=named):
            z.nash_gap_stochastic(sg, joint)
        for scored in (1, 2):
            with pytest.raises(error, match=named):
                z.policy_value(sg, scored, joint)
        # the table is the opponent of the other player's best response
        with pytest.raises(error, match=None if row is None else f"opponent policy row {row} "):
            z.best_response_value(sg, 3 - player, bad)


# --- stacked stochastic gap ---------------------------------------------------

def _reference_best_value(sg, player, opp, tol):
    # the best-response oracle as a plain loop: Howard iteration on the
    # player's (S, A) MDP against opp, then its certificate
    if player == 1:
        r = np.einsum("sab,sb->sa", sg.R1, opp)
        kernel = np.einsum("sabt,sb->sat", sg.transition, opp)
    else:
        r = np.einsum("sba,sa->sb", sg.R2, opp)
        kernel = np.einsum("sabt,sa->sbt", sg.transition, opp)
    rows, eye = np.arange(sg.n_states), np.eye(sg.n_states)
    margin = 64 * np.finfo(np.float64).eps * (1.0 + float(np.abs(r).max())) / (1.0 - sg.gamma)
    act = r.argmax(axis=1)
    while True:
        v = np.linalg.solve(eye - sg.gamma * kernel[rows, act], r[rows, act])
        q = r + sg.gamma * (kernel @ v)
        best = q.argmax(axis=1)
        switch = q[rows, best] > q[rows, act] + margin
        if not switch.any():
            break
        act = np.where(switch, best, act)
    assert float(np.abs(q.max(axis=1) - v).max()) <= tol * (1.0 - sg.gamma) / 2.0
    return v


def _reference_gap(sg, pi1, pi2, tol):
    # the one-joint-policy scorer as a plain loop: the zero-sum duality gap,
    # p_o @ v of each player's best-response value as a dot product
    gap = 0.0
    for player, opp in ((1, pi2), (2, pi1)):
        gap += float(sg.initial_dist @ _reference_best_value(sg, player, opp, tol))
    return max(0.0, gap)


def _achieved_gap(sg, pi1, pi2, tol):
    # the gap's definition: best-response minus achieved value under p_o,
    # summed over players, with each achieved value from an exact solve
    chain = np.einsum("sabt,sa,sb->st", sg.transition, pi1, pi2)
    gap = 0.0
    for player, opp, r_pol in ((1, pi2, np.einsum("sab,sa,sb->s", sg.R1, pi1, pi2)),
                               (2, pi1, np.einsum("sba,sb,sa->s", sg.R2, pi2, pi1))):
        achieved = np.linalg.solve(np.eye(sg.n_states) - sg.gamma * chain, r_pol)
        gap += float(sg.initial_dist @ _reference_best_value(sg, player, opp, tol)) \
            - float(sg.initial_dist @ achieved)
    return max(0.0, gap)


def _tied_sg(rng, player):
    # the player's actions 1 and 2 duplicate action 0 in rewards and moves
    P = rng.random((3, 3, 3, 3)) + 0.05
    P /= P.sum(axis=3, keepdims=True)
    R1 = rng.uniform(-1.0, 1.0, (3, 3, 3))
    for table in (P, R1):
        view = np.moveaxis(table, player, 0)
        view[1] = view[0]
        view[2] = view[0]
    return z.validate_stochastic_game(P, R1, gamma=0.9)


def _policy_stack(rng, n_rows, n_states, n):
    # mixed rows with zero entries, deterministic rows and uniform rows
    stack = rng.random((n_rows, n_states, n)) ** 3
    stack[rng.random(stack.shape) < 0.25] = 0.0
    stack[..., 0] += 1e-3
    stack /= stack.sum(axis=2, keepdims=True)
    stack[1::5] = np.eye(n)[rng.integers(0, n, (len(stack[1::5]), n_states))]
    stack[2::5] = 1.0 / n
    return stack


def _stack_games():
    rng = np.random.default_rng(163)
    for n_states, n1, n2, gamma in ((3, 2, 2, 0.9), (5, 3, 2, 0.75), (20, 3, 3, 0.9)):
        P = rng.random((n_states, n1, n2, n_states)) ** 3 + 1e-3
        P /= P.sum(axis=3, keepdims=True)
        yield z.validate_stochastic_game(P, rng.uniform(-1.0, 1.0, (n_states, n1, n2)),
                                         gamma=gamma), True
    # in the tied games every row's policy iteration stops after one round
    yield _tied_sg(rng, 1), False
    yield _tied_sg(rng, 2), False


def test_stacked_gap_equals_one_row_gap_bitwise():
    rng = np.random.default_rng(167)
    for sg, rounds_vary in _stack_games():
        pi1 = _policy_stack(rng, 40, sg.n_states, sg.n_actions_1)
        pi2 = _policy_stack(rng, 40, sg.n_states, sg.n_actions_2)
        # player 1's best response is the reward-greedy policy in some rows
        # (one round of policy iteration) and not in others (more rounds)
        greedy = [np.array_equal(z.best_response_value(sg, 1, p).policy,
                                 np.einsum("sab,sb->sa", sg.R1, p).argmax(axis=1))
                  for p in pi2]
        assert not rounds_vary or (any(greedy) and not all(greedy))
        gaps = stochastic_gaps(sg, pi1, pi2, tol=1e-6)
        assert gaps.shape == (40,) and gaps.dtype == np.float64
        for n in range(40):
            one = z.nash_gap_stochastic(sg, z.JointPolicy(pi1=pi1[n], pi2=pi2[n]), tol=1e-6)
            assert np.float64(one).tobytes() == gaps[n].tobytes()
            ref = _reference_gap(sg, pi1[n], pi2[n], 1e-6)
            assert np.float64(ref).tobytes() == gaps[n].tobytes()
            # the players' achieved values cancel to float rounding
            assert abs(_achieved_gap(sg, pi1[n], pi2[n], 1e-6) - gaps[n]) <= 1e-12
        # a sub-stack scores its rows to the same bits
        assert stochastic_gaps(sg, pi1[7:19], pi2[7:19]).tobytes() == gaps[7:19].tobytes()


def test_stacked_gap_refuses_bad_rows_and_tolerances():
    rng = np.random.default_rng(173)
    sg = next(_stack_games())[0]
    pi1 = _policy_stack(rng, 9, 3, 2)
    pi2 = _policy_stack(rng, 9, 3, 2)
    for value in (np.nan, 0.5 + 1e-9, -0.25):
        bad = pi1.copy()
        bad[4, 1, 0] = value
        with pytest.raises(z.NotADistribution, match="pi1 row 4, 1 "):
            stochastic_gaps(sg, bad, pi2)
        with pytest.raises(z.NotADistribution, match="pi2 row 4, 1 "):
            stochastic_gaps(sg, pi2, bad)
    with pytest.raises(z.DimensionMismatch):
        stochastic_gaps(sg, pi1, pi2[:-1])
    with pytest.raises(z.DimensionMismatch):
        stochastic_gaps(sg, pi1[0], pi2[0])
    for tol in (1e-30, float("nan")):
        with pytest.raises(z.NoConvergence):
            stochastic_gaps(sg, pi1, pi2, tol=tol)


# --- batched form used by the recording loop ----------------------------------

def test_batched_gaps_match_array_metrics():
    rng = np.random.default_rng(151)
    for _ in range(50):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        R1 = rng.uniform(-1.0, 1.0, (n1, n2))
        game = z.validate_matrix_game(R1)
        joints = [_random_joint(rng, n1, n2) for _ in range(3)]
        tau = rng.uniform(0.05, 1.5, 3)
        ng, ngtau = matrix_gaps(game.R1, game.R2, np.array([j.pi1 for j in joints]).T,
                                np.array([j.pi2 for j in joints]).T, tau)
        for row, joint in enumerate(joints):
            assert ng[row] == pytest.approx(z.nash_gap_matrix(game, joint), abs=1e-12)
            assert ngtau[row] == pytest.approx(
                z.regularized_nash_gap(game, joint, float(tau[row])), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1.0, 1e-8, 1e-300]), st.booleans())
def test_compiled_gaps_are_matrix_gaps_bitwise(n1, n2, N, seed, scale, zero_sum):
    # the compiled scorer against the numpy body of matrix_gaps, its
    # specification: payoffs of thirds (ties in the max) scaled until
    # products and gaps underflow, policies with zero entries and point
    # masses, tau log-uniform from DBL_MIN to 1e3 with both ends
    if _core._gaps_loop() is None:
        pytest.skip("no cc on PATH: matrix_gaps runs its numpy body")
    rng = np.random.default_rng(seed)
    R1 = np.round(3.0 * rng.uniform(-1.0, 1.0, (n1, n2))) / 3.0 * scale
    R2 = -R1.T if zero_sum else rng.uniform(-1.0, 1.0, (n2, n1)) * scale

    def policies(n):
        p, kind = rng.dirichlet(np.ones(n), N).T, rng.integers(0, 3, N)
        p[:, kind == 1] *= rng.random((n, np.count_nonzero(kind == 1))) < 0.5
        p[:, kind == 2] = np.eye(n)[:, rng.integers(0, n, np.count_nonzero(kind == 2))]
        p[0, p.sum(axis=0) == 0.0] = 1.0
        return p / p.sum(axis=0)

    pi1, pi2 = policies(n1), policies(n2)
    tau = np.maximum(10.0 ** rng.uniform(math.log10(sys.float_info.min), 3.0, N),
                     sys.float_info.min)
    tau[[0, -1]] = sys.float_info.min, 1e3
    got = matrix_gaps(R1, R2, pi1, pi2, tau)
    with mock.patch.object(metrics, "_gaps_loop", lambda: None):
        want = matrix_gaps(R1, R2, pi1, pi2, tau)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
