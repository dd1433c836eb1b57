"""Matrix-game learning dynamics: the kernel against a reference loop,
recording, and their invariants."""

import math
import random
import sys
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import zsdyn as z
from zsdyn._core import _entropy, _exp, _row_sum, _targets, pick_action, smoothed_policy
from zsdyn.config import matrix_condition_warnings
from zsdyn.metrics import matrix_gaps


def _config(**kw):
    base = dict(tau=0.5,
                schedule=z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.1),
                K=10, seed=7)
    base.update(kw)
    return z.MatrixRunConfig(**base)


def _truncations(game, config):
    # one record per step, from one call over config at K=1..config.K: the
    # iterates do not depend on K, so record k's finals are the iterates
    # after step k and its one row is row k of a stride-1 run
    return z.run_matrix_dynamics(game, [replace(config, K=k, record_stride=k)
                                        for k in range(1, config.K + 1)])


def _iterates(rec):
    return (*rec.final_q, rec.final_policy.pi1, rec.final_policy.pi2)


def _plays(game, config, steps):
    # each step's actions and payoffs, recomputed from the post-step
    # policies and each player's uniforms: [((a1, a2), (r1, r2)), ...]
    u = [np.random.default_rng(c).random(config.K)
         for c in z.player_seed_sequences(config.seed)]
    out = []
    for k, (_, _, pi1, pi2) in enumerate(steps):
        a1, a2 = pick_action(pi1.tolist(), u[0][k]), pick_action(pi2.tolist(), u[1][k])
        out.append(((a1, a2), (float(game.R1[a1, a2]), float(game.R2[a2, a1]))))
    return out


def _reference_steps(game, config):
    # One trajectory of the dynamics of the module docstring on plain lists,
    # a step at a time, with each player's uniforms drawn for all K steps at
    # once by numpy and the rates of schedule.rates(k): (q1, q2, pi1, pi2)
    # after each step. The kernel draws its uniforms and rates itself,
    # batches trajectories and stops at recording steps, so this checks
    # those from outside. The q update adds gamma * v = 0.0 * 0.0, as the
    # kernel's one-state game does
    u1, u2 = (np.random.default_rng(c).random(config.K).tolist()
              for c in z.player_seed_sequences(config.seed))
    R1, R2 = game.R1.tolist(), game.R2.tolist()
    tau, eps, normalize = config.tau, config.eps_bar, config.normalize_q_in_softmax
    q = [[0.0] * game.n_actions_1, [0.0] * game.n_actions_2]
    pi = [[1.0 / len(x)] * len(x) for x in q]
    out = []
    for k in range(config.K):
        alpha, beta = config.schedule.rates(k)
        for i in (0, 1):
            target = smoothed_policy(q[i], tau, eps, normalize)
            pi[i] = [p + beta * (g - p) for p, g in zip(pi[i], target)]
        a1, a2 = pick_action(pi[0], u1[k]), pick_action(pi[1], u2[k])
        q[0][a1] += alpha * (R1[a1][a2] + 0.0 * 0.0 - q[0][a1])
        q[1][a2] += alpha * (R2[a2][a1] + 0.0 * 0.0 - q[1][a2])
        out.append(tuple(np.array(x) for x in (*q, *pi)))
    return out


def test_init_state():
    # a run starts from q = 0, uniform policies and each player's seed
    # child at the start of its stream: the first step keeps pi uniform,
    # the target of q = 0, and moves q by alpha * payoff at the action
    # that the stream's first uniform picks
    game = z.rock_paper_scissors()
    config = _config(K=1)
    [rec] = z.run_matrix_dynamics(game, [config])
    q1, q2, pi1, pi2 = _iterates(rec)
    a1, a2 = (pick_action([1.0 / 3.0] * 3, np.random.default_rng(child).random())
              for child in z.player_seed_sequences(config.seed))
    for q, pi, a, payoff in ((q1, pi1, a1, game.R1[a1, a2]), (q2, pi2, a2, game.R2[a2, a1])):
        assert np.array_equal(pi, np.full(3, 1.0 / 3.0))
        want = np.zeros(3)
        want[a] = 0.5 * payoff
        assert np.array_equal(q, want)
    assert q1[a1] != 0.0


def test_first_step_by_hand():
    # seed 7 draws u1 ~ 0.798 and u2 ~ 0.481 from the two player streams,
    # so from the uniform policy player 1 picks action 1 and player 2 action 0
    game = z.matching_pennies()
    config = _config(seed=7, tau=1.0, K=1)
    [rec] = z.run_matrix_dynamics(game, [config])
    [(actions, payoffs)] = _plays(game, config, [_iterates(rec)])

    assert rec.index.tolist() == [[0, 1]]
    assert actions == (1, 0)
    # payoffs at (a1=1, a2=0): R1[1,0] = -1, R2[0,1] = 1
    assert payoffs == (-1.0, 1.0)
    # softmax target at q=0 is uniform, so the policy update is a no-op
    assert np.array_equal(rec.final_policy.pi1, [0.5, 0.5])
    assert np.array_equal(rec.final_policy.pi2, [0.5, 0.5])
    # q moves only at the realized action, by alpha (payoff - q)
    assert np.array_equal(rec.final_q[0], [0.0, -0.5])
    assert np.array_equal(rec.final_q[1], [0.5, 0.0])


def test_zero_beta_freezes_policies():
    game = z.rock_paper_scissors()
    config = _config(K=50,
                     schedule=z.StepsizeSchedule(kind="constant", alpha=0.5, beta=1e-300))
    # beta this small leaves the policy numerically uniform but exercises
    # the full update path
    [rec] = z.run_matrix_dynamics(game, [config])
    assert np.allclose(rec.final_policy.pi1, 1.0 / 3.0, atol=1e-12)


def test_q_update_touches_one_coordinate_per_step():
    game = z.rock_paper_scissors()
    config = _config(seed=11, K=30)
    steps = [_iterates(rec) for rec in _truncations(game, config)]
    prev = (np.zeros(3), np.zeros(3))
    for (q1, q2, _, _), (actions, _) in zip(steps, _plays(game, config, steps)):
        for i, q in enumerate((q1, q2)):
            moved = np.flatnonzero(q != prev[i])
            assert len(moved) <= 1
            if len(moved) == 1:
                assert moved[0] == actions[i]
        prev = (q1, q2)


def test_full_replacement_alpha_one():
    game = z.matching_pennies()
    config = _config(K=1, schedule=z.StepsizeSchedule(kind="constant", alpha=1.0, beta=0.1))
    [rec] = z.run_matrix_dynamics(game, [config])
    [(actions, payoffs)] = _plays(game, config, [_iterates(rec)])
    for i in range(2):
        assert rec.final_q[i][actions[i]] == payoffs[i]


def test_policies_remain_distributions():
    game = z.tilted_rps(5)
    config = _config(seed=3, K=200,
                     schedule=z.StepsizeSchedule(kind="constant", alpha=0.9, beta=0.9))
    for rec in _truncations(game, config):
        for pi in (rec.final_policy.pi1, rec.final_policy.pi2):
            assert abs(float(pi.sum()) - 1.0) <= 1e-12
            assert float(pi.min()) >= 0.0


def _uniform_game(shape, seed):
    return z.validate_matrix_game(np.random.default_rng(seed).uniform(-1.0, 1.0, shape))


# a 2x3 game, which the kernel keeps as one stack of rows per player, and a
# square game, whose players share one stack
LAYOUTS = pytest.mark.parametrize("shape", [(2, 3), (3, 3)], ids=["2x3", "3x3"])


def test_run_equals_stepping_bitwise(loops):
    # the kernel against _reference_steps, compared after every step, on
    # each loop. K=70 crosses the list loop's chunk of 64 uniforms, and the
    # diminishing runs check the compiled loop's rates against
    # schedule.rates(k) beyond it; the games are square and
    # not, and a one-action player samples without passing a partial sum,
    # a two-action player past one. The schedules are constant and
    # diminishing, and the 5x5 run is the explore variant with
    # normalize_q_in_softmax
    dim = z.StepsizeSchedule(kind="diminishing", alpha=4.0, beta=1.0, h=8.0)
    cases = [(z.tilted_rps(5), _config(seed=19, tau=0.7)),
             (_uniform_game((2, 3), 3), _config(seed=19, tau=0.7)),
             (_uniform_game((2, 3), 5), _config(seed=3, schedule=dim)),
             (_uniform_game((1, 3), 7), _config(seed=5, tau=0.3)),
             (_uniform_game((3, 1), 9), _config(seed=6, schedule=dim, variant="explore",
                                                eps_bar=0.3)),
             (_uniform_game((5, 5), 13),
              _config(seed=23, tau=0.4, schedule=dim, variant="explore", eps_bar=0.2,
                      normalize_q_in_softmax=True))]
    cases = [(game, replace(config, K=70, record_stride=1)) for game, config in cases]
    wants = [_reference_steps(game, config) for game, config in cases]
    for _ in loops:
        for (game, config), want in zip(cases, wants):
            [rec] = z.run_matrix_dynamics(game, [config])
            for trunc, ref in zip(_truncations(game, config), want, strict=True):
                for got, w in zip(_iterates(trunc), ref):
                    assert got.dtype == w.dtype and got.tobytes() == w.tobytes()
            for row, (q1, q2, pi1, pi2) in enumerate(want):
                ng, ngtau = matrix_gaps(game.R1, game.R2, pi1[:, None], pi2[:, None],
                                        np.array([config.tau]))
                assert (rec.series["ng"][row], rec.series["ngtau"][row]) == (ng[0], ngtau[0])
                assert rec.series["min_pi"][row] == min(pi1.min(), pi2.min())
                assert rec.series["q_inf"][row] == max(np.abs(q1).max(), np.abs(q2).max())
            for got, w in zip(_iterates(rec), want[-1]):
                assert got.tobytes() == w.tobytes()


def test_a_matrix_run_is_a_one_state_stochastic_run(loops):
    # the design's invariant: a matrix game is the one-state stochastic game
    # whose transition is all ones, and run_visbr at T=1 steps it as
    # run_matrix_dynamics does. Player i draws from child i of the seed's
    # SeedSequence in both, and v stays 0 until the round ends, so gamma
    # does not enter: final q and both final policies agree bit for bit, at
    # K=150 and, on mp, at each K=1..50 of one config. rps's R2 has a -0.0
    # diagonal
    dim = z.StepsizeSchedule(kind="diminishing", alpha=4.0, beta=1.0, h=8.0)
    const = z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.1)
    for _ in loops:
        for source in ("builtin:mp", "builtin:rps", "builtin:appF:N=5"):
            game = z.load_game(source)
            truncated = [(31, K) for K in range(1, 51)] if source == "builtin:mp" else []
            one = z.validate_stochastic_game(
                np.ones((1, game.n_actions_1, game.n_actions_2, 1)), game.R1[None],
                game.R2[None], gamma=0.5)
            for schedule, (variant, eps_bar) in product((const, dim),
                                                        (("plain", 0.0), ("explore", 0.2))):
                kws = [dict(tau=0.3 + 0.1 * seed, schedule=schedule, K=K, seed=seed,
                            variant=variant, eps_bar=eps_bar, record_stride=K)
                       for seed, K in [(0, 150), (1, 150), (2, 150), *truncated]]
                matrix = z.run_matrix_dynamics(game, [z.MatrixRunConfig(**kw) for kw in kws])
                stochastic = z.run_visbr(one, [z.VisbrConfig(**kw, T=1) for kw in kws])
                for m, st in zip(matrix, stochastic, strict=True):
                    for got, want in zip((*m.final_q, m.final_policy.pi1, m.final_policy.pi2),
                                         (*st.final_q, st.final_policy.pi1,
                                          st.final_policy.pi2)):
                        assert got.tobytes() == want[0].tobytes()


def test_truncated_runs_end_where_a_longer_run_stands():
    # the contract _truncations rests on: a run with K=k ends where a
    # longer run of the same config stands after k steps
    for game in (z.tilted_rps(5), _uniform_game((2, 3), 3)):
        config = _config(seed=19, K=37, tau=0.7, record_stride=1)
        [long] = z.run_matrix_dynamics(game, [config])
        recs = _truncations(game, config)
        for k, rec in enumerate(recs, 1):
            assert rec.index.tolist() == [[0, k]]
            for name in z.MATRIX_METRICS:
                assert rec.series[name][-1] == long.series[name][k - 1], (name, k)
        for got, want in zip(_iterates(recs[-1]), _iterates(long)):
            assert got.tobytes() == want.tobytes()


def test_identical_config_identical_record():
    game = z.matching_pennies()
    config = _config(seed=5, K=64, record_stride=8)
    assert z.run_matrix_dynamics(game, [config])[0] == z.run_matrix_dynamics(game, [config])[0]


def test_record_row_structure():
    game = z.matching_pennies()
    rec = z.run_matrix_dynamics(game, [_config(K=25, record_stride=10)])[0]
    assert rec.index.tolist() == [[0, 10], [0, 20], [0, 25]]
    rec = z.run_matrix_dynamics(game, [_config(K=20, record_stride=5)])[0]
    assert rec.index.tolist() == [[0, 5], [0, 10], [0, 15], [0, 20]]
    # stride = K gives exactly one row
    rec = z.run_matrix_dynamics(game, [_config(K=30, record_stride=30)])[0]
    assert rec.index.tolist() == [[0, 30]]
    assert set(rec.series) == set(z.MATRIX_METRICS)


def test_recorded_bounds_hold():
    rng = np.random.default_rng(71)
    for trial in range(8):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        R1 = rng.uniform(-1.0, 1.0, (n1, n2))
        game = z.validate_matrix_game(R1)
        if trial % 2 == 0:
            config = _config(seed=trial, K=150, tau=float(rng.uniform(0.3, 1.5)))
            bound = z.exploration_bound("matrix", "plain",
                                        z.SoftmaxParams(tau=config.tau), game.a_max)
        else:
            eps = float(rng.uniform(0.05, 0.4))
            config = _config(seed=trial, K=150, tau=float(rng.uniform(0.3, 1.5)),
                             variant="explore", eps_bar=eps)
            bound = z.exploration_bound("matrix", "explore",
                                        z.SoftmaxParams(tau=config.tau, eps_bar=eps),
                                        game.a_max)
        rec = z.run_matrix_dynamics(game, [config])[0]
        assert (rec.metric("min_pi") >= bound).all()
        assert (rec.metric("q_inf") <= 1.0).all()


def test_metrics_computed_from_updated_policy():
    # the k=1 row must reflect pi_1, not pi_0: with beta=1 the policy jumps
    # to the softmax of q_0 = 0, i.e. stays uniform, while q moves; so ngtau
    # at row 1 equals the uniform-policy value exactly
    game = z.matching_pennies()
    config = _config(K=1, record_stride=1, tau=1.0,
                     schedule=z.StepsizeSchedule(kind="constant", alpha=1.0, beta=1.0))
    rec = z.run_matrix_dynamics(game, [config])[0]
    assert rec.series["ngtau"][0] == 0.0
    assert rec.series["min_pi"][0] == 0.5
    assert rec.series["q_inf"][0] == 1.0


def test_information_hiding_replay():
    # player 1's iterates are reproducible from own actions, own payoffs,
    # config, and own seed child alone
    game = z.tilted_rps(4)
    config = _config(seed=29, K=80, tau=0.6)

    steps = [_iterates(rec) for rec in _truncations(game, config)]
    plays = _plays(game, config, steps)
    own_actions = [actions[0] for actions, _ in plays]
    own_payoffs = [payoffs[0] for _, payoffs in plays]
    q_series = [q1 for q1, _, _, _ in steps]
    pi_series = [pi1 for _, _, pi1, _ in steps]

    child1, _ = z.player_seed_sequences(config.seed)
    rng = np.random.default_rng(child1)
    n = game.n_actions_1
    q = [0.0] * n
    pi = [1.0 / n] * n
    for k in range(config.K):
        alpha, beta = config.schedule.rates(k)
        target = smoothed_policy(q, config.tau, config.eps_bar,
                                 config.normalize_q_in_softmax)
        for a in range(n):
            pi[a] += beta * (target[a] - pi[a])
        a1 = pick_action(pi, rng.random())
        assert a1 == own_actions[k]
        q[a1] += alpha * (own_payoffs[k] - q[a1])
        assert np.array_equal(np.array(q), q_series[k])
        assert np.array_equal(np.array(pi), pi_series[k])


def test_explore_variant_uses_mixed_target():
    game = z.matching_pennies()
    config = _config(variant="explore", eps_bar=0.3, K=40, seed=13)
    rec = z.run_matrix_dynamics(game, [config])[0]
    assert (rec.metric("min_pi") >= 0.15).all()  # eps_bar / 2


def test_step_rejects_bad_inputs():
    game = z.matching_pennies()
    config = _config()
    bad = z.validate_matrix_game([[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)),
                                 require_zero_sum=False)
    with pytest.raises(z.NotZeroSum):
        z.run_matrix_dynamics(bad, [config])
    sg = z.validate_stochastic_game(np.ones((1, 2, 2, 1)), game.R1[None], gamma=0.5)
    with pytest.raises(z.DimensionMismatch):
        z.run_matrix_dynamics(sg, [config])


def test_run_reports_condition_warnings():
    game = z.matching_pennies()
    rec = z.run_matrix_dynamics(game, [_config(tau=2.0, K=5)])[0]
    assert any("tau" in w for w in rec.warnings)
    assert rec.config_echo["tau"] == 2.0


def test_normalized_softmax_variant_runs():
    game = z.matching_pennies()
    plain = _config(seed=2, K=60)
    normed = _config(seed=2, K=60, normalize_q_in_softmax=True)
    a = z.run_matrix_dynamics(game, [plain])[0]
    b = z.run_matrix_dynamics(game, [normed])[0]
    assert a.config_echo != b.config_echo
    # both stay within the universal estimate bound
    assert (a.metric("q_inf") <= 1.0).all() and (b.metric("q_inf") <= 1.0).all()


def test_smoothed_policy_sums_left_to_right():
    # 1 + 1e-16 + 1e-16 is 1.0 when added in order, but a compensated sum
    # (the builtin sum() of floats from Python 3.12 on) rounds it to 1 + 2^-52,
    # which would change the policy bytes and the golden digests
    q = [0.0, -36.8, -36.8]
    assert math.fsum(math.exp(x) for x in q) != 1.0
    assert smoothed_policy(q, 1.0, 0.0, False)[0] == 1.0
    # the squared norm behind normalize=True: in order it is exactly 1.0,
    # so normalizing leaves q untouched
    q = [1.0] + [1e-8] * 4
    assert math.fsum(x * x for x in q) != 1.0
    assert smoothed_policy(q, 0.5, 0.0, True) == smoothed_policy(q, 0.5, 0.0, False)


def test_batched_kernel_sums_left_to_right():
    # the same traps on a column of 8 entries, where np.sum switches to
    # pairwise summation: 1 + 7 * 1.04e-16 is 1.0 added in order, but not pairwise
    q = np.array([[0.0] + [-36.8] * 7]).T
    assert np.exp(q).sum() != 1.0
    assert _row_sum(np.exp(q))[0] == 1.0
    assert _targets(q, np.array([1.0]), np.array([0.0]), False)[0, 0] == 1.0
    # the squared norm is exactly 1.0 in order, so normalizing leaves q as is
    q = np.array([[1.0] + [1e-8] * 7]).T
    assert (q * q).sum() != 1.0
    tau, eps = np.array([0.5]), np.array([0.0])
    assert np.array_equal(_targets(q, tau, eps, True), _targets(q, tau, eps, False))


def test_list_and_batched_softmaxes_agree_bitwise():
    # the stochastic kernel's list softmax, the matrix kernel's batched one
    # and the public softmax oracles compute the same target; pin them to
    # each other bit for bit, including zero rows (zero norm) and targets
    # that underflow to 0
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for i in range(200):
            scale = (0.0, 1.0, 10.0, 100.0)[i % 4]
            q = (scale * rng.uniform(-1.0, 1.0, n)).tolist()
            tau = float(rng.uniform(0.01, 2.0))
            for eps in (0.0, float(rng.uniform(0.0, 1.0))):
                for normalize in (False, True):
                    want = np.array(smoothed_policy(q, tau, eps, normalize)).tobytes()
                    got = _targets(np.array([q]).T, np.array([tau]), np.array([eps]),
                                   normalize)[:, 0]
                    assert got.tobytes() == want, (q, tau, eps, normalize)
                    if normalize:
                        continue
                    got = z.softmax(q, tau, eps)
                    assert got.tobytes() == want, (q, tau, eps)
                    if eps == 0.0:
                        assert z.softmax(q, tau).tobytes() == want, (q, tau)


def test_batched_softmax_columns_are_the_list_softmax():
    # the kernel's softmax runs on (n, B) stacks, one trajectory per column
    # with its own tau and eps; pin every column of wide stacks to the list
    # softmax bit for bit, with zero columns (zero norm), columns whose
    # targets underflow to 0, eps = 0 columns and normalize on and off
    rng = np.random.default_rng(29)
    B = 12
    for n in range(2, 9):
        for trial in range(20):
            scale = np.array([0.0, 1.0, 10.0, 100.0, 1000.0, 0.0] * 2)
            q = scale * rng.uniform(-1.0, 1.0, (n, B))
            tau = rng.uniform(0.01, 2.0, B)
            tau[4] = 0.01  # a spread of 1000 at tau 0.01 underflows exp
            eps = np.where(np.arange(B) % 3 == 0, 0.0, rng.uniform(0.0, 1.0, B))
            for normalize in (False, True):
                got = _targets(q, tau, eps, normalize)
                assert got.shape == (n, B)
                for b in range(B):
                    want = smoothed_policy(q[:, b].tolist(), float(tau[b]), float(eps[b]),
                                           normalize)
                    assert got[:, b].tobytes() == np.array(want).tobytes(), (n, trial, b)
            assert (_targets(q, tau, 0.0, False)[:, 4] == 0.0).any()


def test_exp_is_the_c_library_exp():
    # the batched softmax and the matrix gaps take exp through numpy's complex
    # exp; pin it to math.exp bit for bit over every argument sign they pass
    # (<= 0), with subnormal results, underflow to 0 and the infinities
    edges = [0.0, -0.0, -5e-324, -1e-300, -1e-17, -708.4, -745.13, -745.14, -746.0,
             -1e5, -np.finfo(np.float64).max, -math.inf]
    rng = np.random.default_rng(23)
    a = np.concatenate([edges, rng.uniform(-750.0, 0.0, 60_000),
                        -(10.0 ** rng.uniform(-320.0, 308.0, 60_000))]).reshape(-1, 12)
    want = np.fromiter(map(math.exp, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)
    got = _exp(a)
    assert got.dtype == np.float64 and got.shape == a.shape
    assert got.tobytes() == want.tobytes()


def test_entropy_is_the_batched_entropy_row():
    # z.entropy, each row of the batched entropy and a left-to-right loop
    # over math.log agree bit for bit, zero entries included
    rng = np.random.default_rng(19)
    p = rng.dirichlet(np.ones(9), 300) * (rng.random((300, 9)) < 0.8)
    p = p / p.sum(axis=1, keepdims=True)
    batched = _entropy(p.T)
    for row, h in zip(p, batched):
        want = 0.0
        for x in row.tolist():
            if x > 0.0:
                want += -(x * math.log(x))
        assert z.entropy(row) == h == want


@LAYOUTS
def test_records_do_not_depend_on_the_batch(shape, loops):
    game = _uniform_game(shape, 5)
    dim = z.StepsizeSchedule(kind="diminishing", alpha=4.0, beta=1.0, h=8.0)
    configs = []
    # K=150 spans three uniform chunks of 64 and is not a multiple of 64
    for seed, (K, schedule, variant, normalize) in enumerate([
            (150, None, "plain", False), (150, None, "explore", True),
            (150, dim, "explore", False), (40, dim, "plain", True),
            (40, None, "explore", False), (40, None, "plain", False),
            (150, None, "plain", False), (40, dim, "explore", True)]):
        kw = dict(seed=seed, K=K, record_stride=7, tau=0.3 + 0.1 * seed, variant=variant,
                  eps_bar=0.05 * (seed + 1) if variant == "explore" else 0.0,
                  normalize_q_in_softmax=normalize)
        if schedule is not None:
            kw["schedule"] = schedule
        configs.append(_config(**kw))
    configs.append(configs[2])  # a duplicate runs twice, with equal records
    random.Random(11).shuffle(configs)
    for _ in loops:
        batched = z.run_matrix_dynamics(game, configs)
        assert len(batched) == len(configs)
        for config, rec in zip(configs, batched):
            assert rec == z.run_matrix_dynamics(game, [config])[0]
            assert rec.config_echo == config.to_dict()
            assert rec.warnings == matrix_condition_warnings(config, game.a_max)


@LAYOUTS
def test_mixed_k_and_stride_run_as_one_batch(monkeypatch, shape, loops):
    # configs that differ only in K and record_stride, among them the
    # truncations K=1..12 of one config, share one batch that drops each
    # trajectory at its K, mid-chunk of the list loop's 64 uniforms or at a
    # chunk's start (K=64); each
    # record is byte for byte its one-config run on the same loop
    game = _uniform_game(shape, 11)
    base = _config(seed=4, tau=0.6, variant="explore", eps_bar=0.1)
    configs = [replace(base, K=k, record_stride=k) for k in range(1, 13)]
    configs += [replace(base, seed=s, K=K, record_stride=stride)
                for s, (K, stride) in enumerate([(70, 1), (70, 9), (65, 64), (130, 7),
                                                 (9, 4), (130, 130), (64, 5)])]
    random.Random(5).shuffle(configs)
    run = z.matrix_dyn._run
    for _ in loops:
        batches, binds, calls = [], [], []
        loop = z._core._visbr_loop()

        def bind(*arrays):
            # q1, q2, v1, v2, pi, tg, states; each trajectory's K, set
            # in place when its round starts
            state, ends = arrays[:7], arrays[12]
            binds.append(ends)
            steps = loop(*arrays)

            def counted(k0, k1):
                calls.append((k0, k1))
                before, gone = [x.copy() for x in state], ends <= k0
                steps(k0, k1)
                # a trajectory past its K is left as it stands
                assert all(np.array_equal(x[gone], y[gone]) for x, y in zip(state, before))
            return counted

        monkeypatch.setattr("zsdyn.matrix_dyn._run",
                            lambda cs, *args, **kw: batches.append(len(cs)) or run(cs, *args, **kw))
        monkeypatch.setattr("zsdyn._core._visbr_loop", lambda: bind)
        mixed = z.run_matrix_dynamics(game, configs)
        assert batches == [len(configs)]
        assert [ends.tolist() for ends in binds] == [[c.K for c in configs]]
        # the calls run steps 0..129 once each and stop exactly at the steps
        # at which some trajectory records; with the rows left alone past
        # their K, trajectory b is stepped at k = 0..K_b - 1, its own K times
        due = sorted({k for c in configs
                      for k in (*range(c.record_stride, c.K + 1, c.record_stride), c.K)})
        assert calls == list(zip([0, *due], due)) and due[-1] == 130
        monkeypatch.setattr("zsdyn.matrix_dyn._run", run)
        monkeypatch.setattr("zsdyn._core._visbr_loop", lambda: loop)
        for config, rec in zip(configs, mixed):
            [alone] = z.run_matrix_dynamics(game, [config])
            assert rec.index.tobytes() == alone.index.tobytes()
            assert rec.index[-1, 1] == config.K
            assert len(rec.index) == -(-config.K // config.record_stride)
            for name in z.MATRIX_METRICS:
                assert rec.series[name].tobytes() == alone.series[name].tobytes(), name
            for got, want in zip(_iterates(rec), _iterates(alone)):
                assert got.tobytes() == want.tobytes()
            assert rec == alone


@LAYOUTS
def test_records_do_not_depend_on_the_score_chunk(monkeypatch, shape):
    # 23 recorded rows of 3 trajectories, scored one row per call (a chunk
    # smaller than the batch), 2 rows per call with a short last call, or all
    # at once, give the same bytes
    game = _uniform_game(shape, 7)
    configs = [_config(seed=s, K=45, record_stride=2, tau=0.3 + 0.1 * s,
                       variant="explore", eps_bar=0.1) for s in range(3)]
    monkeypatch.setattr("zsdyn._core._SCORE_CHUNK", 10 ** 6)
    whole = z.run_matrix_dynamics(game, configs)
    assert len(whole[0].index) == 23
    for chunk in (1, 7, 69):
        monkeypatch.setattr("zsdyn._core._SCORE_CHUNK", chunk)
        for rec, ref in zip(z.run_matrix_dynamics(game, configs), whole):
            for name in ("ng", "ngtau", "min_pi", "q_inf"):
                assert rec.metric(name).tobytes() == ref.metric(name).tobytes()
            assert rec == ref


def test_tau_at_dbl_min_runs_without_warnings(loops):
    # the least tau a config accepts keeps (x - m) / tau finite in the numpy
    # softmax and gap scorer, and every path gives the same bytes
    game, tau = z.load_game("builtin:rps"), sys.float_info.min
    configs = [_config(tau=tau, K=50, record_stride=5, variant=variant, eps_bar=eps,
                       normalize_q_in_softmax=normalize)
               for (variant, eps), normalize in product((("plain", 0.0), ("explore", 0.1)),
                                                        (False, True))]
    joint = z.JointPolicy(np.array([0.5, 0.5, 0.0]), np.full(3, 1.0 / 3.0))
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in loops:
            records = z.run_matrix_dynamics(game, configs)
            runs.append([r.series[m].tobytes() for r in records for m in z.MATRIX_METRICS]
                        + [z.softmax([0.1, 0.3, -0.2], tau).tobytes(),
                           z.regularized_nash_gap(game, joint, tau)])
    assert all(run == runs[0] for run in runs)
