"""Stochastic-game dynamics: the kernel against a reference loop, recording,
one-sided mode."""

import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zsdyn as z
from zsdyn._core import pick_action, smoothed_policy
from zsdyn.visbr import _weighted_rows


def _sched(alpha=0.5, beta=0.01):
    return z.StepsizeSchedule(kind="constant", alpha=alpha, beta=beta)


def _config(**kw):
    base = dict(tau=0.5, schedule=_sched(), T=2, K=10, seed=7)
    base.update(kw)
    return z.VisbrConfig(**base)


def _mp_sg(gamma=0.5):
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def _random_sg(rng, n_states=3, n1=2, n2=2, gamma=0.8):
    P = rng.random((n_states, n1, n2, n_states)) + 0.1
    P /= P.sum(axis=3, keepdims=True)
    R1 = rng.uniform(-1.0, 1.0, (n_states, n1, n2))
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def _random_rows(rng, n_states, n):
    rows = rng.random((n_states, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def _policy_weighted(pi: list, q: list) -> list:
    # v(s) = sum_a pi(a|s) q(s,a), added in action order
    out = []
    for pi_row, q_row in zip(pi, q):
        acc = 0.0
        for p, x in zip(pi_row, q_row):
            acc += p * x
        out.append(acc)
    return out


def _reference_rows(sg, config, frozen_pi2=None):
    # The dynamics of the visbr docstring on plain lists, a step at a time.
    # Returns the iterates (q1, q2, pi1, pi2, v1, v2) as arrays at every row
    # of record_stride 1, and the states the trajectory acted in. It shares
    # only _core's list primitives and the seed helper with the kernel, so it
    # checks the kernel's policy arrays and target cache from outside. The
    # environment's uniforms are one draw of 1 + T*K: one for S0, then one
    # per inner step. A frozen player 2 starts at, samples from and keeps
    # its table.
    S, T, K, gamma = sg.n_states, config.T, config.K, sg.gamma
    tau, eps = config.tau, config.eps_bar
    g1, g2, g_env = (np.random.default_rng(c) for c in z.visbr_seed_sequences(config.seed))
    u1, u2 = g1.random(T * K).tolist(), g2.random(T * K).tolist()
    ue = g_env.random(1 + T * K).tolist()
    P, R1, R2 = sg.transition.tolist(), sg.R1.tolist(), sg.R2.tolist()
    ns = (sg.n_actions_1, sg.n_actions_2)
    q = [[[0.0] * n for _ in range(S)] for n in ns]
    pi = [[[1.0 / n] * n for _ in range(S)] for n in ns]
    v = [[0.0] * S, [0.0] * S]
    learners = (0, 1)
    if frozen_pi2 is not None:
        pi[1], learners = frozen_pi2.tolist(), (0,)

    def iterates():
        return tuple(np.array(x) for x in (*q, *pi, *v))

    s = pick_action(sg.initial_dist.tolist(), ue[0])
    rows, visited = [iterates()], set()
    for t in range(T):
        for k in range(K):
            j = t * K + k
            alpha, beta = config.schedule.rates(k)
            for i in learners:
                targets = [smoothed_policy(q_row, tau, eps, False) for q_row in q[i]]
                pi[i] = [[p + beta * (g - p) for p, g in zip(pi_row, target)]
                         for pi_row, target in zip(pi[i], targets)]
            visited.add(s)
            a1 = pick_action(pi[0][s], u1[j])
            a2 = pick_action(pi[1][s], u2[j])
            s_next = pick_action(P[s][a1][a2], ue[1 + j])
            q[0][s][a1] += alpha * (R1[s][a1][a2] + gamma * v[0][s_next] - q[0][s][a1])
            if 1 in learners:
                q[1][s][a2] += alpha * (R2[s][a2][a1] + gamma * v[1][s_next] - q[1][s][a2])
            s = s_next
            rows.append(iterates())
        for i in learners:
            v[i] = _policy_weighted(pi[i], q[i])
    rows.append(iterates())
    return rows, visited


def test_init_state():
    # a run starts at S0 drawn by the environment stream's first uniform,
    # from q = 0, uniform policies and v = 0: one step keeps every policy
    # uniform, the target of q = 0, and moves q at S0 only
    sg = _random_sg(np.random.default_rng(0))
    config = _config(T=1, K=1)
    [rec] = z.run_visbr(sg, [config])
    assert rec.index[0].tolist() == [0, 0]
    assert [rec.series[name][0] for name in ("q_inf", "min_pi", "lsum", "v_inf")] == \
        [0.0, 0.5, 0.0, 0.0]
    _, _, env = z.visbr_seed_sequences(config.seed)
    s0 = pick_action(sg.initial_dist.tolist(), np.random.default_rng(env).random())
    assert 0 <= s0 < sg.n_states
    for q, pi in zip(rec.final_q, (rec.final_policy.pi1, rec.final_policy.pi2)):
        assert np.array_equal(pi, np.full((3, 2), 0.5))
        assert np.flatnonzero(q.any(axis=1)).tolist() == [s0]


def test_init_single_state_start():
    # play starts in the one state, so the first step moves q there
    [rec] = z.run_visbr(_mp_sg(), [_config(T=1, K=1)])
    assert rec.final_q[0][0].any() and rec.final_q[1][0].any()


def test_init_pointmass_start_state():
    # two 1x1 states with payoff 0.5 in both: the first step moves q at the
    # start state only, which initial_dist puts at state 1
    P = np.ones((2, 1, 1, 2)) * 0.5
    sg = z.validate_stochastic_game(P, np.full((2, 1, 1), 0.5), gamma=0.5,
                                    initial_dist=[0.0, 1.0])
    for seed in range(5):
        [rec] = z.run_visbr(sg, [_config(seed=seed, T=1, K=1)])
        assert np.array_equal(rec.final_q[0], [[0.0], [0.25]])
        assert np.array_equal(rec.final_q[1], [[0.0], [-0.25]])


def test_values_stay_frozen_within_a_round():
    # every row of a round shares its v: the v metrics stay put over the
    # rows (t, 1..K), and in round 0 equal those of v = 0 at (0, 0)
    sg = _random_sg(np.random.default_rng(5))
    config = _config(T=2, K=4, record_stride=1)
    [rec] = z.run_visbr(sg, [config])
    t, k = rec.index.T
    for name in ("lsum", "v_inf", "v_err"):
        col = rec.metric(name)
        for r in range(config.T):
            in_round = col[(t == r) & (k > 0)]
            assert len(in_round) == config.K and (in_round == in_round[0]).all()
        assert (col[:config.K + 1] == col[0]).all()
    assert rec.metric("v_inf")[0] == 0.0


def test_round_end_value_is_policy_weighted_q():
    rng = np.random.default_rng(9)
    sg = _random_sg(rng, n_states=2, n1=3, n2=2)
    [rec] = z.run_visbr(sg, [_config(T=1, K=5)])
    for pi, q, v in zip((rec.final_policy.pi1, rec.final_policy.pi2), rec.final_q,
                        rec.final_v):
        assert np.array_equal(v, np.array(_policy_weighted(pi.tolist(), q.tolist())))
        assert np.allclose(v, (pi * q).sum(axis=1), atol=1e-12)


def test_weighted_rows_one_hot_policy_reads_q():
    # the round-end update with a one-hot policy reads q at the chosen action
    assert _weighted_rows([[1.0, 0.0], [0.0, 1.0]], [[0.3, -0.7], [0.1, 0.9]]) == [0.3, 0.9]
    assert _weighted_rows([[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]


def test_single_state_round_matches_matrix_dynamics_bitwise():
    # with one state and v = 0 the first inner round is exactly the
    # matrix-game update, and the player seed children coincide; the round's
    # end leaves q and pi as they are, so run_visbr at T=1, K=k ends where
    # run_matrix_dynamics at K=k does
    sg = _mp_sg(0.5)
    mg = z.matching_pennies()
    ks = range(1, 51)
    vrecs = z.run_visbr(sg, [_config(T=1, K=k, seed=31, tau=0.8) for k in ks])
    mrecs = z.run_matrix_dynamics(mg, [z.MatrixRunConfig(tau=0.8, schedule=_sched(), K=k,
                                                         seed=31) for k in ks])
    for vr, mr in zip(vrecs, mrecs):
        for i in range(2):
            assert np.array_equal(vr.final_q[i][0], mr.final_q[i])
        assert np.array_equal(vr.final_policy.pi1[0], mr.final_policy.pi1)
        assert np.array_equal(vr.final_policy.pi2[0], mr.final_policy.pi2)


def _recorded_row(sg, iterates, v_star, frozen):
    # every VISBR metric of one row's iterates; with a frozen opponent
    # player 2's v is 0 and only ng looks at player 2
    q1, q2, pi1, pi2, v1, v2 = iterates
    learners = ((q1, pi1, v1), (q2, pi2, v2)) if frozen is None else ((q1, pi1, v1),)
    joint = z.validate_joint_policy(pi1, pi2, sg)
    errs = [np.abs(v1 - v_star).max()]
    if frozen is None:
        errs.append(np.abs(v2 + v_star).max())
    return {"ng": z.nash_gap_stochastic(sg, joint, tol=1e-6),
            "min_pi": min(float(pi.min()) for _, pi, _ in learners),
            "q_inf": max(float(np.abs(q).max()) for q, _, _ in learners),
            "lsum": float(np.abs(v1 + v2).max()),
            "v_inf": max(float(np.abs(v).max()) for _, _, v in learners),
            "v_err": float(max(errs))}


def _assert_run_equals_stepping(sg, config, frozen_pi2=None):
    # every row run_visbr records at stride 1, and its final iterates, equal
    # those of _reference_rows bitwise; returns the states the trajectory
    # acted in
    [rec] = z.run_visbr(sg, [config], frozen_pi2=frozen_pi2)
    rows, visited = _reference_rows(sg, config, frozen_pi2)
    v_star = z.minimax_fixed_point(sg, 1, tol=1e-6)
    inner = [[t, k] for t in range(config.T) for k in range(1, config.K + 1)]
    assert rec.index.tolist() == [[0, 0]] + inner + [[config.T, 0]]
    for row, ((t, k), iterates) in enumerate(zip(rec.index.tolist(), rows, strict=True)):
        want = _recorded_row(sg, iterates, v_star, frozen_pi2)
        assert want.keys() == rec.series.keys()
        for name, value in want.items():
            assert rec.series[name][row] == value, (name, t, k)
    got = (*rec.final_q, rec.final_policy.pi1, rec.final_policy.pi2, *rec.final_v)
    for g, w in zip(got, rows[-1], strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return visited


def test_run_equals_stepping(loops):
    sg = _random_sg(np.random.default_rng(21), n_states=2)
    for _ in loops:
        _assert_run_equals_stepping(sg, _config(T=3, K=7, seed=77, record_stride=1))


def test_run_equals_stepping_with_cached_targets(loops):
    # run_visbr keeps each state's softmax target cached across steps and
    # rounds, the reference recomputes every target each step; with S=6
    # and unequal action counts the trajectory acts in several states, so
    # a stale cached target would show
    sg = _random_sg(np.random.default_rng(21), n_states=6, n1=3, n2=2)
    config = _config(T=3, K=7, seed=77, record_stride=1)
    for _ in loops:
        assert len(_assert_run_equals_stepping(sg, config)) >= 4


def test_run_equals_stepping_on_a_larger_game(loops):
    # 20 states of 3x3: the all-state policy step moves many rows that the
    # trajectory does not visit between two visits
    sg = _random_sg(np.random.default_rng(23), n_states=20, n1=3, n2=3, gamma=0.9)
    config = _config(T=3, K=40, seed=5, tau=0.2, variant="explore", eps_bar=0.1,
                     record_stride=1, schedule=_sched(beta=0.05))
    for _ in loops:
        assert len(_assert_run_equals_stepping(sg, config)) >= 10


def test_run_equals_stepping_against_a_frozen_opponent(loops):
    rng = np.random.default_rng(29)
    sg = _random_sg(rng, n_states=5, n1=3, n2=2)
    config = _config(T=3, K=12, seed=41, record_stride=1, schedule=_sched(beta=0.05))
    frozen = _random_rows(rng, 5, 2)
    for _ in loops:
        assert len(_assert_run_equals_stepping(sg, config, frozen)) >= 3


def test_environment_stream_consumption():
    # one uniform for S0, then exactly one per inner step: the reference
    # takes the environment's uniforms as one draw of 1 + T*K
    sg = _random_sg(np.random.default_rng(25), n_states=3)
    _assert_run_equals_stepping(sg, _config(T=2, K=6, seed=13, record_stride=1))


@pytest.mark.parametrize("frozen", [False, True])
def test_truncated_runs_are_prefixes(frozen, loops):
    # a run with T=t records the first rows of a longer run, then its own
    # (t, 0) row after the round-end update, which leaves q and pi as they
    # are: its ng, min_pi and q_inf are those of (t - 1, K), and its v
    # metrics those of the rows of round t
    rng = np.random.default_rng(31)
    sg = _random_sg(rng, n_states=6, n1=3, n2=2)
    kw = {"frozen_pi2": _random_rows(rng, 6, 2)} if frozen else {}
    config = _config(T=4, K=7, seed=77, record_stride=3)
    for _ in loops:
        recs = z.run_visbr(sg, [replace(config, T=t) for t in range(1, config.T + 1)], **kw)
        long = recs[-1]
        rows = long.index.tolist()
        for t, rec in enumerate(recs, 1):
            n = len(rec.index) - 1
            assert rec.index.tolist() == rows[:n] + [[t, 0]]
            before = rows.index([t - 1, config.K])
            after = rows.index([t, 3]) if t < config.T else before + 1
            for name in long.series:
                assert rec.metric(name)[:n].tobytes() == long.metric(name)[:n].tobytes(), name
                source = before if name in ("ng", "min_pi", "q_inf") else after
                assert rec.metric(name)[n] == long.metric(name)[source], (name, t)


def test_record_row_structure():
    sg = _mp_sg()
    long, short = z.run_visbr(sg, [_config(T=3, K=50, record_stride=25),
                                   _config(T=2, K=5, record_stride=9)])
    assert long.index.tolist() == [[0, 0], [0, 25], [0, 50], [1, 25], [1, 50],
                                   [2, 25], [2, 50], [3, 0]]
    assert short.index.tolist() == [[0, 0], [0, 5], [1, 5], [2, 0]]
    for rec in (long, short):
        assert tuple(rec.series) == z.VISBR_METRICS


def test_initial_row_metrics():
    sg = _mp_sg()
    [rec] = z.run_visbr(sg, [_config(T=1, K=5)])
    assert rec.series["lsum"][0] == 0.0
    assert rec.series["v_inf"][0] == 0.0
    assert rec.series["q_inf"][0] == 0.0
    assert rec.series["min_pi"][0] == 0.5


def test_identical_config_identical_record():
    sg = _random_sg(np.random.default_rng(33), n_states=2)
    config = _config(T=2, K=20, seed=99, record_stride=5)
    first, second = z.run_visbr(sg, [config, config])
    assert first == second == z.run_visbr(sg, [config])[0]


def test_iterate_bounds_on_random_runs():
    rng = np.random.default_rng(35)
    for trial in range(4):
        gamma = float(rng.uniform(0.4, 0.9))
        sg = _random_sg(rng, n_states=int(rng.integers(2, 4)), gamma=gamma)
        cap = 1.0 / (1.0 - gamma)
        if trial % 2 == 0:
            config = _config(T=3, K=40, seed=trial, tau=float(rng.uniform(0.2, 1.0)))
        else:
            eps = float(rng.uniform(0.05, 0.3))
            config = _config(T=3, K=40, seed=trial, tau=float(rng.uniform(0.2, 1.0)),
                             variant="explore", eps_bar=eps)
        [rec] = z.run_visbr(sg, [config])
        assert (rec.metric("q_inf") <= cap).all()
        assert (rec.metric("v_inf") <= cap).all()
        if config.variant == "explore":
            bound = z.exploration_bound("stochastic", "explore",
                                        z.SoftmaxParams(tau=config.tau, eps_bar=config.eps_bar),
                                        sg.a_max)
            assert (rec.metric("min_pi") >= bound).all()
        assert (rec.metric("ng") >= 0.0).all()


def test_v_err_is_recorded_on_every_game():
    # v* for matching pennies is 0, so v_err equals v_inf throughout
    [rec] = z.run_visbr(_mp_sg(), [_config(T=1, K=5)])
    assert np.allclose(rec.metric("v_err"), rec.metric("v_inf"), atol=1e-6)
    # 65 states of 8x8 make 4,160 state-action cells, a game this large
    # records v_err too
    sg = _random_sg(np.random.default_rng(67), n_states=65, n1=8, n2=8, gamma=0.9)
    [rec] = z.run_visbr(sg, [_config(T=2, K=10)])
    assert tuple(rec.series) == z.VISBR_METRICS
    v_star = z.minimax_fixed_point(sg, 1, tol=1e-6)
    v1, v2 = rec.final_v
    assert rec.metric("v_err")[-1] == max(np.abs(v1 - v_star).max(), np.abs(v2 + v_star).max())


def test_v_err_measures_player_one_fixed_point_and_its_negation():
    sg = _random_sg(np.random.default_rng(61))
    [rec] = z.run_visbr(sg, [_config(T=3, K=20, seed=4)])
    v_star = z.minimax_fixed_point(sg, 1, tol=1e-6)
    v1, v2 = rec.final_v
    # the final row scores the final values against (v1*, -v1*), bit for bit
    assert rec.metric("v_err")[-1] == max(np.abs(v1 - v_star).max(),
                                          np.abs(v2 - (-v_star)).max())


def test_frozen_opponent_mode():
    rng = np.random.default_rng(41)
    sg = _random_sg(rng, n_states=2, gamma=0.7)
    frozen = rng.random((2, 2)) + 0.2
    frozen /= frozen.sum(axis=1, keepdims=True)
    config = _config(T=2, K=30, seed=8)
    [rec] = z.run_visbr(sg, [config], frozen_pi2=frozen)
    # player 2 never learns in this mode, and its final policy is the table
    assert np.array_equal(rec.final_q[1], np.zeros((2, 2)))
    assert np.array_equal(rec.final_policy.pi2, frozen)
    assert np.array_equal(rec.final_v[1], np.zeros(2))
    # player 1 does
    assert float(np.abs(rec.final_q[0]).max()) > 0.0
    # ng scores the joint policy that generates play, (pi1, frozen), which
    # is the record's final policy
    played = z.validate_joint_policy(rec.final_policy.pi1, frozen, sg)
    assert rec.metric("ng")[-1] == z.nash_gap_stochastic(sg, played, tol=1e-6)
    assert rec.metric("ng")[-1] == z.nash_gap_stochastic(sg, rec.final_policy, tol=1e-6)
    with pytest.raises(z.DimensionMismatch):
        z.run_visbr(sg, [config], frozen_pi2=np.full((3, 2), 0.5))
    for row in ([0.5, 0.5 + 1e-9], [np.nan, 0.5]):
        with pytest.raises(z.NotADistribution):
            z.run_visbr(sg, [config], frozen_pi2=np.array([[0.5, 0.5], row]))


@pytest.mark.parametrize("frozen", [False, True])
def test_ng_does_not_depend_on_the_score_chunk(monkeypatch, frozen):
    # 22 recorded rows, scored and reduced in chunks of 1, 3 and 5 (with a
    # short last chunk) and 22 rows, give the bytes of one chunk per run;
    # the second config records 9 rows, a multiple of the chunk of 3
    rng = np.random.default_rng(43)
    sg = _random_sg(rng, n_states=3, n1=2, n2=3)
    kw = {"frozen_pi2": _random_rows(rng, 3, 3)} if frozen else {}
    configs = [_config(T=2, K=10, record_stride=1), _config(T=1, K=21, record_stride=3)]
    monkeypatch.setattr("zsdyn.visbr._SCORE_CHUNK", 10 ** 6)
    whole = z.run_visbr(sg, configs, **kw)
    assert [len(rec.index) for rec in whole] == [22, 9]
    # the last row scores the policy the record ends with, frozen or not
    for rec in whole:
        assert rec.metric("ng")[-1] == z.nash_gap_stochastic(sg, rec.final_policy, tol=1e-6)
    for chunk in (1, 3, 5, 22):
        monkeypatch.setattr("zsdyn.visbr._SCORE_CHUNK", chunk)
        recs = z.run_visbr(sg, configs, **kw)
        for rec, want in zip(recs, whole):
            for name in want.series:
                assert rec.metric(name).tobytes() == want.metric(name).tobytes(), name
            assert rec == want


@pytest.mark.parametrize("frozen", [False, True])
def test_a_sequence_call_equals_one_config_calls(frozen):
    # configs that differ in every field a sweep may vary give, in one
    # call, the records of one call each, field for field
    rng = np.random.default_rng(47)
    sg = _random_sg(rng, n_states=4, n1=3, n2=2)
    kw = {"frozen_pi2": _random_rows(rng, 4, 2)} if frozen else {}
    configs = [_config(T=2, K=10, seed=3, record_stride=1),
               _config(T=3, K=7, seed=11, tau=0.2, record_stride=2),
               _config(T=1, K=15, seed=3, tau=0.8, variant="explore", eps_bar=0.3,
                       record_stride=15),
               _config(T=2, K=10, seed=3, record_stride=1)]
    recs = z.run_visbr(sg, configs, **kw)
    assert len(recs) == len(configs) and recs[0] == recs[3]
    for rec, config in zip(recs, configs):
        [alone] = z.run_visbr(sg, [config], **kw)
        assert rec.config_echo == alone.config_echo == config.to_dict()
        assert rec.index.tobytes() == alone.index.tobytes()
        assert list(rec.series) == list(alone.series)
        for name in alone.series:
            assert rec.metric(name).tobytes() == alone.metric(name).tobytes(), name
        for got, want in ((rec.final_policy.pi1, alone.final_policy.pi1),
                          (rec.final_policy.pi2, alone.final_policy.pi2),
                          *zip(rec.final_q, alone.final_q), *zip(rec.final_v, alone.final_v)):
            assert got.tobytes() == want.tobytes()
        assert rec.warnings == alone.warnings
    assert z.run_visbr(sg, [], **kw) == []


def test_one_fixed_point_and_ergodicity_check_per_call(monkeypatch):
    sg = _random_sg(np.random.default_rng(53))
    calls = {"minimax_fixed_point": 0, "stationary_distribution": 0}
    for name in calls:
        real = getattr(z.visbr, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(z.visbr, name, counting)
    recs = z.run_visbr(sg, [_config(seed=j) for j in range(5)])
    assert len(recs) == 5 and all("v_err" in rec.series for rec in recs)
    assert calls == {"minimax_fixed_point": 1, "stationary_distribution": 1}
    z.run_visbr(sg, [_config(seed=9)], frozen_pi2=np.full((3, 2), 0.5))
    assert calls == {"minimax_fixed_point": 2, "stationary_distribution": 2}


def test_one_seeding_pass_per_group(monkeypatch):
    # a group's 3B streams come from one batched hash, in the group's order
    sg = _random_sg(np.random.default_rng(54))
    calls = []
    real = z._core._stream_words

    def counting(seeds, n):
        calls.append((list(seeds), n))
        return real(seeds, n)
    monkeypatch.setattr(z._core, "_stream_words", counting)
    configs = [_config(seed=11), _config(seed=12, K=5), _config(seed=13),
               _config(seed=14, T=1), _config(seed=15, K=5)]
    assert len(z.run_visbr(sg, configs)) == 5
    assert calls == [([11, 13], 3), ([12, 15], 3), ([14], 3)]


def test_run_reports_warnings():
    sg = _mp_sg(gamma=0.5)
    [rec] = z.run_visbr(sg, [_config(tau=5.0, T=1, K=3)])
    assert any("1/(1-gamma)" in w for w in rec.warnings)

    # a reducible chain triggers the ergodicity note
    P = np.zeros((2, 1, 1, 2))
    P[0, 0, 0, 0] = 1.0
    P[1, 0, 0, 1] = 1.0
    stuck = z.validate_stochastic_game(P, np.zeros((2, 1, 1)), gamma=0.5)
    [rec] = z.run_visbr(stuck, [_config(T=1, K=3)])
    assert any("ergodicity" in w for w in rec.warnings)


def test_rejects_non_zero_sum_game():
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    R2 = np.zeros((1, 2, 2))
    bad = z.validate_stochastic_game(P, R1, R2, gamma=0.5, require_zero_sum=False)
    with pytest.raises(z.NotZeroSum):
        z.run_visbr(bad, [_config()])


def _assert_group_equals_stepping(sg, configs, frozen_pi2=None):
    # one call steps configs that share (schedule, K, T) as one group; each
    # trajectory's rows at stride 1 and final iterates equal those of its
    # own _reference_rows bitwise
    recs = z.run_visbr(sg, configs, frozen_pi2=frozen_pi2)
    v_star = z.minimax_fixed_point(sg, 1, tol=1e-6)
    for rec, config in zip(recs, configs, strict=True):
        rows, _ = _reference_rows(sg, config, frozen_pi2)
        assert len(rec.index) == len(rows)
        for row, ((t, k), iterates) in enumerate(zip(rec.index.tolist(), rows)):
            for name, value in _recorded_row(sg, iterates, v_star, frozen_pi2).items():
                assert rec.series[name][row] == value, (config.seed, name, t, k)
        got = (*rec.final_q, rec.final_policy.pi1, rec.final_policy.pi2, *rec.final_v)
        for g, w in zip(got, rows[-1], strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("frozen", [False, True])
def test_a_group_equals_stepping(frozen, loops):
    # three trajectories step in lockstep on one policy stack; their seeds,
    # tau and eps_bar differ, so a row read from another trajectory's block
    # or a target built with another's tau would show
    rng = np.random.default_rng(71)
    sg = _random_sg(rng, n_states=5, n1=3, n2=2)
    frozen_pi2 = _random_rows(rng, 5, 2) if frozen else None
    configs = [_config(T=3, K=9, seed=61, record_stride=1, schedule=_sched(beta=0.05)),
               _config(T=3, K=9, seed=62, tau=0.2, record_stride=1, schedule=_sched(beta=0.05)),
               _config(T=3, K=9, seed=63, tau=0.8, variant="explore", eps_bar=0.2,
                       record_stride=1, schedule=_sched(beta=0.05))]
    for _ in loops:
        _assert_group_equals_stepping(sg, configs, frozen_pi2)


@pytest.mark.parametrize("frozen", [False, True])
def test_a_mixed_call_equals_one_config_calls(frozen, loops):
    # groups of two and three configs that differ in schedule, K or T, each
    # member with its own tau, eps_bar and record_stride, plus a config
    # alone in its group
    rng = np.random.default_rng(73)
    sg = _random_sg(rng, n_states=4, n1=2, n2=3)
    kw = {"frozen_pi2": _random_rows(rng, 4, 3)} if frozen else {}
    dim = z.StepsizeSchedule(kind="diminishing", alpha=1.0, beta=0.2, h=2.0)
    configs = [_config(T=2, K=10, seed=1, record_stride=3),
               _config(T=2, K=10, seed=2, tau=0.2, record_stride=1, schedule=dim),
               _config(T=2, K=10, seed=3, tau=0.3, variant="explore", eps_bar=0.1,
                       record_stride=4),
               _config(T=3, K=10, seed=4, record_stride=10),
               _config(T=2, K=10, seed=5, tau=0.7, record_stride=2, schedule=dim),
               _config(T=2, K=13, seed=6, record_stride=5),
               _config(T=2, K=10, seed=7, tau=0.4, variant="explore", eps_bar=0.3,
                       record_stride=7)]
    for _ in loops:
        recs = z.run_visbr(sg, configs, **kw)
        assert len(recs) == len(configs)
        for rec, config in zip(recs, configs):
            [alone] = z.run_visbr(sg, [config], **kw)
            assert rec == alone
            for name in alone.series:
                assert rec.metric(name).tobytes() == alone.metric(name).tobytes(), name


@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
       st.floats(0.0, 1.0, exclude_max=True))
def test_bisected_partial_sums_pick_the_action_pick_action_picks(row, u):
    # the kernels' partial sums (np.cumsum) add left to right, as
    # pick_action does; zero entries repeat a partial sum, which bisect_right
    # and the compiled loop's count must step past as pick_action's strict
    # u < acc does; u = 0.0 and u equal to a partial sum are the boundary cases
    sums = np.cumsum(row[:-1]).tolist()
    assert sums == list(accumulate(row[:-1])) == sorted(sums)
    for x in (u, 0.0, *sums):
        assert bisect_right(sums, x) == pick_action(row, x), (row, x)


def test_held_memory_does_not_grow_with_k():
    # 16 trajectories recorded only at round ends: the loop draws each
    # uniform as it steps and the recorder holds one group's rows, so a 4x longer
    # round needs no more memory. A kernel that held its rates and
    # uniforms for a whole round peaked about 40 kB higher at K=512 than
    # at K=128; tracemalloc slows the kernel about 30x, so K stays small
    sg = _random_sg(np.random.default_rng(79))

    def peak(K):
        configs = [_config(T=1, K=K, seed=j, record_stride=K) for j in range(16)]
        tracemalloc.start()
        try:
            z.run_visbr(sg, configs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # first calls fill caches that a later call reuses
    short, long = peak(128), peak(512)
    assert long <= short * 1.05 + 4096, (short, long)
