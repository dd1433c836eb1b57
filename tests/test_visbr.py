"""Stochastic-game dynamics: inner/outer loop, recording, one-sided mode."""

import numpy as np
import pytest

import zsdyn as z
from zsdyn._core import smoothed_policy
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


def test_init_state():
    sg = _random_sg(np.random.default_rng(0))
    state = z.init_visbr(sg, _config())
    assert state.t == 0 and state.k == 0
    assert 0 <= state.s < sg.n_states
    for player, n in zip(state.players, (2, 2)):
        assert np.array_equal(player.q, np.zeros((3, n)))
        assert np.array_equal(player.pi, np.full((3, n), 0.5))
        assert np.array_equal(player.v, np.zeros(3))


def test_init_single_state_start():
    state = z.init_visbr(_mp_sg(), _config())
    assert state.s == 0


def test_init_pointmass_start_state():
    P = np.ones((2, 1, 1, 2)) * 0.5
    sg = z.validate_stochastic_game(P, np.zeros((2, 1, 1)), gamma=0.5,
                                    initial_dist=[0.0, 1.0])
    for seed in range(5):
        assert z.init_visbr(sg, _config(seed=seed)).s == 1


def test_init_same_seed_identical():
    sg = _random_sg(np.random.default_rng(1))
    a = z.init_visbr(sg, _config(seed=42))
    b = z.init_visbr(sg, _config(seed=42))
    assert a.s == b.s
    assert a.rngs[0].random() == b.rngs[0].random()
    assert a.rngs[2].random() == b.rngs[2].random()


def test_inner_step_advances_and_guards():
    sg = _mp_sg()
    config = _config(T=1, K=3)
    state = z.init_visbr(sg, config)
    for want_k in (1, 2, 3):
        state = z.inner_step(state, sg, config)
        assert state.k == want_k
    with pytest.raises(z.BadConfig):
        z.inner_step(state, sg, config)


def test_outer_update_requires_completed_inner_loop():
    sg = _mp_sg()
    config = _config(T=1, K=3)
    state = z.init_visbr(sg, config)
    with pytest.raises(z.BadConfig):
        z.outer_update(state, sg, config)
    for _ in range(3):
        state = z.inner_step(state, sg, config)
    after = z.outer_update(state, sg, config)
    assert after.t == state.t + 1 and after.k == 0
    assert after.s == state.s  # trajectory continues, no reset


def test_inner_step_keeps_values_frozen():
    sg = _random_sg(np.random.default_rng(5))
    config = _config(T=1, K=4)
    state = z.init_visbr(sg, config)
    v_before = [p.v.copy() for p in state.players]
    for _ in range(4):
        state = z.inner_step(state, sg, config)
        for p, v0 in zip(state.players, v_before):
            assert np.array_equal(p.v, v0)


def test_outer_update_is_policy_weighted_q():
    rng = np.random.default_rng(9)
    sg = _random_sg(rng, n_states=2, n1=3, n2=2)
    config = _config(T=2, K=5)
    state = z.init_visbr(sg, config)
    for _ in range(5):
        state = z.inner_step(state, sg, config)
    after = z.outer_update(state, sg, config)
    for p_new, p_old in zip(after.players, state.players):
        want = _weighted_rows(p_old.pi.tolist(), p_old.q.tolist())
        assert np.array_equal(p_new.v, np.array(want))
        assert np.allclose(p_new.v, (p_old.pi * p_old.q).sum(axis=1), atol=1e-12)
        # q and pi carry through untouched
        assert np.array_equal(p_new.q, p_old.q)
        assert np.array_equal(p_new.pi, p_old.pi)


def test_outer_update_one_hot_policy_reads_q():
    sg = _random_sg(np.random.default_rng(15), n_states=2)
    config = _config(T=1, K=1)
    state = z.init_visbr(sg, config)
    q = np.array([[0.3, -0.7], [0.1, 0.9]])
    pi = np.array([[1.0, 0.0], [0.0, 1.0]])
    forced = z.VisbrState(
        players=(z.LearnerState(q=q, pi=pi, v=np.zeros(2)),
                 z.LearnerState(q=np.zeros((2, 2)), pi=np.full((2, 2), 0.5), v=np.zeros(2))),
        s=state.s, t=0, k=1, rngs=state.rngs)
    after = z.outer_update(forced, sg, config)
    assert np.array_equal(after.players[0].v, [0.3, 0.9])
    assert np.array_equal(after.players[1].v, [0.0, 0.0])


def test_single_state_round_matches_matrix_dynamics_bitwise():
    # with one state and v = 0 the first inner round is exactly the
    # matrix-game update, and the player seed children coincide
    gamma = 0.5
    sg = _mp_sg(gamma)
    mg = z.matching_pennies()
    K = 50
    vc = _config(T=1, K=K, seed=31, tau=0.8)
    mc = z.MatrixRunConfig(tau=0.8, schedule=_sched(), K=K, seed=31)

    vs = z.init_visbr(sg, vc)
    ms = z.init_matrix_state(mg, mc)
    for _ in range(K):
        vs = z.inner_step(vs, sg, vc)
        ms = z.step_matrix(ms, mg, mc)
        for i in range(2):
            assert np.array_equal(vs.players[i].q[0], ms.players[i].q)
            assert np.array_equal(vs.players[i].pi[0], ms.players[i].pi)


def _recorded_row(sg, state, v_star, frozen):
    # every VISBR metric plus v_err, computed from a stepped state; with a
    # frozen opponent player 2's v is 0 and only ng looks at player 2
    p1, p2 = state.players
    learners = state.players if frozen is None else (p1,)
    joint = z.validate_joint_policy(p1.pi, p2.pi, sg)
    errs = [np.abs(p1.v - v_star).max()]
    if frozen is None:
        errs.append(np.abs(p2.v + v_star).max())
    return {"ng": z.nash_gap_stochastic(sg, joint, tol=1e-6),
            "min_pi": min(float(p.pi.min()) for p in learners),
            "q_inf": max(float(np.abs(p.q).max()) for p in learners),
            "lsum": float(np.abs(p1.v + p2.v).max()),
            "v_inf": max(float(np.abs(p.v).max()) for p in learners),
            "v_err": float(max(errs))}


def _assert_run_equals_stepping(sg, config, frozen_q2=None):
    # every recorded row and the final iterates of run_visbr equal the step
    # API's bitwise; returns the states the trajectory acted in. With
    # frozen_q2, run_visbr plays against frozen_pi2, the targets of those q
    # rows. The step API has no frozen mode, so player 2 is pinned before
    # each step to q = frozen_q2, pi = frozen_pi2 and v = 0: a policy equal
    # to its own target does not move, so it plays frozen_pi2
    frozen = None
    if frozen_q2 is not None:
        frozen = np.array([smoothed_policy(row, config.tau, config.eps_bar, False)
                           for row in frozen_q2.tolist()])
    [rec] = z.run_visbr(sg, [config], frozen_pi2=frozen)
    v_star = z.minimax_fixed_point(sg, 1, tol=1e-6)

    def pin(state):
        if frozen is None:
            return state
        p2 = z.LearnerState(q=frozen_q2, pi=frozen, v=np.zeros(sg.n_states))
        return z.VisbrState(players=(state.players[0], p2), s=state.s, t=state.t,
                            k=state.k, rngs=state.rngs)

    state = pin(z.init_visbr(sg, config))
    rows = iter(range(len(rec.index)))
    visited = set()

    def check_row(t, k):
        row = next(rows)
        assert rec.index[row].tolist() == [t, k]
        want = _recorded_row(sg, state, v_star, frozen)
        assert want.keys() == rec.series.keys()
        for name, value in want.items():
            assert rec.series[name][row] == value, (name, t, k)

    check_row(0, 0)
    for t in range(config.T):
        for k in range(config.K):
            visited.add(state.s)
            state = pin(z.inner_step(state, sg, config))
            check_row(t, k + 1)
        state = pin(z.outer_update(state, sg, config))
    check_row(config.T, 0)
    assert next(rows, None) is None
    p1, p2 = state.players
    if frozen is not None:
        # player 2 never learned: the start of every run
        p2 = z.init_visbr(sg, config).players[1]
    for got, want in ((rec.final_q, (p1.q, p2.q)), (rec.final_v, (p1.v, p2.v)),
                      ((rec.final_policy.pi1, rec.final_policy.pi2), (p1.pi, p2.pi))):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return visited


def test_run_equals_stepping():
    sg = _random_sg(np.random.default_rng(21), n_states=2)
    _assert_run_equals_stepping(sg, _config(T=3, K=7, seed=77, record_stride=1))


def test_run_equals_stepping_with_cached_targets():
    # run_visbr keeps each state's softmax target cached across steps and
    # rounds, inner_step rebuilds the cache from q on every call; with
    # S=6 and unequal action counts the trajectory acts in several
    # states, so a stale cached target would show
    sg = _random_sg(np.random.default_rng(21), n_states=6, n1=3, n2=2)
    config = _config(T=3, K=7, seed=77, record_stride=1)
    assert len(_assert_run_equals_stepping(sg, config)) >= 4


def test_run_equals_stepping_on_a_larger_game():
    # 20 states of 3x3: the all-state policy step moves many rows that the
    # trajectory does not visit between two visits
    sg = _random_sg(np.random.default_rng(23), n_states=20, n1=3, n2=3, gamma=0.9)
    config = _config(T=3, K=40, seed=5, tau=0.2, variant="explore", eps_bar=0.1,
                     record_stride=1, schedule=_sched(beta=0.05))
    assert len(_assert_run_equals_stepping(sg, config)) >= 10


def test_run_equals_stepping_against_a_frozen_opponent():
    rng = np.random.default_rng(29)
    sg = _random_sg(rng, n_states=5, n1=3, n2=2)
    config = _config(T=3, K=12, seed=41, record_stride=1, schedule=_sched(beta=0.05))
    frozen_q2 = rng.uniform(-1.0, 1.0, (5, 2))
    assert len(_assert_run_equals_stepping(sg, config, frozen_q2)) >= 3


def test_environment_stream_consumption():
    # one uniform for S0, then exactly one per inner step
    sg = _random_sg(np.random.default_rng(25), n_states=3)
    config = _config(T=2, K=6, seed=13)
    state = z.init_visbr(sg, config)
    for t in range(2):
        for _ in range(6):
            state = z.inner_step(state, sg, config)
        state = z.outer_update(state, sg, config)
    probe = state.rngs[2].random()

    _, _, ce = z.visbr_seed_sequences(config.seed)
    fresh = np.random.default_rng(ce)
    fresh.random(1 + 12)
    assert probe == fresh.random()


def test_record_row_structure():
    sg = _mp_sg()
    long, short = z.run_visbr(sg, [_config(T=3, K=50, record_stride=25),
                                   _config(T=2, K=5, record_stride=9)])
    assert long.index.tolist() == [[0, 0], [0, 25], [0, 50], [1, 25], [1, 50],
                                   [2, 25], [2, 50], [3, 0]]
    assert short.index.tolist() == [[0, 0], [0, 5], [1, 5], [2, 0]]
    for rec in (long, short):
        assert set(rec.series) == set(z.VISBR_METRICS) | {"v_err"}


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
            assert (rec.metric("min_pi") >= bound.value).all()
        assert (rec.metric("ng") >= 0.0).all()


def test_v_error_column_appears_only_under_budget(monkeypatch):
    sg = _mp_sg()
    [with_err] = z.run_visbr(sg, [_config(T=1, K=5)])
    assert "v_err" in with_err.series
    # v* for matching pennies is 0, so v_err equals v_inf throughout
    assert np.allclose(with_err.metric("v_err"), with_err.metric("v_inf"), atol=1e-6)
    monkeypatch.setattr("zsdyn.visbr.V_STAR_BUDGET", 0)
    [without] = z.run_visbr(sg, [_config(T=1, K=5)])
    assert "v_err" not in without.series


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
    # player 2 never learns in this mode
    assert np.array_equal(rec.final_q[1], np.zeros((2, 2)))
    assert np.array_equal(rec.final_policy.pi2, np.full((2, 2), 0.5))
    assert np.array_equal(rec.final_v[1], np.zeros(2))
    # player 1 does
    assert float(np.abs(rec.final_q[0]).max()) > 0.0
    # ng scores the joint policy that generates play, (pi1, frozen)
    played = z.validate_joint_policy(rec.final_policy.pi1, frozen, sg)
    assert rec.metric("ng")[-1] == z.nash_gap_stochastic(sg, played, tol=1e-6)
    idle = z.validate_joint_policy(rec.final_policy.pi1, rec.final_policy.pi2, sg)
    assert rec.metric("ng")[-1] != z.nash_gap_stochastic(sg, idle, tol=1e-6)
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
    pi2 = kw.get("frozen_pi2", whole[0].final_policy.pi2)
    last = z.nash_gap_stochastic(sg, z.JointPolicy(pi1=whole[0].final_policy.pi1, pi2=pi2))
    assert whole[0].metric("ng")[-1] == last
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
    with pytest.raises(z.NotZeroSum):
        z.init_visbr(bad, _config())
