"""Game containers: validation, builtins, loading, records."""

import json

import numpy as np
import pytest

import zsdyn as z


def test_matching_pennies_valid():
    game = z.validate_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
    assert game.zero_sum
    assert game.a_max == 2
    assert np.array_equal(game.R2, -game.R1.T)


def test_payoff_above_one_rejected():
    with pytest.raises(z.PayoffOutOfRange):
        z.validate_matrix_game([[2.0]], [[-2.0]])


def test_non_zero_sum_rejected():
    with pytest.raises(z.NotZeroSum):
        z.validate_matrix_game([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])


def test_non_zero_sum_allowed_when_relaxed():
    game = z.validate_matrix_game([[1.0, 0.0], [0.0, 1.0]],
                                  [[0.0, 0.0], [0.0, 0.0]],
                                  require_zero_sum=False)
    assert not game.zero_sum


def test_r2_defaults_to_negated_transpose():
    R1 = [[0.5, -0.25, 0.0], [0.125, 0.75, -1.0]]
    game = z.validate_matrix_game(R1)
    assert np.array_equal(game.R2, -np.asarray(R1).T)
    assert game.n_actions_1 == 2 and game.n_actions_2 == 3
    assert game.a_max == 3


def test_non_finite_payoff_rejected():
    with pytest.raises(z.PayoffOutOfRange):
        z.validate_matrix_game([[np.nan, 0.0], [0.0, 0.0]])


def test_ragged_payoffs_rejected():
    with pytest.raises(z.DimensionMismatch):
        z.validate_matrix_game([[1.0, 0.0], [0.0]])


def test_revalidation_is_idempotent():
    game = z.matching_pennies()
    again = z.validate_matrix_game(game)
    assert again == game


def test_payoff_table_orientation():
    game = z.validate_matrix_game([[0.5, -0.25], [0.125, 0.75], [-1.0, 0.0]],
                                  require_zero_sum=False)
    # R2 rows are player 2's own actions
    assert game.R2.shape == (2, 3)
    assert game.R2[0, 2] == -game.R1[2, 0]


def _mp_embedding(gamma=0.5):
    P = np.ones((1, 2, 2, 1))
    R1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    return z.validate_stochastic_game(P, R1, gamma=gamma)


def test_single_state_embedding_valid():
    sg = _mp_embedding()
    assert sg.n_states == 1 and sg.a_max == 2
    assert sg.zero_sum
    assert np.array_equal(sg.initial_dist, [1.0])


def test_bad_transition_row_rejected():
    P = np.zeros((2, 1, 1, 2))
    P[:, :, :, 0] = 0.5
    P[:, :, :, 1] = 0.4
    with pytest.raises(z.BadTransitionRow):
        z.validate_stochastic_game(P, np.zeros((2, 1, 1)), gamma=0.5)


def test_gamma_one_rejected():
    P = np.ones((1, 1, 1, 1))
    with pytest.raises(z.BadDiscount):
        z.validate_stochastic_game(P, np.zeros((1, 1, 1)), gamma=1.0)


def test_gamma_required():
    P = np.ones((1, 1, 1, 1))
    with pytest.raises(z.BadDiscount):
        z.validate_stochastic_game(P, np.zeros((1, 1, 1)))


def test_default_initial_dist_is_uniform_and_noted():
    rng = np.random.default_rng(0)
    P = rng.random((3, 2, 2, 3)) + 0.1
    P /= P.sum(axis=3, keepdims=True)
    sg = z.validate_stochastic_game(P, rng.uniform(-0.5, 0.5, (3, 2, 2)), gamma=0.9)
    assert np.allclose(sg.initial_dist, 1.0 / 3.0)


def test_stochastic_r2_default_antisymmetric():
    rng = np.random.default_rng(1)
    P = rng.random((2, 2, 3, 2)) + 0.1
    P /= P.sum(axis=3, keepdims=True)
    R1 = rng.uniform(-1.0, 1.0, (2, 2, 3))
    sg = z.validate_stochastic_game(P, R1, gamma=0.5)
    for s in range(2):
        for a in range(2):
            for b in range(3):
                assert sg.R2[s, b, a] == -sg.R1[s, a, b]


def test_explicit_initial_dist_checked():
    P = np.ones((1, 1, 1, 1))
    R1 = np.zeros((1, 1, 1))
    with pytest.raises(z.NotADistribution):
        z.validate_stochastic_game(P, R1, gamma=0.5, initial_dist=[0.9])


def test_joint_policy_rows_must_be_distributions():
    with pytest.raises(z.NotADistribution):
        z.validate_joint_policy([0.7, 0.2], [0.5, 0.5])
    with pytest.raises(z.NotADistribution):
        z.validate_joint_policy([-0.1, 1.1], [0.5, 0.5])


def test_joint_policy_shape_vs_game():
    game = z.matching_pennies()
    with pytest.raises(z.DimensionMismatch):
        z.validate_joint_policy([1.0 / 3] * 3, [0.5, 0.5], game)
    joint = z.validate_joint_policy([0.5, 0.5], [0.25, 0.75], game)
    assert joint == z.validate_joint_policy([0.5, 0.5], [0.25, 0.75], game)


def test_joint_policy_mixed_ndim_rejected():
    with pytest.raises(z.DimensionMismatch):
        z.validate_joint_policy([0.5, 0.5], [[0.5, 0.5]])


def test_uniform_joint_policy_shapes():
    sg = _mp_embedding()
    joint = z.uniform_joint_policy(sg)
    assert joint.pi1.shape == (1, 2)
    assert np.allclose(joint.pi1, 0.5)


def test_trajectory_record_index_must_increase():
    base = dict(config_echo={}, series={"ng": np.array([0.1, 0.2])},
                final_policy=z.uniform_joint_policy(z.matching_pennies()),
                final_q=(np.zeros(2), np.zeros(2)), final_v=None)
    z.TrajectoryRecord(index=np.array([[0, 1], [0, 2]]), **base)
    z.TrajectoryRecord(index=np.array([[0, 5], [1, 0]]), **base)
    with pytest.raises(z.DimensionMismatch):
        z.TrajectoryRecord(index=np.array([[0, 2], [0, 2]]), **base)
    with pytest.raises(z.DimensionMismatch):
        z.TrajectoryRecord(index=np.array([[1, 0], [0, 5]]), **base)


def test_trajectory_record_series_length_checked():
    with pytest.raises(z.DimensionMismatch):
        z.TrajectoryRecord(config_echo={}, index=np.array([[0, 1]]),
                           series={"ng": np.array([0.1, 0.2])},
                           final_policy=z.uniform_joint_policy(z.matching_pennies()),
                           final_q=(np.zeros(2), np.zeros(2)), final_v=None)


def test_builtin_payoffs():
    mp = z.load_game("builtin:mp")
    assert np.array_equal(mp.R1, [[1.0, -1.0], [-1.0, 1.0]])
    rps = z.load_game("builtin:rps")
    assert np.array_equal(rps.R1, [[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    assert rps.zero_sum


def test_tilted_rps_scaling():
    for n in (1, 3, 5, 20, 49):
        game = z.load_game(f"builtin:appF:N={n}")
        assert game.zero_sum
        assert float(np.abs(game.R1).max()) == 1.0
        assert game.R1[0, 0] == 1.0  # the tilted entry, n/n after scaling
        assert game.R1[0, 1] == 1.0 / n
    with pytest.raises(ValueError):
        z.load_game("builtin:appF:N=x")
    with pytest.raises(ValueError):
        z.load_game("builtin:nonsense")


def test_tilted_rps_rejects_non_integers():
    for n in (2.7, 3.0, True, "3"):
        with pytest.raises(z.BadGameSource):
            z.tilted_rps(n)
    assert z.tilted_rps(np.int64(3)) == z.tilted_rps(3)


def test_tilted_rps_equilibrium_moves_with_n():
    # the claimed limit policies are an exact equilibrium once n >= 3
    for n in (3, 5, 9):
        game = z.tilted_rps(n)
        joint = z.validate_joint_policy([1 / 3, 2 / 3, 0.0], [0.0, 2 / 3, 1 / 3], game)
        assert z.nash_gap_matrix(game, joint) <= 1e-12


def test_load_game_from_dict_and_file(tmp_path):
    doc = {"type": "matrix", "R1": [[1.0, -1.0], [-1.0, 1.0]]}
    assert z.load_game(doc) == z.matching_pennies()

    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert z.load_game(str(path)) == z.matching_pennies()

    sg_doc = {"type": "stochastic",
              "transition": [[[[1.0]]]],
              "R1": [[[0.5]]],
              "gamma": 0.5}
    sg = z.load_game(sg_doc)
    assert sg.n_states == 1 and sg.gamma == 0.5

    with pytest.raises(z.DimensionMismatch):
        z.load_game({"R1": [[0.0]]})
    # a misspelt optional key is an error, not a silent default
    with pytest.raises(z.BadGameSource, match="initial_dsit"):
        z.load_game({**sg_doc, "initial_dsit": [1.0]})


def test_load_game_rejects_strings_and_bools():
    # documents hold numbers: no string, bool or list-for-gamma is coerced
    stringly = {"type": "stochastic", "transition": [[[[1.0]]]], "R1": [[["0.5"]]],
                "gamma": "0.5"}
    with pytest.raises(z.BadGameSource, match="'R1'"):
        z.load_game(stringly)
    with pytest.raises(z.BadGameSource, match="'gamma'"):
        z.load_game({**stringly, "R1": [[[0.5]]]})
    with pytest.raises(z.BadGameSource, match="'R1'"):
        z.load_game({"type": "matrix", "R1": [[True, False], [False, True]]})
    sg_doc = {"type": "stochastic", "transition": [[[[1.0]]]], "R1": [[[0.5]]], "gamma": 0.5}
    for key, bad in (("transition", [[[[True]]]]), ("initial_dist", ["1"]),
                     ("R2", [[[0.5, False]]]), ("gamma", [0.5]), ("gamma", True)):
        with pytest.raises(z.BadGameSource, match=repr(key)):
            z.load_game({**sg_doc, key: bad})
    # numbers of any JSON kind, and arrays from Python, still load
    assert z.load_game({**sg_doc, "R1": [[[0]]], "initial_dist": [1]}).R1[0, 0, 0] == 0.0
    assert z.load_game({"type": "matrix", "R1": np.eye(2)}) == z.validate_matrix_game(np.eye(2))
    # the validators convert numpy input as before
    assert z.validate_matrix_game(np.eye(2, dtype=np.float32)).R1.dtype == np.float64


def test_structural_equality():
    game = z.matching_pennies()
    assert game == z.validate_matrix_game(game.R1)  # notes are not compared
    assert game != z.validate_matrix_game(game.R1 * 0.5)
    assert game != z.validate_matrix_game([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])
    sg = _mp_embedding(gamma=0.5)
    assert sg != _mp_embedding(gamma=0.6)
    assert sg != game and game != sg
    config = z.MatrixRunConfig(tau=0.5, K=10, seed=3, record_stride=5,
                               schedule=z.StepsizeSchedule(kind="constant", alpha=0.5,
                                                           beta=0.1))
    rec = z.run_matrix_dynamics(game, [config])[0]
    fields = dict(config_echo=rec.config_echo, index=rec.index, series=rec.series,
                  final_policy=rec.final_policy, final_q=rec.final_q,
                  final_v=rec.final_v, warnings=rec.warnings)
    assert z.TrajectoryRecord(**fields) == rec
    changed = [
        {"config_echo": {**rec.config_echo, "seed": 4}},
        {"series": {**rec.series, "ng": rec.series["ng"] + 1.0}},
        {"series": {name: v for name, v in rec.series.items() if name != "ng"}},
        {"final_policy": z.JointPolicy(pi1=rec.final_policy.pi2, pi2=rec.final_policy.pi1)},
        {"final_q": rec.final_q[:1]},
        {"final_v": rec.final_q},
        {"warnings": ("note",)},
    ]
    for change in changed:
        assert z.TrajectoryRecord(**{**fields, **change}) != rec, change


def test_game_hash_stability_and_sensitivity():
    a = z.game_hash(z.matching_pennies())
    assert a == z.game_hash(z.matching_pennies())
    assert a != z.game_hash(z.rock_paper_scissors())

    sg1 = _mp_embedding(gamma=0.5)
    sg2 = _mp_embedding(gamma=0.6)
    assert z.game_hash(sg1) != z.game_hash(sg2)
    assert z.game_hash(sg1) != a
