"""Stepsize schedules, run configs, and condition checkers."""

import math
from dataclasses import replace

import pytest

import zsdyn as z


def test_constant_schedule_rates():
    s = z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.01)
    assert s.rates(0) == (0.5, 0.01)
    assert s.rates(10 ** 6) == (0.5, 0.01)
    assert s.ratio == 0.02


def test_diminishing_schedule_rates():
    s = z.StepsizeSchedule(kind="diminishing", alpha=128.0, beta=8.0, h=128.0)
    assert s.rates(0) == (1.0, 0.0625)
    assert s.rates(128) == (0.5, 0.03125)
    assert s.ratio == 0.0625
    # rates stay in (0, 1] for all k
    for k in (0, 1, 5, 1000):
        a, b = s.rates(k)
        assert 0.0 < b <= a <= 1.0


def test_schedule_validation():
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="linear", alpha=0.5, beta=0.1)
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="constant", alpha=0.0, beta=0.0)
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.6)  # beta > alpha
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="constant", alpha=1.5, beta=0.1)  # alpha > 1
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.1, h=2.0)
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="diminishing", alpha=4.0, beta=1.0, h=2.0)  # h < alpha
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="diminishing", alpha=4.0, beta=1.0)  # missing h
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule(kind="constant", alpha=math.inf, beta=1.0)


def test_schedule_dict_roundtrip():
    for s in (z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.01),
              z.StepsizeSchedule(kind="diminishing", alpha=128.0, beta=8.0, h=128.0)):
        assert z.StepsizeSchedule.from_dict(s.to_dict()) == s
    assert "h" not in z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.01).to_dict()
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule.from_dict({"kind": "constant", "alpha": 0.5,
                                      "beta": 0.1, "gamma": 0.9})
    with pytest.raises(z.BadConfig):
        z.StepsizeSchedule.from_dict({"kind": "constant", "alpha": 0.5})


def _sched():
    return z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.01)


def test_matrix_config_validation():
    good = z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=1)
    assert good.variant == "plain" and good.eps_bar == 0.0
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.0, schedule=_sched(), K=10, seed=1)
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=0, seed=1)
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=-1)
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=2 ** 64)
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=1, record_stride=0)
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=1, variant="greedy")
    # plain variant must not mix in uniform exploration
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=1, eps_bar=0.1)
    ok = z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=1,
                           variant="explore", eps_bar=0.1)
    assert ok.eps_bar == 0.1


def test_visbr_config_validation():
    good = z.VisbrConfig(tau=0.5, schedule=_sched(), T=3, K=10, seed=1)
    assert good.T == 3
    with pytest.raises(z.BadConfig):
        z.VisbrConfig(tau=0.5, schedule=_sched(), T=0, K=10, seed=1)
    with pytest.raises(z.BadConfig):
        z.VisbrConfig(tau=0.5, schedule=_sched(), T=3, K=10, seed=1, eps_bar=0.2)


def test_run_configs_are_keyword_only():
    with pytest.raises(TypeError):
        z.MatrixRunConfig(0.5, _sched(), 10, 1)
    with pytest.raises(TypeError):
        z.VisbrConfig(0.5, _sched(), 3, 10, 1)


def test_with_seed_checks_only_the_seed():
    # the sweep harness re-seeds a validated template per trajectory
    for c in (z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=3,
                                normalize_q_in_softmax=True),
              z.VisbrConfig(tau=0.5, schedule=_sched(), T=2, K=10, seed=3)):
        for seed in (0, 9, 2 ** 64 - 1):
            new = c._with_seed(seed)
            assert type(new) is type(c) and new == replace(c, seed=seed)
            assert hash(new) == hash(replace(c, seed=seed))
        assert c.seed == 3
        for bad in (-1, 2 ** 64, 1.0, True, "3", None):
            with pytest.raises(z.BadConfig, match="seed"):
                c._with_seed(bad)


def test_config_dict_roundtrip():
    m = z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=3,
                          variant="explore", eps_bar=0.25, record_stride=5,
                          normalize_q_in_softmax=True)
    assert z.MatrixRunConfig.from_dict(m.to_dict()) == m
    v = z.VisbrConfig(tau=1.5, schedule=_sched(), T=4, K=20, seed=9)
    assert z.VisbrConfig.from_dict(v.to_dict()) == v
    with pytest.raises(z.BadConfig):
        z.MatrixRunConfig.from_dict({**m.to_dict(), "extra": 1})
    with pytest.raises(z.BadConfig):
        z.VisbrConfig.from_dict({"tau": 1.0})


def _matrix_dict(**overrides):
    d = z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=3).to_dict()
    d.update(overrides)
    return d


def test_from_dict_rejects_string_bool():
    # bool("false") is True; the string must be rejected, not coerced
    with pytest.raises(z.BadConfig, match="normalize_q_in_softmax"):
        z.MatrixRunConfig.from_dict(_matrix_dict(normalize_q_in_softmax="false"))


def test_from_dict_rejects_fractional_int_field():
    with pytest.raises(z.BadConfig, match="K"):
        z.MatrixRunConfig.from_dict(_matrix_dict(K=10.7))
    v = z.VisbrConfig(tau=0.5, schedule=_sched(), T=2, K=10, seed=3).to_dict()
    with pytest.raises(z.BadConfig, match="T"):
        z.VisbrConfig.from_dict({**v, "T": 2.0})
    with pytest.raises(z.BadConfig, match="record_stride"):
        z.VisbrConfig.from_dict({**v, "record_stride": 2.5})


def test_int_fields_reject_bool():
    with pytest.raises(z.BadConfig, match="K"):
        z.MatrixRunConfig.from_dict(_matrix_dict(K=True))
    with pytest.raises(z.BadConfig, match="seed"):
        z.MatrixRunConfig(tau=0.5, schedule=_sched(), K=10, seed=False)
    with pytest.raises(z.BadConfig, match="tau"):
        z.MatrixRunConfig(tau=True, schedule=_sched(), K=10, seed=1)


def test_from_dict_floats_accept_json_ints_only():
    # JSON writes 1.0 as 1, so an int becomes the float it stands for ...
    c = z.MatrixRunConfig.from_dict(_matrix_dict(tau=1, schedule={
        "kind": "constant", "alpha": 1, "beta": 1}))
    assert type(c.tau) is float and c.tau == 1.0
    assert type(c.schedule.alpha) is float and type(c.schedule.beta) is float
    # ... but a numeric string is not a number
    with pytest.raises(z.BadConfig, match="tau"):
        z.MatrixRunConfig.from_dict(_matrix_dict(tau="0.5"))
    with pytest.raises(z.BadConfig, match="alpha"):
        z.StepsizeSchedule.from_dict({"kind": "constant", "alpha": "0.5", "beta": 0.1})


def test_matrix_condition_flags_each_violation():
    # tau above 1
    c = z.MatrixRunConfig(tau=2.0, schedule=_sched(), K=10, seed=1)
    assert any("tau" in w and "exceeds 1" in w for w in z.matrix_condition_warnings(c, 2))
    # beta_0 too large: cap for tau=1, A=2 is 1/512
    c = z.MatrixRunConfig(tau=1.0,
                          schedule=z.StepsizeSchedule(kind="constant", alpha=0.5, beta=0.01),
                          K=10, seed=1)
    ws = z.matrix_condition_warnings(c, 2)
    assert any("beta_0" in w for w in ws)
    assert any("beta/alpha" in w for w in ws)


def test_matrix_condition_accepts_conforming_settings():
    sched = z.StepsizeSchedule(kind="diminishing", alpha=1000.0, beta=1e-4, h=1000.0)
    c = z.MatrixRunConfig(tau=1.0, schedule=sched, K=10, seed=1)
    floor = z.exploration_bound("matrix", "plain", z.SoftmaxParams(tau=1.0), 2)
    cap = min(1.0 * floor ** 3 / 32.0, floor / (128.0 * 4.0))
    assert sched.ratio <= cap  # sanity on the test's own numbers
    assert z.matrix_condition_warnings(c, 2) == ()


def test_visbr_condition_flags_violations():
    c = z.VisbrConfig(tau=3.0, schedule=_sched(), T=2, K=5, seed=0)
    ws = z.visbr_condition_warnings(c, gamma=0.5)  # cap is 2
    assert any("1/(1-gamma)" in w for w in ws)
    c = z.VisbrConfig(tau=1.0, schedule=_sched(), T=2, K=5, seed=0,
                      variant="explore", eps_bar=0.5)
    ws = z.visbr_condition_warnings(c, gamma=0.5)
    assert any("eps_bar == tau" in w for w in ws)
    good = z.VisbrConfig(tau=1.0, schedule=_sched(), T=2, K=5, seed=0,
                         variant="explore", eps_bar=1.0)
    assert z.visbr_condition_warnings(good, gamma=0.5) == ()
