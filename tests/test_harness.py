import functools
import hashlib
import json

import numpy as np
import pytest

import slatelab.harness
from slatelab.autodiff import NonFiniteError
from slatelab.config import build_config
from slatelab.gems import pretrain, save_gems
from slatelab.harness import (
    NanLossError,
    ReinforceLearner,
    RunRecord,
    build_policy,
    evaluate,
    load_policy,
    read_records,
    rollout_returns,
    save_mf_embeddings,
    train,
    write_record,
)
from slatelab.logged import generate_dataset
from slatelab.mf import train_mf
from slatelab.replay import ReplayBuffer
from slatelab.sac import SacConfig, load_sac
from slatelab.simulator import Environment, examination_vector, generate_item_catalog
from slatelab.stats import welch_t_test

TINY = {
    "sim.num_items": "15", "sim.slate_size": "3", "sim.episode_length": "8",
    "sim.num_topics": "3", "sim.topic_dim": "2",
    "gems.latent_dim": "4", "gems.item_embed_dim": "4", "gems.hidden": "16",
    "gems.epochs": "2", "gems.batch_size": "32",
    "mf.embed_dim": "4", "mf.epochs": "2",
    "belief_dim": "8",
    "hidden": "16,16", "batch_size": "16", "update_every": "4",
    "training_steps": "4", "validation_every": "2",
    "validation_trajectories": "3", "test_trajectories": "4",
}


def tiny_config(**over):
    values = dict(TINY)
    values.update({k: str(v) for k, v in over.items()})
    return build_config(values)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Shared gems checkpoint and mf embeddings for the tiny simulator."""
    root = tmp_path_factory.mktemp("artifacts")
    cfg = tiny_config()
    catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
    ds = generate_dataset(cfg.sim, catalog, 30, epsilon=0.5, seed=11)
    model, _ = pretrain(ds, cfg.gems, seed=2)
    gems_path = root / "gems.slk"
    save_gems(gems_path, model)
    mf_path = root / "mf.npz"
    save_mf_embeddings(mf_path, train_mf(ds, cfg.mf, seed=1))
    return {"gems": str(gems_path), "mf": str(mf_path)}


# -- run records -------------------------------------------------------------


def test_record_round_trip(tmp_path):
    rec = RunRecord(method="sac+gems", env="TopDown-diffuse", seed=3,
                    config_hash="abc", validation_means=[1.0, 2.0],
                    best_checkpoint=1, test_returns=[4.0, 5.0], wall_clock=9.9)
    path = tmp_path / "record.json"
    write_record(path, rec)
    back = read_records(path)
    assert back == [rec]


def test_canonical_ignores_wall_clock():
    kw = dict(method="m", env="e", seed=0, config_hash="h",
              validation_means=[1.0], best_checkpoint=0, test_returns=[2.0])
    a = RunRecord(wall_clock=1.0, **kw)
    b = RunRecord(wall_clock=99.0, **kw)
    assert a.canonical() == b.canonical()
    c = RunRecord(wall_clock=1.0, **{**kw, "seed": 1})
    assert a.canonical() != c.canonical()


# -- policy construction ------------------------------------------------------


def test_agent_ranker_compatibility(artifacts):
    catalog = generate_item_catalog(tiny_config().sim, 0)
    for agent, ranker in (("sac", "softmax"), ("none", "gems"),
                          ("reinforce", "gems"), ("reinforce", "random")):
        with pytest.raises(ValueError, match="cannot drive"):
            build_policy(tiny_config(agent=agent, ranker=ranker,
                                     gems_ckpt=artifacts["gems"]), catalog, 0)


def test_missing_artifacts_raise():
    cfg = tiny_config()   # sac+gems with no checkpoint path
    catalog = generate_item_catalog(cfg.sim, 0)
    with pytest.raises(FileNotFoundError, match="gems checkpoint"):
        build_policy(cfg, catalog, 0)
    cfg = tiny_config(ranker="topk-mf", belief_item_source="mf")
    with pytest.raises(FileNotFoundError, match="mf embeddings"):
        build_policy(cfg, catalog, 0)


def test_gems_checkpoint_that_does_not_fit_the_simulator_is_rejected(artifacts):
    for field, value in (("num_items", 16), ("slate_size", 4)):
        cfg = tiny_config(gems_ckpt=artifacts["gems"], **{f"sim.{field}": value})
        catalog = generate_item_catalog(cfg.sim, 0)
        want = getattr(tiny_config().sim, field)
        with pytest.raises(ValueError, match=f"gems checkpoint .*gems.slk has "
                                             f"{field}={want}, .*sim.{field}={value}"):
            build_policy(cfg, catalog, 0)


def test_mf_embeddings_with_wrong_row_count_are_rejected(artifacts):
    # the ranker's table, then the belief's table alone
    for ranker in ("topk-mf", "topk-ideal"):
        cfg = tiny_config(**{"sim.num_items": 16, "ranker": ranker,
                             "belief_item_source": "mf", "mf_embeddings": artifacts["mf"]})
        catalog = generate_item_catalog(cfg.sim, 0)
        with pytest.raises(ValueError, match=r"mf embeddings .*mf.npz has "
                                             r"num_items=15, .*sim.num_items=16"):
            build_policy(cfg, catalog, 0)


def test_agent_checkpoint_that_does_not_fit_the_simulator_is_rejected(tmp_path):
    cfg = tiny_config(agent="reinforce", ranker="softmax")
    ckpt = tmp_path / "policy.slk"
    build_policy(cfg, generate_item_catalog(cfg.sim, 0), 0).save(ckpt)
    for field, value in (("num_items", 40), ("slate_size", 4)):
        other = tiny_config(agent="reinforce", ranker="softmax", **{f"sim.{field}": value})
        want = getattr(cfg.sim, field)
        with pytest.raises(ValueError, match=f"agent checkpoint .*policy.slk has "
                                             f"{field}={want}, .*sim.{field}={value}"):
            load_policy(other, generate_item_catalog(other.sim, 0), ckpt)


def test_agent_checkpoint_of_another_agent_is_rejected(artifacts, tmp_path):
    cfg = tiny_config(agent="reinforce", ranker="softmax")
    ckpt = tmp_path / "policy.slk"
    build_policy(cfg, generate_item_catalog(cfg.sim, 0), 0).save(ckpt)
    sac = tiny_config(gems_ckpt=artifacts["gems"])
    with pytest.raises(ValueError, match="holds a 'reinforce' agent checkpoint, not 'sac'"):
        load_policy(sac, generate_item_catalog(sac.sim, 0), ckpt)


def test_each_artifact_is_read_once(artifacts, monkeypatch):
    # the ranker and the belief both read the MF table: one load serves both
    loads = []
    read = slatelab.harness.load_mf_embeddings
    monkeypatch.setattr(slatelab.harness, "load_mf_embeddings",
                        lambda path: loads.append(path) or read(path))
    cfg = tiny_config(ranker="topk-mf", belief_item_source="mf",
                      mf_embeddings=artifacts["mf"])
    policy = build_policy(cfg, generate_item_catalog(cfg.sim, 0), 0)
    assert [str(path) for path in loads] == [artifacts["mf"]]
    np.testing.assert_array_equal(policy.encoder.table_value(),
                                  policy.table.astype(policy.encoder.dtype))


def test_action_dims(artifacts):
    cases = [
        (dict(ranker="gems", gems_ckpt=artifacts["gems"]), 4),
        (dict(ranker="topk-mf", mf_embeddings=artifacts["mf"],
              belief_item_source="mf"), 4),
        (dict(ranker="wknn", mf_embeddings=artifacts["mf"],
              belief_item_source="mf"), 12),
        (dict(agent="reinforce", ranker="softmax"), 15),
    ]
    for over, expected in cases:
        cfg = tiny_config(**over)
        catalog = generate_item_catalog(cfg.sim, 0)
        assert build_policy(cfg, catalog, 0).action_dim == expected


@pytest.mark.parametrize("agent, ranker", [("sac", "gems"), ("sac", "wknn"),
                                           ("sac", "topk-mf"), ("reinforce", "softmax"),
                                           ("none", "random"), ("none", "oracle")])
def test_act_single_is_row_zero_of_act(artifacts, agent, ranker):
    cfg = tiny_config(agent=agent, ranker=ranker, gems_ckpt=artifacts["gems"],
                      mf_embeddings=artifacts["mf"])
    catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
    policy = build_policy(cfg, catalog, seed=5)
    env = Environment(cfg.sim, catalog, disclosed=policy.needs_disclosed)
    env.reset([7])
    dtype = policy.encoder.dtype if policy.encoder is not None else np.float64
    h = np.random.default_rng(5).uniform(-0.5, 0.5, cfg.belief_dim).astype(dtype)
    for mode in ("sample", "mean"):
        one_rng, batch_rng = np.random.default_rng(9), np.random.default_rng(9)
        action, slate = policy.act_single(h, env, mode, one_rng)
        actions, slates = policy.act(h[None], env, mode, batch_rng)
        assert slates.shape == (1, cfg.sim.slate_size)
        np.testing.assert_array_equal(slate, slates[0])
        if agent == "sac":
            assert actions.shape == (1, policy.action_dim)
            np.testing.assert_array_equal(action, actions[0])
        else:
            assert action is None and actions is None
        assert one_rng.bit_generator.state == batch_rng.bit_generator.state


@pytest.mark.parametrize("agent, ranker", [("none", "oracle"), ("sac", "topk-ideal"),
                                           ("sac", "topk-mf"), ("sac", "gems"),
                                           ("sac", "wknn")])
def test_lockstep_rollout_returns_equal_one_user_rollouts(artifacts, agent, ranker):
    """Deterministic policies: a user's return does not depend on which
    users share its lockstep batch, and the diagnostics rows agree too."""
    cfg = tiny_config(agent=agent, ranker=ranker, gems_ckpt=artifacts["gems"],
                      mf_embeddings=artifacts["mf"])
    catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
    policy = build_policy(cfg, catalog, seed=3)
    seeds = [900 + 7 * i for i in range(6)]
    rows = []
    together = rollout_returns(policy, catalog, 6, lambda i: seeds[i],
                               np.random.default_rng(0), diagnostics=rows)
    for i, s in enumerate(seeds):
        alone_rows = []
        alone = rollout_returns(policy, catalog, 1, lambda _: s, np.random.default_rng(0),
                                diagnostics=alone_rows)
        assert alone[0] == together[i]
        assert [(i, *r[1:]) for r in alone_rows] == [r for r in rows if r[0] == i]
    assert len(rows) == 6 * cfg.sim.episode_length * cfg.sim.slate_size


def wknn_critic_cases(policy, rng, users, ms):
    """(beliefs, base, slot, candidates) for every slot and each m in ms:
    catalog rows, distinct within a user, as placed items and candidates."""
    k, (num, e) = policy.slate_size, policy.table.shape
    for slot in range(k):
        for m in ms:
            picks = np.stack([rng.choice(num, slot + m, replace=False) for _ in range(users)])
            base = np.zeros((users, k * e))
            base[:, :slot * e] = policy.table[picks[:, :slot]].reshape(users, slot * e)
            beliefs = rng.uniform(-1.0, 1.0, (users, policy.cfg.belief_dim))
            yield (beliefs.astype(policy.model.dtype), base, slot,
                   policy.table[picks[:, slot:]])


@pytest.mark.parametrize("dtype, tol", [("float32", 2e-6), ("float64", 1e-14)],
                         ids=["float32", "float64"])
def test_wknn_critic_is_the_min_of_both_critics_up_to_rounding(dtype, tol, monkeypatch):
    # The split first layer sums in another order than the concatenated
    # rows: measured worst errors were 1.8e-7 (float32) and 3.7e-16
    # (float64) at |Q| <= 1.05, well inside tol * (1 + max |Q|).  At paper
    # dimensions the argmax over each user's candidates must not move.
    # perfbench/test_perfbench.py loads this module without tests/ on the
    # import path, so the oracles are imported here.
    from oracles import one_user_critic, reference_wknn_critic

    monkeypatch.setattr(slatelab.harness, "SacConfig", functools.partial(SacConfig, dtype=dtype))
    rng = np.random.default_rng(6)
    for over, check_argmax in ((TINY, False), ({}, True)):
        cfg = build_config({**over, "ranker": "wknn", "wknn_source": "ideal",
                            "belief_item_source": "ideal"})
        policy = build_policy(cfg, generate_item_catalog(cfg.sim, cfg.catalog_seed), seed=5)
        assert policy.model.dtype == dtype
        reference = one_user_critic(functools.partial(reference_wknn_critic, policy.model))
        for case in wknn_critic_cases(policy, rng, users=4, ms=(1, 2, 7, 10)):
            got, want = policy._wknn_critic(*case), reference(*case)
            assert got.dtype == dtype and got.shape == want.shape == case[3].shape[:2]
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * (1 + np.abs(want).max()))
            if check_argmax:
                np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("weight", [f"q{i}.l{j}.{v}" for i in (1, 2) for j in range(3)
                                    for v in "Wb"])
def test_wknn_critic_raises_on_a_non_finite_weight(weight, end, bad):
    # A -inf bias is squashed to 0 by the relu, so only a check of that
    # layer's pre-activations sees it.
    cfg = tiny_config(ranker="wknn", wknn_source="ideal", belief_item_source="ideal")
    policy = build_policy(cfg, generate_item_catalog(cfg.sim, cfg.catalog_seed), seed=5)
    # The last slot's candidates meet every row of each first-layer W.
    cases = list(wknn_critic_cases(policy, np.random.default_rng(7), users=2, ms=(2,)))
    policy.model.critic_store[weight].value.flat[end] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        policy._wknn_critic(*cases[-1])


# -- training protocol ---------------------------------------------------------


def test_train_deterministic_per_seed(artifacts, tmp_path):
    cfg = tiny_config(gems_ckpt=artifacts["gems"])
    a = train(cfg, seed=3, workdir=tmp_path / "a")
    b = train(cfg, seed=3, workdir=tmp_path / "b")
    assert a.canonical() == b.canonical()
    c = train(cfg, seed=4, workdir=tmp_path / "c")
    assert a.canonical() != c.canonical()


def test_float32_and_float64_sac_gems_returns_do_not_differ(artifacts, tmp_path, monkeypatch):
    # The agent trains in float32; float64 arithmetic must not score
    # differently.  Learning rates of 0.3 over ~180 updates make training
    # chaotic, so the dtypes' rounding differences grow until decoded slates
    # flip and the two runs of a seed take different trajectories; at
    # gentler rates both dtypes give identical records and the test would
    # compare a sample with itself.  Fifty test users per seed let the gate
    # catch a float32 agent whose actions are all zero (p = 0.02).
    cfg = tiny_config(gems_ckpt=artifacts["gems"], training_steps=24, validation_every=8,
                      test_trajectories=50, update_every=1, critic_lr=0.3, actor_lr=0.3)
    returns = {}
    for dtype in ("float32", "float64"):
        monkeypatch.setattr(slatelab.harness, "SacConfig",
                            functools.partial(SacConfig, dtype=dtype))
        returns[dtype] = [r for seed in range(4)
                          for r in train(cfg, seed, tmp_path / f"{dtype}-{seed}").test_returns]
        assert load_sac(tmp_path / f"{dtype}-0" / "ckpt-0001.slk")[0].cfg.dtype == dtype
    assert returns["float32"] != returns["float64"]
    _, _, p = welch_t_test(returns["float32"], returns["float64"])
    assert p > 0.05


def test_train_stores_the_belief_each_sac_action_was_chosen_from(artifacts, tmp_path,
                                                                 monkeypatch):
    acted, stored = [], []
    act, push = slatelab.harness.Policy.act_single, ReplayBuffer.push

    def recording_act(self, belief_hidden, *args):
        acted.append(np.array(belief_hidden))
        return act(self, belief_hidden, *args)

    def recording_push(self, *args):
        stored.append(np.array(args[-1]))
        return push(self, *args)

    monkeypatch.setattr(slatelab.harness.Policy, "act_single", recording_act)
    monkeypatch.setattr(ReplayBuffer, "push", recording_push)
    cfg = tiny_config(gems_ckpt=artifacts["gems"], training_steps=3, update_every=1)
    train(cfg, seed=0, workdir=tmp_path)
    assert len(stored) == len(acted) == 3 * cfg.sim.episode_length
    for turn, (a, s) in enumerate(zip(acted, stored)):
        np.testing.assert_array_equal(s, a)
        assert s.dtype == np.float32 and s.shape == (cfg.belief_dim,)
        assert np.all(s == 0.0) == (turn % cfg.sim.episode_length == 0), turn


def test_reinforce_train_deterministic(tmp_path):
    cfg = tiny_config(agent="reinforce", ranker="softmax")
    a = train(cfg, seed=1, workdir=tmp_path / "a")
    b = train(cfg, seed=1, workdir=tmp_path / "b")
    assert a.canonical() == b.canonical()
    assert len(a.validation_means) == 3


def test_reinforce_learner_reads_the_policy_baseline_decay():
    cfg = tiny_config(agent="reinforce", ranker="softmax", baseline_decay=0.5)
    model = build_policy(cfg, generate_item_catalog(cfg.sim, 0), 0).model
    learner = ReinforceLearner(model, tiny_config(agent="reinforce", ranker="softmax"), None)
    assert learner.baseline.decay == model.cfg.baseline_decay == 0.5


def test_zero_training_steps_single_validation(artifacts, tmp_path):
    cfg = tiny_config(gems_ckpt=artifacts["gems"], training_steps=0)
    rec = train(cfg, seed=0, workdir=tmp_path)
    assert rec.validation_means == [rec.validation_means[0]]
    assert rec.best_checkpoint == 0
    assert len(rec.test_returns) == cfg.test_trajectories


def test_best_checkpoint_tie_goes_to_earliest(tmp_path, monkeypatch):
    planned = iter([1.0, 3.0, 3.0, 0.0])   # val rounds 0..2, then test

    def fake_rollout(policy, catalog, n, env_seed, rng, **kw):
        return np.full(n, next(planned))

    monkeypatch.setattr(slatelab.harness, "rollout_returns", fake_rollout)
    cfg = tiny_config(agent="none", ranker="random")
    rec = train(cfg, seed=0, workdir=tmp_path)
    assert rec.validation_means == [1.0, 3.0, 3.0]
    assert rec.best_checkpoint == 1


def test_update_every_gates_learning(artifacts, tmp_path):
    """With the update cadence beyond the horizon no update ever runs, so the
    best checkpoint holds the initial parameters, same as a zero-step run."""
    cfg_gated = tiny_config(gems_ckpt=artifacts["gems"], batch_size=8,
                            update_every=10**6)
    cfg_zero = tiny_config(gems_ckpt=artifacts["gems"], batch_size=8,
                           training_steps=0)
    a = train(cfg_gated, seed=2, workdir=tmp_path / "gated")
    b = train(cfg_zero, seed=2, workdir=tmp_path / "zero")
    assert a.test_returns == b.test_returns
    # sanity: per-turn updates do change the parameters
    cfg_live = tiny_config(gems_ckpt=artifacts["gems"], batch_size=8,
                           update_every=1)
    c = train(cfg_live, seed=2, workdir=tmp_path / "live")
    assert c.test_returns != a.test_returns


def test_wknn_and_topk_ideal_train(artifacts, tmp_path):
    cfg = tiny_config(ranker="wknn", wknn_source="mf", wknn_p=3,
                      mf_embeddings=artifacts["mf"], belief_item_source="mf",
                      training_steps=2)
    rec = train(cfg, seed=0, workdir=tmp_path / "wknn")
    assert np.isfinite(rec.test_returns).all()
    cfg = tiny_config(ranker="topk-ideal", belief_item_source="ideal",
                      training_steps=2)
    rec = train(cfg, seed=0, workdir=tmp_path / "ideal")
    assert np.isfinite(rec.test_returns).all()


def test_nan_loss_aborts_with_dump(artifacts, tmp_path, monkeypatch):
    cfg = tiny_config(gems_ckpt=artifacts["gems"], batch_size=4,
                      update_every=1, training_steps=1,
                      validation_trajectories=1, test_trajectories=1)
    real = slatelab.harness.build_policy

    def poisoned(cfg, catalog, seed):
        policy = real(cfg, catalog, seed)
        for name, param in policy.model.critic_store.items():
            if name.startswith("q1."):
                param.value[...] = np.nan
                break
        return policy

    monkeypatch.setattr(slatelab.harness, "build_policy", poisoned)
    with pytest.raises(NanLossError):
        train(cfg, seed=0, workdir=tmp_path)
    dump = json.loads((tmp_path / "nan-dump.json").read_text())
    assert dump and "trajectory" in dump[-1]


# -- evaluation ----------------------------------------------------------------


def test_evaluate_reproduces_test_stream(artifacts, tmp_path):
    cfg = tiny_config(gems_ckpt=artifacts["gems"])
    rec = train(cfg, seed=5, workdir=tmp_path)
    ckpt = tmp_path / f"ckpt-{rec.best_checkpoint:04d}.slk"
    returns = evaluate(ckpt, cfg, cfg.test_trajectories, seed=5)
    assert returns == rec.test_returns


def test_evaluate_does_not_mutate_checkpoint(artifacts, tmp_path):
    cfg = tiny_config(gems_ckpt=artifacts["gems"], training_steps=0)
    train(cfg, seed=1, workdir=tmp_path)
    ckpt = tmp_path / "ckpt-0000.slk"
    before = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    evaluate(ckpt, cfg, 2, seed=9)
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == before


@pytest.mark.parametrize("ranker", ["wknn", "topk-mf"])
def test_restored_sac_policy_needs_the_gems_checkpoint_only_to_decode(artifacts, tmp_path,
                                                                      ranker):
    # the restored belief table comes from the agent checkpoint itself
    gems = tmp_path / "gems.slk"
    gems.write_bytes(open(artifacts["gems"], "rb").read())
    cfg = tiny_config(ranker=ranker, gems_ckpt=gems, mf_embeddings=artifacts["mf"])
    rec = train(cfg, seed=2, workdir=tmp_path)
    ckpt = tmp_path / f"ckpt-{rec.best_checkpoint:04d}.slk"
    with_gems = evaluate(ckpt, cfg, 3, seed=4)
    gems.unlink()
    assert evaluate(ckpt, cfg, 3, seed=4) == with_gems
    with pytest.raises(FileNotFoundError, match="gems checkpoint"):
        build_policy(cfg, generate_item_catalog(cfg.sim, cfg.catalog_seed), 0)


def test_evaluate_diagnostics_csv(artifacts, tmp_path):
    cfg = tiny_config(gems_ckpt=artifacts["gems"], training_steps=0)
    train(cfg, seed=1, workdir=tmp_path)
    out = tmp_path / "diag.csv"
    n = 2
    evaluate(tmp_path / "ckpt-0000.slk", cfg, n, seed=0, diagnostics_path=out)
    lines = out.read_text().splitlines()
    k, horizon = cfg.sim.slate_size, cfg.sim.episode_length
    assert lines[0] == "trajectory,turn,slot,item,relevance,bored_topics"
    assert len(lines) == 1 + n * horizon * k
    for line in lines[1:]:
        traj, turn, slot, item, rel, bored = line.split(",")
        assert 0 <= int(item) < cfg.sim.num_items
        assert 0.0 < float(rel) < 1.0
        assert int(bored) >= 0


def test_static_evaluate_needs_no_checkpoint(tmp_path):
    cfg = tiny_config(agent="none", ranker="random")
    returns = evaluate("", cfg, 3, seed=0)
    assert len(returns) == 3
    assert evaluate("", cfg, 3, seed=0) == returns


# -- rollout distribution -------------------------------------------------------


def test_random_policy_matches_analytic_return():
    """Frozen user (no drift, no boredom): uniform random slates give expected
    return T * mean(attractiveness) * sum(examination), exactly computable
    per user."""
    cfg = tiny_config(agent="none", ranker="random")
    cfg.sim.omega = 1.0                  # clicks no longer move the user
    cfg.sim.boredom_threshold = 10**6    # boredom never triggers
    cfg.sim.episode_length = 20
    catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
    policy = build_policy(cfg, catalog, seed=0)

    n = 150
    seeds = [5000 + i for i in range(n)]
    returns = rollout_returns(policy, catalog, n, lambda i: seeds[i],
                              np.random.default_rng(1))

    exam_sum = examination_vector(cfg.sim).sum()
    expected = np.empty(n)
    for i, s in enumerate(seeds):
        env = Environment(cfg.sim, catalog, disclosed=True)
        env.reset([s])
        attr = env.disclosed_relevance()
        expected[i] = cfg.sim.episode_length * attr.mean() * exam_sum

    resid = returns - expected
    se = resid.std(ddof=1) / np.sqrt(n)
    assert abs(resid.mean()) < 3.0 * se + 1e-12
