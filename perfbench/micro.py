"""Micro-timings of each layer at the sizes the workloads really use.

Batch 1 is the closed loop of tpo, 750 rows the teacher-forced replay of the
15 fitted episodes (15 x 50 steps), 50,000 rows the datagen dataset (50
parameter sets x 1,000 steps), 256 the surrogate's minibatch. Every input is
drawn from the benchmark seed. Each figure is the median over REPEATS timed
repetitions of the per-call time.
"""

import copy
import statistics
import time

import numpy as np

from armcal import datagen, identify, plant, serialize, surrogate, tpo

REPEATS = 3


def per_call(fn, calls=1, repeats=REPEATS):
    """Median over repeats of the mean wall time of one of `calls` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _batch(rng, b, n=2):
    return (np.ascontiguousarray(rng.uniform(-1.0, 1.0, (b, n))),
            np.ascontiguousarray(rng.uniform(-0.5, 0.5, (b, n))),
            np.ascontiguousarray(rng.uniform(-np.pi, np.pi, (b, n))))


def run(seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1 << 20])
    cfg = plant.PlantConfig()
    bounds = plant.ParamBounds()
    lows, highs = bounds.lows(), bounds.highs()
    truth = plant.PhysParams.from_array(lows + (0.15 + 0.7 * rng.random(3)) * (highs - lows))
    ep_seed, set_seed, anneal_seed, model_seed, tpo_seed = (
        int(s) for s in rng.integers(2 ** 31, size=5))
    m = {}

    # datagen at the CLI defaults: 20 episodes x 50 steps, 50 parameter sets
    m["datagen.make_synthetic_real.s"] = per_call(
        lambda: datagen.make_synthetic_real(truth, 20, 50, cfg, ep_seed))
    episodes = datagen.make_synthetic_real(truth, 20, 50, cfg, ep_seed)
    fit = datagen.EpisodeSet(episodes.episodes[:15], episodes.source)
    held = datagen.EpisodeSet(episodes.episodes[15:], episodes.source)
    param_sets = datagen.sample_params(50, bounds, set_seed)
    m["datagen.generate_transition_arrays.s"] = per_call(
        lambda: datagen.generate_transition_arrays(episodes, param_sets, cfg))
    rows = datagen.generate_transition_arrays(episodes, param_sets, cfg)

    # the batched kernel, advancing its inputs in place
    for b, name, scale, calls in ((1, "b1_us", 1e6, 1000), (750, "b750_us", 1e6, 100),
                                  (50_000, "b50000_ms", 1e3, 3)):
        q, qd, target = _batch(rng, b)
        fpd = np.ascontiguousarray(rows[rng.integers(len(rows), size=b), :3])
        m[f"plant.step_batch.{name}"] = scale * per_call(
            lambda: plant.step_batch(fpd, q, qd, target, cfg), calls)
    q, qd, target = _batch(rng, 750)
    fpd = np.broadcast_to(truth.as_array(), (750, 3))
    m["plant.step_batch_sensitivities.b750_us"] = 1e6 * per_call(
        lambda: plant.step_batch_sensitivities(fpd, q, qd, target, cfg), 20)

    # identification on the 15 fitted episodes
    energy = identify.make_replay_energy(fit, cfg)
    mid = (lows + highs) / 2.0
    m["identify.replay_energy.us"] = 1e6 * per_call(lambda: energy(mid), 50)
    anneal_cfg = identify.AnnealConfig(seed=anneal_seed, bounds=bounds)
    m["identify.anneal_params.s"] = per_call(
        lambda: identify.anneal_params(fit, anneal_cfg, cfg))
    m["identify.gauss_newton_params.s"] = per_call(
        lambda: identify.gauss_newton_params(fit, bounds, cfg))
    m["identify.evaluate_params.s"] = per_call(
        lambda: identify.evaluate_params(truth, held, cfg))

    # the surrogate: an initialised (untrained) network of the default width
    stats = datagen.compute_norm_stats(rows)
    model = surrogate.init(surrogate.default_layer_dims(2), model_seed,
                           norm_stats=stats, bounds=bounds)
    X = rng.normal(size=(256, model.layer_dims[0]))
    Y = rng.normal(size=(256, model.layer_dims[-1]))
    m["surrogate.backprop.b256_ms"] = 1e3 * per_call(
        lambda: surrogate.backprop(model, X, Y), 50)
    fq, fqd, facts, fnq, fnqd = datagen.episode_arrays(fit)
    state_sa, next_raw = np.hstack([fq, fqd, facts]), np.hstack([fnq, fnqd])
    m["surrogate.param_loss_and_grad.ms"] = 1e3 * per_call(
        lambda: surrogate.param_loss_and_grad(model, mid, state_sa, next_raw), 20)
    one_epoch = surrogate.TrainConfig(max_epochs=1, seed=model_seed)
    m["surrogate.epoch_ms"] = 1e3 * per_call(
        lambda: surrogate.train(copy.deepcopy(model), rows, one_epoch))
    # 100 refinement steps from the best sampled start; the early stop is off
    # so that every call does the same work
    refine_cfg = identify.RefineConfig(max_steps=100, convergence_tol=0.0,
                                       bounds=bounds)
    m["identify.refine_params.s"] = per_call(
        lambda: identify.refine_params(model, fit, refine_cfg, param_sets))

    # serialization of the artifacts the workloads write and read
    path = workdir / "micro_dataset.jsonl"
    m["serialize.write_dataset.s"] = per_call(
        lambda: serialize.write_dataset(path, rows, 2))
    m["serialize.dataset_mb"] = path.stat().st_size / 1e6
    m["serialize.read_dataset.s"] = per_call(lambda: serialize.read_dataset(path))
    path.unlink()
    doc = serialize.episodes_to_json(episodes)
    m["serialize.episodes_from_json.s"] = per_call(
        lambda: serialize.episodes_from_json(doc))
    ckpt = workdir / "micro_checkpoint.json"

    def checkpoint_io():
        serialize.dump_json(serialize.checkpoint_to_json(model), ckpt)
        serialize.checkpoint_from_json(serialize.load_json(ckpt))

    m["serialize.checkpoint_io.s"] = per_call(checkpoint_io)
    ckpt.unlink()

    # the closed loop: one 25-step rollout, one policy forward, one
    # preference-loss call over the 25 pairs of a 100-rollout batch
    policy = tpo.init_policy(2, seed=tpo_seed)
    goal = np.array([1.2, 0.8])
    roll_rng = np.random.default_rng(tpo_seed)
    m["tpo.rollout_policy.ms"] = 1e3 * per_call(
        lambda: tpo.rollout_policy(policy, truth, goal, cfg, 25, roll_rng), 10)
    obs = rng.normal(size=(1, policy.layer_dims[0]))
    m["tpo.policy_means.b1_us"] = 1e6 * per_call(
        lambda: tpo.policy_means(policy, obs), 1000)
    batch = [tpo.rollout_policy(policy, truth, goal, cfg, 25, roll_rng)
             for _ in range(100)]
    pairs = tpo.rank_and_pair(batch, 25)
    reference = copy.deepcopy(policy)
    m["tpo.tpo_loss.ms"] = 1e3 * per_call(
        lambda: tpo.tpo_loss(policy, reference, pairs, 0.1), 5)
    return m
