"""The ten acceptance criteria, one test and one reported line per criterion.

Each test computes its measurement against an independent oracle (finite
differences, the straight-line numpy model in reference_impl, exact
counting), records a single pass/FAIL line carrying the pinned tolerance
and the measured value, then asserts. The lines are echoed in the pytest
terminal summary by conftest.py.
"""

import time

import numpy as np

from acceptance_report import record
from reference_impl import ref_forward, weights_of

from parloop.attention import gate_values
from parloop.checkpoint import save_checkpoint
from parloop.costmodel import (decode_step_cost, default_profile,
                               latency_ratio, standin_config)
from parloop.decode import prefill
from parloop.gradcheck import grad_check
from parloop.model import ModelConfig, forward, init_parameters
from parloop.tasks import cross_entropy_loss, make_task
from parloop.tensor import Rng, Tensor, no_grad
from parloop.train import TrainConfig, train


def model_pool(seed: int, count: int) -> list:
    """Deterministic spread of wirings: parallel, serial loop, plain."""
    rng = Rng(seed)
    modes = ["plt", "vanilla_loop", "plt", "vanilla", "plt"]
    cfgs = []
    for i in range(count):
        heads = 2 * int(rng.integers(1, 3))
        dh = 2 * int(rng.integers(2, 5))
        kv_options = sorted({k for k in (1, 2, heads) if heads % k == 0})
        mode = modes[i % len(modes)]
        loops = {"plt": 2 + i % 3, "vanilla_loop": 2 + i % 2, "vanilla": 1}[mode]
        gswa = mode == "plt" and i % 2 == 0
        cfgs.append(ModelConfig(
            vocab=11 + int(rng.integers(0, 6)),
            d_model=heads * dh,
            n_layers=0 if i == 3 else int(rng.integers(1, 3)),
            n_heads=heads,
            n_kv_heads=kv_options[int(rng.integers(0, len(kv_options)))],
            d_ff=3 * heads * dh // 2,
            mode=mode, loops=loops,
            gswa=gswa, window=2 + int(rng.integers(0, 4)) if gswa else 0,
            per_loop_gates=gswa and i % 4 == 0,
            weight_tying=i % 3 != 0,
            max_seq=48))
    return cfgs


def teacher_forcing_gap(params, rng: Rng, steps: int) -> float:
    """Worst |decode logits - full forward logits| over a token stream."""
    cfg = params.config
    n = steps + 4
    tokens = rng.integers(0, cfg.vocab, shape=n)
    with no_grad():
        full = forward(params, tokens).data[0]
    k = 3
    sess = prefill(params, tokens[:k])
    worst = float(np.abs(sess.last_logits - full[k - 1]).max())
    for i in range(k, n):
        out = sess.step(int(tokens[i]))
        worst = max(worst, float(np.abs(out - full[i]).max()))
    return worst


def test_c01_teacher_forcing_parity():
    t0 = time.perf_counter()
    rng = Rng(2026)
    n_models = 20
    worst = 0.0
    for i, cfg in enumerate(model_pool(7, n_models)):
        params = init_parameters(cfg, seed=100 + i)
        worst = max(worst, teacher_forcing_gap(params, rng, steps=7))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 60.0
    record(1, "teacher_forcing_parity", ok, "1e-9",
           f"max_err={worst:.3e} over {n_models} random models, {dt:.1f}s < 60s")
    assert ok


def test_c02_single_loop_collapses_to_vanilla():
    kw = dict(vocab=17, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
              d_ff=24, max_seq=32)
    pv = init_parameters(ModelConfig(mode="vanilla", loops=1, **kw), seed=5)
    pp = init_parameters(ModelConfig(mode="plt", loops=1, **kw), seed=5)
    rng = Rng(11)
    tokens = rng.integers(0, 17, shape=(2, 12))
    with no_grad():
        worst = float(np.abs(forward(pv, tokens).data
                             - forward(pp, tokens).data).max())
    sv, sp = prefill(pv, tokens[0, :4]), prefill(pp, tokens[0, :4])
    for t in tokens[0, 4:10]:
        worst = max(worst, float(np.abs(sv.step(int(t)) - sp.step(int(t))).max()))
    ok = worst < 1e-12
    record(2, "single_loop_equals_vanilla", ok, "1e-12",
           f"max_err={worst:.3e} (forward and 6 decode steps)")
    assert ok


def test_c03_causality_is_exact():
    rng = Rng(31)
    pool = [init_parameters(c, seed=50 + i)
            for i, c in enumerate(model_pool(13, 10))]
    trials = 100
    worst = 0.0
    for t in range(trials):
        params = pool[t % len(pool)]
        v = params.config.vocab
        n = 10
        toks = rng.integers(0, v, shape=n)
        j = 1 + int(rng.integers(0, n - 1))
        toks2 = toks.copy()
        toks2[j] = (toks2[j] + 1 + int(rng.integers(0, v - 1))) % v
        with no_grad():
            a = forward(params, toks).data[0]
            b = forward(params, toks2).data[0]
        worst = max(worst, float(np.abs(a[:j] - b[:j]).max()))
    ok = worst == 0.0
    record(3, "causality_exact", ok, "0",
           f"max_err={worst:.3e} over {trials} (model, position) perturbations")
    assert ok


def test_c04_gradients_match_finite_differences():
    t0 = time.perf_counter()
    cfg = ModelConfig(vocab=13, d_model=16, n_layers=1, n_heads=2,
                      n_kv_heads=1, d_ff=20, mode="plt", loops=3, gswa=True,
                      window=2, per_loop_gates=True, max_seq=16)
    params = init_parameters(cfg, seed=9)
    tokens = Rng(17).integers(0, 13, shape=(1, 8))

    def loss_fn():
        return cross_entropy_loss(forward(params, tokens), tokens)

    res = grad_check(loss_fn, dict(params.named_tensors()), h=1e-5, tol=1e-4,
                     max_coords=4, seed=0)
    dt = time.perf_counter() - t0
    ok = res.passed and dt < 120.0
    record(4, "gradients_vs_finite_diff", ok, "1e-4",
           f"max_rel_err={res.max_err:.3e} across {len(res.reports)} tensors "
           f"(3-loop gated model), {dt:.1f}s < 120s")
    assert ok, "\n" + res.summary()


def test_c05_gate_saturation_selects_pure_paths():
    # primitive level: the sigmoid must hit the limits exactly
    g = gate_values(Tensor(np.zeros((8, 2))), Tensor(np.array([np.inf, -np.inf])),
                    Tensor(np.ones((1, 3, 8)))).data
    exact = float(np.abs(g[..., 0, :, :] - 1.0).max()
                  + np.abs(g[..., 1, :, :]).max())

    cfg = ModelConfig(vocab=17, d_model=16, n_layers=2, n_heads=4,
                      n_kv_heads=2, d_ff=24, mode="plt", loops=2, gswa=True,
                      window=3, max_seq=32)
    params = init_parameters(cfg, seed=21)
    toks = Rng(33).integers(0, 17, shape=9)
    worst = exact
    for limit in (np.inf, -np.inf):
        for layer in params.layers:
            layer.gate_bias.data[:] = limit
        with no_grad():
            got = forward(params, toks).data[0]
        want = ref_forward(weights_of(params), cfg, toks)
        worst = max(worst, float(np.abs(got - want).max()))
        assert np.isfinite(got).all()
    # closed gate must equal the wiring with no window path at all
    share_cfg = ModelConfig(vocab=17, d_model=16, n_layers=2, n_heads=4,
                            n_kv_heads=2, d_ff=24, mode="plt", loops=2,
                            max_seq=32)
    share = init_parameters(share_cfg, seed=99)
    named = dict(params.named_tensors())
    for name, t in share.named_tensors().items():
        t.data[:] = named[name].data
    with no_grad():
        gated = forward(params, toks).data   # bias is still -inf here
        plain = forward(share, toks).data
    worst = max(worst, float(np.abs(gated - plain).max()))
    ok = worst < 1e-12
    record(5, "gate_limits_pure_paths", ok, "1e-12",
           f"max_err={worst:.3e} (exact saturation, +/-inf vs oracle, "
           f"closed gate = share-only wiring)")
    assert ok


def test_c06_cache_growth_matches_formulas():
    kw = dict(vocab=17, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
              d_ff=24, max_seq=64)
    rng = Rng(23)
    prompt = rng.integers(0, 17, shape=3)

    def run(cfg, steps=10):
        sess = prefill(init_parameters(cfg, seed=1), prompt)
        for _ in range(steps):
            sess.step(int(rng.integers(0, 17)))
        return sess.kv_entry_count()

    n = 13  # 3 prompt + 10 decoded
    c_v = run(ModelConfig(mode="vanilla", **kw))
    c_l = run(ModelConfig(mode="vanilla_loop", loops=3, **kw))
    c_p = run(ModelConfig(mode="plt", loops=2, gswa=True, window=4, **kw))
    exact = (c_v["total"] == 2 * n                      # n_layers * n
             and c_l["total"] == 3 * 2 * n              # loops * n_layers * n
             and c_p["total"] == 2 * n + 1 * 2 * 4)     # shared + rings

    cfg, prof = standin_config(), default_profile()
    ratio = (decode_step_cost("plt", cfg, prof, 1, 5000).kv_bytes
             / decode_step_cost("vanilla", cfg, prof, 1, 5000).kv_bytes)
    band = 1.010 <= ratio <= 1.020
    ok = exact and band
    record(6, "cache_growth_and_bytes", ok, "exact",
           f"entries v/l/p={c_v['total']}/{c_l['total']}/{c_p['total']} "
           f"(want 26/78/34), byte_ratio={ratio:.4f} in [1.010,1.020]")
    assert ok


def test_c07_roofline_ratio_bands():
    cfg, prof = standin_config(), default_profile()
    batches = (4, 8, 16, 32, 64)
    loop2 = [latency_ratio("loop", cfg, prof, b, 5000) for b in batches]
    plt2 = [latency_ratio("plt", cfg, prof, b, 5000) for b in batches]
    ok = (all(1.9 <= r <= 2.0 for r in loop2)
          and all(1.0 <= r <= 1.10 for r in plt2))
    record(7, "roofline_ratio_bands", ok, "band",
           f"loop2={min(loop2):.3f}..{max(loop2):.3f} in [1.90,2.00], "
           f"plt2={min(plt2):.3f}..{max(plt2):.3f} in [1.00,1.10], b=4..64")
    assert ok


def test_c08_pass_counters():
    kw = dict(vocab=17, d_model=16, n_layers=1, n_heads=2, d_ff=24,
              max_seq=64)
    rng = Rng(41)
    prompt = rng.integers(0, 17, shape=4)

    sp = prefill(init_parameters(
        ModelConfig(mode="plt", loops=3, gswa=True, window=4, **kw), seed=2),
        prompt)
    for _ in range(10):
        sp.step(int(rng.integers(0, 17)))
    sl = prefill(init_parameters(
        ModelConfig(mode="vanilla_loop", loops=3, **kw), seed=2), prompt)
    for _ in range(7):
        sl.step(int(rng.integers(0, 17)))

    ok = (sp.steps, sp.passes, sp.passes_per_token) == (10, 10, 1.0) \
        and (sl.steps, sl.passes, sl.passes_per_token) == (7, 21, 3.0)
    record(8, "decode_pass_counters", ok, "exact",
           f"plt-3: {sp.passes} passes / {sp.steps} tokens, "
           f"serial loop-3: {sl.passes} passes / {sl.steps} tokens")
    assert ok


def test_c09_training_converges_within_budget():
    t0 = time.perf_counter()
    task = make_task("copy", src_len=8, symbols=16)
    kw = dict(vocab=task.vocab, d_model=64, n_layers=2, n_heads=4, d_ff=128,
              max_seq=32)
    tcfg = TrainConfig(steps=300, batch_size=32, lr=3e-3, warmup_steps=20,
                       seed=0)
    variants = {
        "vanilla": ModelConfig(mode="vanilla", **kw),
        "loop2": ModelConfig(mode="vanilla_loop", loops=2, **kw),
        "plt2": ModelConfig(mode="plt", loops=2, gswa=True, window=4, **kw),
    }
    best = {}
    for label, cfg in variants.items():
        result = train(init_parameters(cfg, seed=0), task, tcfg)
        best[label] = min(result.losses)
    dt = time.perf_counter() - t0
    ok = (best["vanilla"] < 0.1 and best["loop2"] < 0.5 and best["plt2"] < 0.5
          and all(np.isfinite(v) for v in best.values()) and dt < 600.0)
    record(9, "copy_task_convergence", ok, "0.1",
           f"min_loss vanilla={best['vanilla']:.4f} (<0.1) "
           f"loop2={best['loop2']:.4f} plt2={best['plt2']:.4f} (<0.5), "
           f"{dt:.0f}s < 600s")
    assert ok


def test_c10_identical_seeds_identical_artifacts(tmp_path):
    task = make_task("copy", src_len=4, symbols=8)
    cfg = ModelConfig(vocab=task.vocab, d_model=16, n_layers=1, n_heads=2,
                      d_ff=32, mode="plt", loops=2, gswa=True, window=4,
                      max_seq=16)
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        params = init_parameters(cfg, seed=3)
        result = train(params, task, TrainConfig(steps=30, batch_size=16, seed=3))
        (d / "loss.csv").write_text(result.log_csv())
        save_checkpoint(d / "model.ckpt", params,   # as `parloop train` writes it
                        extra={"steps": 30, "final_loss": result.final_loss, "seed": 3})
        blobs.append(((d / "model.ckpt").read_bytes(),
                      (d / "loss.csv").read_bytes()))
    ok = blobs[0] == blobs[1]
    record(10, "bitwise_reproducibility", ok, "exact",
           f"checkpoint {len(blobs[0][0])} bytes and loss log "
           f"{len(blobs[0][1])} bytes identical across reruns")
    assert ok
