"""Each wiring's caches follow two numbers of its config: ``cache_loops``,
the loops that keep a full key/value cache of their own, and
``window_loops``, the loops that keep a gated window ring. The session,
the parameter layout, the entry and FLOP counts and the cost model's cache
bytes must all agree with them, for every mode, loop count and gate
layout."""

from itertools import product

import numpy as np
import pytest

from parloop.costmodel import decode_step_cost, default_profile, variant_config
from parloop.decode import prefill
from parloop.model import ModelConfig, count_flops_per_token, init_parameters, param_shapes

PROMPT, STEPS = 5, 2   # the session ends at position 7, past the window of 3

# the valid (mode, loops, gswa, per_loop_gates): vanilla is single-pass, and
# gates need plt's window path
WIRINGS = [(mode, loops, gswa, per_loop)
           for mode, loops, gswa, per_loop in product(("vanilla", "vanilla_loop", "plt"),
                                                       (1, 2, 3), (False, True), (False, True))
           if not (mode == "vanilla" and loops > 1) and not (gswa and mode != "plt")
           and not (per_loop and not gswa)]

# the cost-model row whose projection of a config is the config itself
ARCH = {("vanilla", False): "vanilla", ("vanilla_loop", False): "loop",
        ("plt", False): "loop_clp_kvshare", ("plt", True): "plt"}


def config(mode, loops, gswa, per_loop):
    return ModelConfig(vocab=11, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=24,
                       window=3, max_seq=16, mode=mode, loops=loops, gswa=gswa,
                       per_loop_gates=per_loop)


@pytest.fixture(params=WIRINGS, ids=["-".join(map(str, w)) for w in WIRINGS])
def wiring(request):
    cfg = config(*request.param)
    sess = prefill(init_parameters(cfg, 0), np.arange(PROMPT) % cfg.vocab)
    for t in range(STEPS):
        sess.step(t)
    return cfg, sess


def test_the_two_numbers():
    got = {w: (config(*w).cache_loops, config(*w).window_loops) for w in WIRINGS}
    want = {(mode, loops, gswa, per_loop): (loops if mode == "vanilla_loop" else 1,
                                            loops - 1 if gswa else 0)
            for mode, loops, gswa, per_loop in WIRINGS}
    assert got == want
    assert len(WIRINGS) == 13 and ("plt", 1, True, False) in WIRINGS


def test_session_caches_and_rings(wiring):
    cfg, sess = wiring
    assert len(sess.caches) == cfg.cache_loops
    for caches in sess.caches:   # one store per layer, like the rings
        assert [c.k.shape for c in caches] == \
            [(cfg.n_kv_heads, cfg.max_seq, cfg.d_head)] * cfg.n_layers
    assert len(sess.rings) == (cfg.n_layers if cfg.window_loops else 0)
    for ring in sess.rings:
        assert ring.k.shape[:2] == (cfg.window_loops, cfg.n_kv_heads)
    assert len(sess.inflight) == cfg.loops // cfg.cache_loops - 1
    assert sess.passes == STEPS * cfg.cache_loops


def test_gate_count(wiring):
    cfg, _ = wiring
    shapes = param_shapes(cfg)
    if not cfg.window_loops:
        assert not any("gate_" in name for name in shapes)
        return
    gates = cfg.window_loops if cfg.per_loop_gates else 1
    for i in range(cfg.n_layers):
        assert shapes[f"layers.{i}.gate_weight"] == (gates, cfg.d_model, cfg.n_heads)
        assert shapes[f"layers.{i}.gate_bias"] == (gates, cfg.n_heads)


def test_kv_entry_count(wiring):
    cfg, sess = wiring
    n = sess.position
    counts = sess.kv_entry_count()
    assert counts["window"] == cfg.n_layers * cfg.window_loops * min(cfg.window, n)
    assert counts["shared"] + counts["per_loop"] == cfg.n_layers * cfg.cache_loops * n
    assert counts["total"] == counts["shared"] + counts["per_loop"] + counts["window"]


def test_flop_terms(wiring):
    cfg, sess = wiring
    n = sess.position
    d, kv, h, dh = cfg.d_model, cfg.n_kv_heads * cfg.d_head, cfg.n_heads, cfg.d_head
    w = min(cfg.window, n)
    c = count_flops_per_token(cfg, n)
    assert c["projections"] == cfg.n_layers * (
        cfg.loops * 4 * d * d + (cfg.cache_loops + cfg.window_loops) * 4 * d * kv)
    assert c["attention"] == cfg.n_layers * (cfg.loops * 4 * n * h * dh
                                             + cfg.window_loops * 4 * w * h * dh)
    assert c["gate"] == cfg.n_layers * cfg.window_loops * 2 * d * h


@pytest.mark.parametrize("batch", (1, 3))
def test_cost_model_kv_bytes(wiring, batch):
    cfg, sess = wiring
    profile = default_profile()
    n = sess.position
    arch = ARCH[cfg.mode, cfg.gswa]
    assert variant_config(cfg, arch) == cfg
    per_entry = profile.kv_bytes_per_entry * cfg.n_layers
    c = decode_step_cost(arch, cfg, profile, batch, n)
    assert c.kv_bytes == batch * per_entry * (cfg.cache_loops * n
                                              + cfg.window_loops * min(cfg.window, n))
    assert c.kv_bytes == batch * sess.kv_entry_count()["total"] * profile.kv_bytes_per_entry
