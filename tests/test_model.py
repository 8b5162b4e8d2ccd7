"""Model forward against the independent re-derivation, plus structural
invariants: the one-position shift, single-pass equivalences, information
flow through the loop chain, parameter and FLOP accounting, checkpoints."""

import json
import struct

import numpy as np
import pytest

from parloop.checkpoint import load_checkpoint, save_checkpoint
from parloop.decode import prefill
from parloop.errors import CapacityError, CheckpointError, ConfigError, EmptyInputError
from parloop.model import (
    ModelConfig,
    count_flops_per_token,
    count_params_from_config,
    forward,
    init_parameters,
    param_shapes,
    shift_right,
)
from parloop.tasks import make_task
from parloop.tensor import Rng, Tensor, cross_entropy
from parloop.train import TrainConfig, train

from reference_impl import ref_forward, weights_of


def small(**kw):
    base = dict(vocab=17, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
                d_ff=24, max_seq=32)
    base.update(kw)
    return ModelConfig(**base)


def logits_of(cfg, tokens, seed=3):
    params = init_parameters(cfg, seed)
    return forward(params, tokens).data[0], params


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            small(d_model=15)

    def test_kv_head_divisibility(self):
        with pytest.raises(ConfigError):
            small(n_kv_heads=3)

    def test_vanilla_must_be_single_pass(self):
        with pytest.raises(ConfigError):
            small(mode="vanilla", loops=2)

    def test_gating_needs_window(self):
        with pytest.raises(ConfigError):
            small(mode="plt", loops=2, gswa=True, window=0)

    def test_gating_needs_plt(self):
        with pytest.raises(ConfigError):
            small(mode="vanilla_loop", loops=2, gswa=True, window=4)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            small(mode="recurrent")

    def test_defaults_inferred(self):
        cfg = ModelConfig(vocab=10, d_model=8, n_layers=1, n_heads=2)
        assert cfg.n_kv_heads == 2
        assert cfg.d_ff == 32
        assert (cfg.cache_loops, cfg.window_loops) == (1, 0)
        plt = ModelConfig(vocab=10, d_model=8, n_layers=1, n_heads=2,
                          loops=2, mode="plt")
        assert (plt.cache_loops, plt.window_loops) == (1, 0)   # loop 2 reads loop 1's cache


class TestAgainstReference:
    @pytest.mark.parametrize("cfg_kw", [
        dict(mode="vanilla"),
        dict(mode="vanilla_loop", loops=3),
        dict(mode="plt", loops=2),
        dict(mode="plt", loops=3, gswa=True, window=3),
        dict(mode="plt", loops=3, gswa=True, window=2, per_loop_gates=True),
        dict(mode="plt", loops=2, gswa=True, window=4, n_kv_heads=4),
        dict(mode="plt", loops=2, weight_tying=False),
    ])
    def test_forward_matches(self, cfg_kw):
        cfg = small(**cfg_kw)
        params = init_parameters(cfg, seed=5)
        tokens = np.random.default_rng(1).integers(0, cfg.vocab, size=7)
        got = forward(params, tokens).data[0]
        want = ref_forward(weights_of(params), cfg, tokens)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_batched_rows_match_unbatched(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=3)
        params = init_parameters(cfg, seed=9)
        rng = np.random.default_rng(2)
        batch = rng.integers(0, cfg.vocab, size=(3, 6))
        got = forward(params, batch).data
        for r in range(3):
            single = forward(params, batch[r]).data[0]
            assert np.max(np.abs(got[r] - single)) < 1e-12


class TestShift:
    def test_zero_then_rows(self):
        h = Tensor(np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4))
        s = shift_right(h).data
        assert np.array_equal(s[:, 0], np.zeros((2, 4)))
        assert np.array_equal(s[:, 1:], h.data[:, :-1])

    def test_length_one_is_all_zero(self):
        s = shift_right(Tensor(np.ones((1, 1, 4))))
        assert np.array_equal(s.data, np.zeros((1, 1, 4)))

    def test_gradient_drops_last_row(self):
        h = Tensor(np.random.default_rng(0).normal(size=(1, 3, 2)),
                   requires_grad=True)
        (shift_right(h) * shift_right(h)).sum().backward()
        assert np.allclose(h.grad[:, -1], 0.0)
        assert not np.allclose(h.grad[:, 0], 0.0)


class TestSinglePassEquivalences:
    def test_plt_single_loop_equals_vanilla_bitwise(self):
        tokens = np.arange(8) % 13
        la, _ = logits_of(small(mode="vanilla", vocab=13), tokens)
        lb, _ = logits_of(small(mode="plt", loops=1, vocab=13), tokens)
        assert np.array_equal(la, lb)

    def test_loop_single_equals_vanilla_bitwise(self):
        tokens = np.arange(8) % 13
        la, _ = logits_of(small(mode="vanilla", vocab=13), tokens)
        lb, _ = logits_of(small(mode="vanilla_loop", loops=1, vocab=13), tokens)
        assert np.array_equal(la, lb)

    def test_gate_forced_shut_equals_sharing_only(self):
        cfg_g = small(mode="plt", loops=3, gswa=True, window=4)
        params_g = init_parameters(cfg_g, seed=7)
        for layer in params_g.layers:
            layer.gate_bias.data[:] = -np.inf
            layer.gate_weight.data[:] = 0.0
        cfg_p = small(mode="plt", loops=3)
        params_p = init_parameters(cfg_p, seed=7)
        for (na, ta) in params_g.named_tensors().items():
            if ".gate_" in na:
                continue
            params_p.named_tensors()[na].data = ta.data.copy()
        tokens = np.arange(9) % 17
        a = forward(params_g, tokens).data
        b = forward(params_p, tokens).data
        assert np.max(np.abs(a - b)) < 1e-15


class TestWindowPastMaxSeq:
    def test_a_window_past_max_seq_runs_as_max_seq_bitwise(self):
        # no key lies more than max_seq positions back, so both see every key
        task = make_task("copy", src_len=3, symbols=5)
        tokens = np.arange(12) % task.vocab
        runs = []
        for window in (12, 10**20):
            cfg = small(mode="plt", loops=3, gswa=True, per_loop_gates=True, window=window,
                        vocab=task.vocab, max_seq=12)
            params = init_parameters(cfg, seed=4)
            out = [forward(params.arrays(), tokens)]
            sess = prefill(params, tokens[:7])
            out += [sess.step(int(t)) for t in tokens[7:]]
            out.append(train(params, task, TrainConfig(steps=2, batch_size=4)).losses)
            runs.append(out)
        for x, y in zip(*runs, strict=True):
            assert np.array_equal(x, y)


class TestLoopChainReach:
    """With no attention layers the only cross-position path is the shift,
    so a token's influence travels exactly one position per extra loop."""

    def test_three_loops_reach_two_positions_back(self):
        cfg = ModelConfig(vocab=11, d_model=8, n_layers=0, n_heads=2,
                          loops=3, mode="plt", max_seq=16)
        params = init_parameters(cfg, seed=1)
        base = np.array([1, 2, 3, 4, 5, 6])
        bumped = base.copy()
        bumped[0] = 7
        la = forward(params, base).data[0]
        lb = forward(params, bumped).data[0]
        assert np.max(np.abs(la[2] - lb[2])) > 1e-8   # reached by the chain
        assert np.array_equal(la[3], lb[3])           # beyond its reach
        assert np.array_equal(la[4:], lb[4:])

    def test_single_loop_is_positionwise(self):
        cfg = ModelConfig(vocab=11, d_model=8, n_layers=0, n_heads=2,
                          loops=1, mode="plt", max_seq=16)
        params = init_parameters(cfg, seed=1)
        la = forward(params, np.array([1, 2, 3])).data[0]
        lb = forward(params, np.array([9, 2, 3])).data[0]
        assert not np.array_equal(la[0], lb[0])
        assert np.array_equal(la[1:], lb[1:])


class TestInputValidation:
    def test_empty_sequence_rejected(self):
        params = init_parameters(small(), seed=0)
        with pytest.raises(EmptyInputError):
            forward(params, np.zeros((1, 0), dtype=int))

    def test_too_long_rejected(self):
        params = init_parameters(small(max_seq=4), seed=0)
        with pytest.raises(CapacityError):
            forward(params, np.arange(5))


LAYOUTS = [
    dict(mode="vanilla"),
    dict(mode="plt", loops=3, gswa=True, window=4),
    dict(mode="plt", loops=2, gswa=True, window=4, per_loop_gates=True),
    dict(mode="vanilla_loop", loops=2, weight_tying=False),
    dict(mode="vanilla_loop", loops=2),
    dict(mode="plt", loops=3, gswa=True, window=4, per_loop_gates=True),
    dict(mode="plt", loops=2, gswa=True, window=4, n_layers=0),
    dict(mode="plt", loops=3, gswa=True, window=4, per_loop_gates=True,
         weight_tying=False, n_layers=3),
]


class TestAccounting:
    @pytest.mark.parametrize("cfg_kw", LAYOUTS)
    def test_config_count_matches_allocation(self, cfg_kw):
        cfg = small(**cfg_kw)
        sizes = [t.size for t in init_parameters(cfg, 0).named_tensors().values()]
        assert count_params_from_config(cfg) == sum(sizes)

    @pytest.mark.parametrize("cfg_kw", LAYOUTS)
    def test_shape_table_names_every_tensor_in_order(self, cfg_kw):
        cfg = small(**cfg_kw)
        named = init_parameters(cfg, 0).named_tensors()
        assert list(param_shapes(cfg).items()) == [(n, t.shape) for n, t in named.items()]

    def test_flops_hand_counted_vanilla(self):
        cfg = ModelConfig(vocab=10, d_model=8, n_layers=1, n_heads=2,
                          n_kv_heads=2, d_ff=16, max_seq=64)
        c = count_flops_per_token(cfg, context=5)
        assert c["projections"] == 2 * 8 * 8 * 2 + 2 * 8 * 8 * 2
        assert c["attention"] == 4 * 5 * 2 * 4
        assert c["mlp"] == 6 * 8 * 16
        assert c["head"] == 2 * 8 * 10
        assert c["gate"] == 0
        assert c["total"] == sum(v for k, v in c.items() if k != "total")

    def test_loop_multiplies_block_work_exactly(self):
        base = small(mode="vanilla")
        looped = small(mode="vanilla_loop", loops=3)
        a = count_flops_per_token(base, context=16)
        b = count_flops_per_token(looped, context=16)
        assert b["total"] - b["head"] == 3 * (a["total"] - a["head"])
        assert a["head"] == b["head"]

    def test_sharing_skips_private_projections(self):
        shared = count_flops_per_token(small(mode="plt", loops=2), context=16)
        looped = count_flops_per_token(small(mode="vanilla_loop", loops=2), context=16)
        assert shared["projections"] < looped["projections"]
        assert shared["attention"] == looped["attention"]

    def test_window_attention_is_capped_by_context(self):
        cfg = small(mode="plt", loops=2, gswa=True, window=8)
        a = count_flops_per_token(cfg, context=4)["attention"]
        b = count_flops_per_token(small(mode="plt", loops=2), context=4)["attention"]
        # per layer: 4 * min(window, context) * heads * d_head, two layers
        assert a == b + 2 * (4 * 4 * 4 * 4)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = small(mode="plt", loops=2, gswa=True, window=3, weight_tying=False)
        params = init_parameters(cfg, seed=42)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"step": 7})
        loaded, extra = load_checkpoint(path)
        assert extra == {"step": 7}
        assert loaded.config == cfg
        for name, t in params.named_tensors().items():
            assert np.array_equal(t.data, loaded.named_tensors()[name].data), name
        tokens = np.arange(6)
        assert np.array_equal(forward(params, tokens).data,
                              forward(loaded, tokens).data)

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        params = init_parameters(small(mode="plt", loops=2, gswa=True, window=3), seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(Rng, "normal", refuse)
        loaded, _ = load_checkpoint(path)
        for name, t in params.named_tensors().items():
            assert np.array_equal(t.data, loaded.named_tensors()[name].data), name

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = small()
        params = init_parameters(cfg, seed=0)
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, params)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("corrupt, match", [   # match: what the error names
        pytest.param(lambda m: m.update(dtype="float99"), "dtype 'float99'",
                     id="bad-dtype-string"),
        pytest.param(lambda m: m["tensors"][0].pop("offset"), "entry 0 is .*'embedding'",
                     id="missing-offset"),
        pytest.param(lambda m: m["tensors"][1].update(offset=-8), "entry 1 is .*'offset': -8",
                     id="negative-offset"),
        pytest.param(lambda m: m.update(tensors=7), "'tensors' is not a list",
                     id="tensors-not-a-list"),
        pytest.param(lambda m: [1, 2], "not a JSON object", id="manifest-not-an-object"),
        pytest.param(lambda m: m.update(dtype="int8"), "dtype 'int8'", id="int8-dtype"),
        pytest.param(lambda m: m["config"].update(rope_theta=500.0),
                     "bad config in manifest.*'rope_theta'", id="other-rope-theta"),
        pytest.param(lambda m: m["config"].update(norm_eps=1e-5),
                     "bad config in manifest.*'norm_eps'", id="other-norm-eps"),
        pytest.param(lambda m: m["tensors"].insert(2, m["tensors"][-1]),
                     "entry 2 is .*'final_norm'.*implies .*'layers.0.wq'",
                     id="entry-out-of-place"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, corrupt, match):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, init_parameters(small(), seed=0))
        data = p.read_bytes()
        (mlen,) = struct.unpack("<Q", data[8:16])
        manifest = json.loads(data[16:16 + mlen])
        manifest = corrupt(manifest) or manifest
        blob = json.dumps(manifest).encode()
        p.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + mlen:])
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(p)


class TestInitialization:
    def test_same_seed_same_weights(self):
        cfg = small(mode="plt", loops=2, gswa=True, window=3)
        a = init_parameters(cfg, seed=11)
        b = init_parameters(cfg, seed=11)
        for name, t in a.named_tensors().items():
            assert np.array_equal(t.data, b.named_tensors()[name].data)

    def test_stacked_gates_keep_the_per_gate_draw_order(self):
        # one [G, d, h] draw equals the G sequential [d, h] draws made when
        # each loop's gate was its own tensor
        cfg = small(mode="plt", loops=3, gswa=True, window=3, per_loop_gates=True,
                    weight_tying=False)
        d, kv, ff = cfg.d_model, cfg.n_kv_heads * cfg.d_head, cfg.d_ff
        rng = Rng(4)

        def draw(*shape):
            return rng.normal(shape, 0.02)

        want = {"embedding": draw(cfg.vocab, d)}
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            for name, shape in (("wq", (d, d)), ("wk", (d, kv)), ("wv", (d, kv)), ("wo", (d, d))):
                want[p + name] = draw(*shape)
            want[p + "gate_weight"] = np.stack([draw(d, cfg.n_heads), draw(d, cfg.n_heads)])
            for name, shape in (("w_gate", (d, ff)), ("w_up", (d, ff)), ("w_down", (ff, d))):
                want[p + name] = draw(*shape)
        want["head"] = draw(d, cfg.vocab)
        got = init_parameters(cfg, seed=4).named_tensors()
        for name, w in want.items():
            assert np.array_equal(got[name].data, w), name
        assert all(np.array_equal(t.data, np.zeros(t.shape)) for n, t in got.items()
                   if n.endswith("gate_bias"))

    def test_fresh_model_loss_near_uniform(self):
        cfg = small(vocab=50, mode="plt", loops=2, gswa=True, window=4)
        params = init_parameters(cfg, seed=0)
        tokens = np.random.default_rng(0).integers(0, 50, size=(4, 16))
        logits = forward(params, tokens[:, :-1])
        loss = cross_entropy(logits, tokens[:, 1:])
        assert abs(loss.item() - np.log(50)) < 0.2
