"""Tasks, optimizer mechanics, schedule shape, and loop determinism."""

import importlib
import math

import numpy as np
import pytest

from parloop.checkpoint import load_checkpoint, save_checkpoint
from parloop.errors import CapacityError, ConfigError, DivergenceError, NumericError
from parloop.model import ModelConfig, forward, init_parameters, prefill_table
from parloop.tasks import cross_entropy_loss, eval_accuracy, make_task, scored_rows
from parloop.tensor import Rng, Tensor, cross_entropy
from parloop.train import (
    BETA1,
    BETA2,
    EPS,
    PROBE_STEPS,
    Adam,
    TrainConfig,
    ablation_run,
    clip_global_norm,
    format_ablation,
    ladder_config,
    lr_at,
    scored_loss,
    train,
)


class TestTasks:
    def test_copy_layout_and_mask(self):
        task = make_task("copy", src_len=4, symbols=8)
        assert task.vocab == 9 and task.seq_len == 9
        tokens, mask = task.sample(Rng(0), batch=5)
        assert tokens.shape == (5, 9) and mask.shape == (5, 9)
        assert np.array_equal(tokens[:, :4], tokens[:, 5:])
        assert np.all(tokens[:, 4] == 8)  # separator is the reserved top id
        assert np.array_equal(mask[0], np.array(
            [False, False, False, False, True, True, True, True, False]))

    def test_reverse_echoes_backwards(self):
        task = make_task("reverse", src_len=3, symbols=5)
        tokens, _ = task.sample(Rng(1), batch=4)
        assert np.array_equal(tokens[:, :3][:, ::-1], tokens[:, 4:])

    def test_modular_add_sums_and_mask(self):
        task = make_task("modular_add", modulus=7, triples=4)
        tokens, mask = task.sample(Rng(2), batch=6)
        a, b, c = tokens[:, 0::3], tokens[:, 1::3], tokens[:, 2::3]
        assert np.array_equal((a + b) % 7, c)
        assert np.all(mask[:, 1::3]) and not np.any(mask[:, 0::3] | mask[:, 2::3])

    def test_char_lm_windows_are_bytes(self):
        task = make_task("char_lm", seq_len=32)
        tokens, mask = task.sample(Rng(3), batch=8)
        assert mask is None
        assert tokens.shape == (8, 32)
        assert tokens.min() >= 0 and tokens.max() < 256

    def test_sampling_is_seed_deterministic(self):
        task = make_task("copy")
        a, _ = task.sample(Rng(7), 3)
        b, _ = task.sample(Rng(7), 3)
        assert np.array_equal(a, b)

    def test_unknown_task_and_options_rejected(self):
        with pytest.raises(ConfigError):
            make_task("sorting")
        with pytest.raises(ConfigError):
            make_task("copy", width=3)
        with pytest.raises(ConfigError):
            make_task("char_lm", seq_len=10 ** 6)


class TestLossMask:
    def test_final_position_never_scored(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(2, 5, 7)))
        tokens = rng.integers(0, 7, size=(2, 5))
        a = cross_entropy_loss(logits, tokens).item()
        # perturbing the last row's logits must not change the loss
        bumped = logits.data.copy()
        bumped[:, -1, :] += 100.0
        b = cross_entropy_loss(Tensor(bumped), tokens).item()
        assert a == b

    def test_mask_restricts_scoring(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(1, 4, 5)))
        tokens = rng.integers(0, 5, size=(1, 4))
        mask = np.array([[False, True, False, False]])
        got = cross_entropy_loss(logits, tokens, mask).item()
        row = logits.data[0, 1]
        want = math.log(np.exp(row - row.max()).sum()) + row.max() - row[tokens[0, 2]]
        assert abs(got - want) < 1e-12


def full_row_loss(params, tokens, mask):
    """The loss over a forward on every row: the reference that the
    scored-row step must match."""
    logits = forward(params, tokens)
    use = None if mask is None else np.asarray(mask, dtype=bool)[:, :-1]
    return cross_entropy(logits[:, :-1, :], tokens[:, 1:], use)


def loss_and_grads(params, loss_fn):
    for t in params.named_tensors().values():
        t.grad = None
    loss = loss_fn()
    loss.backward()
    return loss.item(), {k: t.grad for k, t in params.named_tensors().items()}


def staggered_batch(vocab):
    """Three examples whose scored rows differ: [3, 6), [9, 12) and 7."""
    tokens = np.random.default_rng(3).integers(0, vocab, size=(3, 14))
    mask = np.zeros(tokens.shape, dtype=bool)
    mask[0, 3:6] = mask[1, 9:12] = mask[2, 7] = True
    return tokens, mask


TRIM_WIRINGS = {
    "vanilla": dict(mode="vanilla"),
    "vanilla_loop2": dict(mode="vanilla_loop", loops=2),
    "plt2": dict(mode="plt", loops=2),
    "plt2_gswa": dict(mode="plt", loops=2, gswa=True, window=4),
    "plt3_gswa_gates": dict(mode="plt", loops=3, gswa=True, window=3, per_loop_gates=True),
}
TRIM_TASKS = {
    "copy": dict(src_len=6, symbols=8),
    "reverse": dict(src_len=6, symbols=8),
    "modular_add": dict(modulus=11, triples=5),
    "char_lm": dict(seq_len=15),
}


class TestScoredRows:
    def test_copy_model_table(self):
        # the benchmark's copy model: 16 rows after the cut, rows 8.. scored
        task = make_task("copy", src_len=8, symbols=16)
        tokens, mask = task.sample(Rng(0), 4)
        assert scored_rows(tokens, mask) == (8, 16)
        cfg = ModelConfig(vocab=task.vocab, d_model=64, n_layers=2, n_heads=4, d_ff=128,
                          mode="plt", loops=2, gswa=True, window=4, max_seq=task.seq_len)
        assert prefill_table(cfg, 16, 8) == [[0, 0, 1], [2, 5, 8]]

    def test_span_covers_every_example_and_stops_before_the_last_row(self):
        tokens, mask = staggered_batch(9)
        assert scored_rows(tokens, mask) == (3, 12)
        assert scored_rows(tokens, None) == (0, 13)
        mask[:, -1] = True   # the last row has no target
        assert scored_rows(tokens, mask) == (3, 12)

    def test_step_runs_only_the_scored_rows(self, monkeypatch):
        task = make_task("copy", src_len=8, symbols=16)
        params = init_parameters(ModelConfig(vocab=task.vocab, d_model=16, n_layers=1,
                                             n_heads=2, max_seq=task.seq_len), 0)
        seen = []
        train_module = importlib.import_module("parloop.train")

        def recording(params, tokens, **kw):
            logits = forward(params, tokens, **kw)
            seen.append((tokens.shape[1], logits.shape[1]))
            return logits

        monkeypatch.setattr(train_module, "forward", recording)
        train(params, task, TrainConfig(steps=1, batch_size=2))
        assert seen == [(16, 8)]   # 17 positions, rows 8..15 scored

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("wiring", TRIM_WIRINGS)
    def test_loss_and_grads_match_the_full_row_step(self, wiring, n_layers):
        batches = {"staggered": staggered_batch(19)}
        for name, kw in TRIM_TASKS.items():
            task = make_task(name, **kw)
            batches[name] = task.sample(Rng(n_layers), 3)
        for name, (tokens, mask) in batches.items():
            cfg = ModelConfig(vocab=256 if name == "char_lm" else 19, d_model=16,
                              n_layers=n_layers, n_heads=2, d_ff=24, max_seq=16,
                              **TRIM_WIRINGS[wiring])
            params = init_parameters(cfg, n_layers, std=0.3)
            got, got_grads = loss_and_grads(params, lambda: scored_loss(params, tokens, mask))
            want, want_grads = loss_and_grads(params,
                                              lambda: full_row_loss(params, tokens, mask))
            assert abs(got - want) <= 1e-12 * abs(want), name
            for key, g in want_grads.items():
                err = np.max(np.abs(got_grads[key] - g))
                assert err <= 1e-12 * np.max(np.abs(g)), (name, key, err)


class TestAdam:
    def test_zero_gradient_step_is_exact_identity(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        before = p.data.copy()
        opt = Adam({"p": p})
        p.grad = np.zeros(3)
        for _ in range(5):
            opt.step(lr=0.1)
        assert np.array_equal(p.data, before)

    def test_matches_hand_rolled_scalar_updates(self):
        p = Tensor(np.array([0.5]), requires_grad=True)
        opt = Adam({"p": p})
        assert (BETA1, BETA2, EPS) == (0.9, 0.95, 1e-8)
        x, m, v = 0.5, 0.0, 0.0
        for t in range(1, 6):
            g = 2.0 * p.data[0]          # gradient of x^2
            p.grad = np.array([g])
            opt.step(lr=0.05)
            gm = 2.0 * x
            m = 0.9 * m + 0.1 * gm
            v = 0.95 * v + 0.05 * gm * gm
            x -= 0.05 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.95 ** t)) + 1e-8)
            assert abs(p.data[0] - x) < 1e-12

    def test_in_place_moments_match_the_formula_bitwise(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        opt = Adam({"p": p})
        m_buf = opt.m["p"]
        x, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for t in range(1, 4):
            g = rng.normal(size=(4, 3))
            p.grad = g.copy()
            opt.step(lr=0.01)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.95 * v + (1.0 - 0.95) * (g * g)
            x -= 0.01 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.95 ** t)) + 1e-8)
            assert np.array_equal(p.data, x)
            assert np.array_equal(p.grad, g)
        assert opt.m["p"] is m_buf

    def test_missing_gradient_leaves_tensor_alone(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p, "q": q})
        p.grad = np.ones(2)
        opt.step(lr=0.1)
        assert np.array_equal(q.data, np.ones(2))
        assert not np.array_equal(p.data, np.ones(2))


class TestClip:
    def test_long_gradient_scaled_to_threshold(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)  # norm 6
        norm = clip_global_norm([p], 1.5)
        assert abs(norm - 6.0) < 1e-12
        assert abs(np.linalg.norm(p.grad) - 1.5) < 1e-12

    def test_shared_gradient_is_scaled_once(self):
        # x + y hands both leaves one upstream array; clipping must not
        # scale it in place, which would scale the shared array twice
        x = Tensor(np.zeros(2), requires_grad=True)
        y = Tensor(np.zeros(2), requires_grad=True)
        w = np.array([3.0, 4.0])
        ((x + y) * w).sum().backward()
        assert x.grad is y.grad
        norm = clip_global_norm([x, y], 1.0)
        assert norm == math.sqrt(50.0)
        want = w * (1.0 / math.sqrt(50.0))
        assert np.array_equal(x.grad, want) and np.array_equal(y.grad, want)

    def test_short_gradient_untouched(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        g = np.full(4, 0.1)
        p.grad = g.copy()
        clip_global_norm([p], 1.5)
        assert np.array_equal(p.grad, g)


class TestSchedule:
    def test_warmup_is_linear_then_peak(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, lr=1.0)
        assert abs(lr_at(0, cfg) - 0.1) < 1e-12
        assert abs(lr_at(4, cfg) - 0.5) < 1e-12
        assert abs(lr_at(9, cfg) - 1.0) < 1e-12
        assert abs(lr_at(10, cfg) - 1.0) < 1e-12

    def test_cosine_decays_toward_zero(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, lr=1.0)
        mid = lr_at(55, cfg)
        assert 0.4 < mid < 0.6
        assert lr_at(99, cfg) < 0.01
        vals = [lr_at(s, cfg) for s in range(10, 100)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class FastSetup:
    @staticmethod
    def task():
        return make_task("copy", src_len=4, symbols=8)

    @staticmethod
    def cfg(task, **kw):
        base = dict(vocab=task.vocab, d_model=16, n_layers=1, n_heads=2,
                    d_ff=32, mode="vanilla", max_seq=16)
        base.update(kw)
        return ModelConfig(**base)


class TestTrainLoop(FastSetup):
    def test_loss_drops_on_tiny_budget(self):
        task = self.task()
        params = init_parameters(self.cfg(task), seed=0)
        res = train(params, task, TrainConfig(steps=40, batch_size=16, lr=3e-3,
                                              warmup_steps=5, seed=0))
        assert len(res.losses) == 40
        assert res.losses[-1] < res.losses[0]
        assert res.final_loss == res.losses[-1]

    def test_two_runs_are_bit_identical(self, tmp_path):
        task = self.task()
        outs = []
        for run in ("a", "b"):
            params = init_parameters(self.cfg(task), seed=3)
            result = train(params, task, TrainConfig(steps=15, batch_size=8, seed=3))
            (tmp_path / f"{run}.csv").write_text(result.log_csv())
            save_checkpoint(tmp_path / f"{run}.ckpt", params,
                            extra={"final_loss": result.final_loss})
            outs.append(((tmp_path / f"{run}.csv").read_bytes(),
                         (tmp_path / f"{run}.ckpt").read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_checkpoint_reloads_and_predicts_identically(self, tmp_path):
        task = self.task()
        params = init_parameters(self.cfg(task), seed=1)
        path = tmp_path / "m.ckpt"
        train(params, task, TrainConfig(steps=10, batch_size=8, seed=1))
        save_checkpoint(path, params, extra={"steps": 10})
        loaded, extra = load_checkpoint(path)
        assert extra["steps"] == 10
        tokens, _ = task.sample(Rng(0), 2)
        assert np.array_equal(forward(params, tokens).data,
                              forward(loaded, tokens).data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_weights_raise_divergence_with_step(self):
        task = self.task()
        params = init_parameters(self.cfg(task), seed=0)
        params.layers[0].wq.data[0, 0] = np.nan
        with pytest.raises(DivergenceError) as e:
            train(params, task, TrainConfig(steps=5, batch_size=8, seed=0))
        assert "step 0" in str(e.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_loss_raises_divergence(self):
        task = self.task()
        params = init_parameters(self.cfg(task), seed=0)
        params.embedding.data *= 1e200  # drives the head logits to +/- inf
        with pytest.raises(DivergenceError):
            train(params, task, TrainConfig(steps=5, batch_size=8, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode_kw", [dict(mode="vanilla"),
                                         dict(mode="plt", loops=2, gswa=True, window=2)])
    def test_overflowing_norm_input_raises_at_step_0(self, mode_kw):
        task = self.task()
        params = init_parameters(self.cfg(task, **mode_kw), seed=0)
        params.embedding.data *= 1e200   # x * x overflows inside rmsnorm
        tokens, _ = task.sample(Rng(0), 2)
        with pytest.raises(NumericError):
            forward(params, tokens)
        with pytest.raises(DivergenceError) as e:
            train(params, task, TrainConfig(steps=5, batch_size=8, seed=0))
        assert "step 0" in str(e.value)


class TestEvalAccuracy(FastSetup):
    def test_perfect_predictor_scores_one(self):
        task = self.task()

        def cheat(tokens):
            logits = np.zeros(tokens.shape + (task.vocab,))
            for b in range(tokens.shape[0]):
                for j in range(tokens.shape[1] - 1):
                    logits[b, j, tokens[b, j + 1]] = 10.0
            return Tensor(logits)

        assert eval_accuracy(cheat, task, seed=0) == 1.0

    def test_constant_predictor_scores_near_chance(self):
        task = self.task()

        def dud(tokens):
            return Tensor(np.zeros(tokens.shape + (task.vocab,)))

        acc = eval_accuracy(dud, task, seed=0)
        assert acc < 0.2  # argmax ties resolve to token 0; echo half is random

    def test_plain_array_logits_score_like_the_tape(self):
        task = self.task()
        params = init_parameters(self.cfg(task, mode="plt", loops=2, gswa=True, window=3),
                                 seed=4)
        train(params, task, TrainConfig(steps=20, batch_size=8, seed=4))
        weights = params.arrays()
        tokens = task.sample(Rng(0), 4)[0]
        assert np.array_equal(forward(weights, tokens), forward(params, tokens).data)
        assert eval_accuracy(lambda t: forward(weights, t), task, seed=1) == \
            eval_accuracy(lambda t: forward(params, t), task, seed=1)

    def test_ladder_and_cli_evals_build_no_tensor(self, monkeypatch, tmp_path):
        cli, tasks = (importlib.import_module(f"parloop.{m}") for m in ("cli", "tasks"))
        evals = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            evals[-1] += 1
            init(self, *args, **kwargs)

        def eval_counting_tensors(*args, **kwargs):
            evals.append(0)
            monkeypatch.setattr(Tensor, "__init__", counted)
            try:
                return tasks.eval_accuracy(*args, **kwargs)
            finally:
                monkeypatch.setattr(Tensor, "__init__", init)

        for module in (importlib.import_module("parloop.train"), cli):
            monkeypatch.setattr(module, "eval_accuracy", eval_counting_tensors)
        task = self.task()
        base = dict(vocab=task.vocab, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                    max_seq=32)
        ablation_run(task, base, TrainConfig(steps=1, batch_size=4, seed=0),
                     archs=("vanilla", "plt"))
        assert cli.run(["train", "--d-model", "16", "--n-layers", "1",
                                "--n-heads", "2", "--task", "copy", "--src-len", "4",
                                "--symbols", "8", "--steps", "1", "--batch-size", "4",
                                "--out", str(tmp_path)]) == 0
        assert evals == [0, 0, 0]


class TestAblationLadder(FastSetup):
    def test_ladder_configs_have_expected_wiring(self):
        base = dict(vocab=9, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq=16)
        assert ladder_config("vanilla", base, 2, 4).mode == "vanilla"
        assert ladder_config("loop", base, 2, 4).mode == "vanilla_loop"
        k = ladder_config("kvshare", base, 2, 4)
        assert k.mode == "plt" and not k.gswa
        p = ladder_config("plt", base, 2, 4)
        assert p.mode == "plt" and p.gswa and p.window == 4
        with pytest.raises(ConfigError):
            ladder_config("mystery", base, 2, 4)

    def test_smoke_run_reports_counters(self):
        task = self.task()
        base = dict(vocab=task.vocab, d_model=16, n_layers=1, n_heads=2,
                    d_ff=32, max_seq=32)
        rows = ablation_run(task, base, TrainConfig(steps=2, batch_size=4, seed=0),
                            loops=2, window=3)
        by_arch = {r["arch"]: r for r in rows}
        assert by_arch["vanilla"]["passes_per_token"] == 1.0
        assert by_arch["loop"]["passes_per_token"] == 2.0
        assert by_arch["plt"]["passes_per_token"] == 1.0
        assert by_arch["loop"]["kv_entries"] == 2 * by_arch["vanilla"]["kv_entries"]
        txt = format_ablation(rows)
        for arch in ("vanilla", "loop", "kvshare", "plt"):
            assert arch in txt

    def test_probe_past_max_seq_is_rejected_before_training(self, monkeypatch):
        task = self.task()
        base = dict(vocab=task.vocab, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                    max_seq=task.seq_len + PROBE_STEPS - 1)
        train_module = importlib.import_module("parloop.train")
        monkeypatch.setattr(train_module, "train",
                            lambda *a, **kw: pytest.fail("a rung was trained"))
        with pytest.raises(CapacityError):
            ablation_run(task, base, TrainConfig(steps=1, batch_size=4, seed=0))
        monkeypatch.undo()
        base["max_seq"] += 1   # the probe exactly fits
        rows = ablation_run(task, base, TrainConfig(steps=1, batch_size=4, seed=0),
                            archs=("plt",))
        assert rows[0]["passes_per_token"] == 1.0
