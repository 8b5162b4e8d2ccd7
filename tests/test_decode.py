"""Incremental decoding against the batched forward: step logits must
reproduce full-sequence teacher forcing, and greedy generation must match
the quadratic recompute-from-scratch oracle."""

import numpy as np
import pytest

from parloop.attention import SharedKVCache, WindowKVCache, attention_np
from parloop.decode import DecodeSession, _select, generate, prefill
from parloop.errors import (CapacityError, ConfigError, DimensionError, EmptyInputError,
                            TokenError)
from parloop.model import ModelConfig, forward, init_parameters


def small(**kw):
    base = dict(vocab=17, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
                d_ff=24, max_seq=64)
    base.update(kw)
    return ModelConfig(**base)


ALL_MODES = [
    dict(mode="vanilla"),
    dict(mode="vanilla_loop", loops=2),
    dict(mode="vanilla_loop", loops=3),
    dict(mode="plt", loops=2),
    dict(mode="plt", loops=3),
    dict(mode="plt", loops=2, gswa=True, window=4),
    dict(mode="plt", loops=3, gswa=True, window=3),
    dict(mode="plt", loops=4, gswa=True, window=2, per_loop_gates=True),
    dict(mode="plt", loops=3, gswa=True, window=8, n_kv_heads=4),
    dict(mode="plt", loops=2, gswa=True, window=4, n_kv_heads=1),
]


def teacher_forcing_gap(cfg, seed, tokens, split):
    """Max |step logits - full forward logits| over the decoded region."""
    params = init_parameters(cfg, seed)
    full = forward(params, tokens).data[0]
    sess = prefill(params, tokens[:split])
    worst = float(np.max(np.abs(sess.last_logits - full[split - 1])))
    for j in range(split, len(tokens)):
        step_logits = sess.step(int(tokens[j]))
        worst = max(worst, float(np.max(np.abs(step_logits - full[j]))))
    return worst


class TestTeacherForcing:
    @pytest.mark.parametrize("cfg_kw", ALL_MODES)
    def test_step_logits_match_full_forward(self, cfg_kw):
        cfg = small(**cfg_kw)
        tokens = np.random.default_rng(0).integers(0, cfg.vocab, size=12)
        assert teacher_forcing_gap(cfg, seed=5, tokens=tokens, split=4) < 1e-9

    def test_split_point_does_not_matter(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=3)
        tokens = np.random.default_rng(1).integers(0, cfg.vocab, size=10)
        for split in (1, 2, 5, 9):
            assert teacher_forcing_gap(cfg, seed=2, tokens=tokens, split=split) < 1e-9

    def test_prompt_shorter_than_loop_count(self):
        cfg = small(mode="plt", loops=4, gswa=True, window=2)
        tokens = np.random.default_rng(2).integers(0, cfg.vocab, size=9)
        assert teacher_forcing_gap(cfg, seed=3, tokens=tokens, split=1) < 1e-9

    def test_zero_layer_stack(self):
        cfg = ModelConfig(vocab=11, d_model=8, n_layers=0, n_heads=2,
                          loops=3, mode="plt", max_seq=32)
        tokens = np.arange(8) % 11
        assert teacher_forcing_gap(cfg, seed=1, tokens=tokens, split=2) < 1e-12


class TestGatedWindowDecode:
    """Decode parity past several ring wrap-arounds, for windows of one, shorter
    than the prompt and longer than it."""

    @pytest.mark.parametrize("per_loop_gates", [False, True])
    @pytest.mark.parametrize("window", [1, 3, 9])
    @pytest.mark.parametrize("loops", [2, 3, 4])
    def test_step_logits_match_full_forward(self, loops, window, per_loop_gates):
        cfg = small(mode="plt", loops=loops, gswa=True, window=window,
                    per_loop_gates=per_loop_gates)
        split = 6
        tokens = np.random.default_rng(loops).integers(
            0, cfg.vocab, size=split + 2 * window + 3)
        assert teacher_forcing_gap(cfg, seed=window, tokens=tokens, split=split) < 1e-9


class TestSessionStateHandoff:
    def test_steps_reach_the_same_state_as_a_longer_prefill(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=4)
        params = init_parameters(cfg, seed=8)
        tokens = np.random.default_rng(3).integers(0, cfg.vocab, size=11)
        a = prefill(params, tokens[:5])
        for t in tokens[5:]:
            a.step(int(t))
        b = prefill(params, tokens)
        assert a.position == b.position
        assert np.max(np.abs(a.last_logits - b.last_logits)) < 1e-9
        for x, y in zip(a.inflight, b.inflight):
            assert np.max(np.abs(x - y)) < 1e-9
        ka, _ = a.shared.view(0, a.position)
        kb, _ = b.shared.view(0, b.position)
        assert np.max(np.abs(ka - kb)) < 1e-9
        for key, ring_a in a.rings.items():
            ga = ring_a.gather(a.position - 1)
            gb = b.rings[key].gather(b.position - 1)
            assert np.array_equal(ga[2], gb[2])
            assert np.max(np.abs(ga[0] - gb[0])) < 1e-9


class TestCacheOccupancy:
    def test_window_rings_never_exceed_window(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=3)
        params = init_parameters(cfg, seed=0)
        sess = prefill(params, np.arange(6) % cfg.vocab)
        for t in range(20):
            sess.step(t % cfg.vocab)
            assert all(r.entries() <= cfg.window for r in sess.rings.values())
        counts = sess.kv_entry_count()
        n = sess.position
        loops_beyond_first = cfg.loops - 1
        assert counts["shared"] == cfg.n_layers * n
        assert counts["window"] == cfg.n_layers * loops_beyond_first * min(cfg.window, n)
        assert counts["per_loop"] == 0

    def test_serial_loop_holds_full_caches_per_loop(self):
        cfg = small(mode="vanilla_loop", loops=3)
        params = init_parameters(cfg, seed=0)
        sess = prefill(params, np.arange(5) % cfg.vocab)
        for t in range(4):
            sess.step(t)
        counts = sess.kv_entry_count()
        assert counts["shared"] == 0 and counts["window"] == 0
        assert counts["per_loop"] == cfg.loops * cfg.n_layers * sess.position

    def test_ratio_between_wirings(self):
        n_prompt, n_new = 6, 10
        def total(cfg_kw):
            cfg = small(**cfg_kw)
            sess = prefill(init_parameters(cfg, 0), np.arange(n_prompt) % cfg.vocab)
            for t in range(n_new):
                sess.step(t % cfg.vocab)
            return sess.kv_entry_count()["total"], sess.position, cfg
        base, n, _ = total(dict(mode="vanilla"))
        looped, _, _ = total(dict(mode="vanilla_loop", loops=3))
        shared_only, _, _ = total(dict(mode="plt", loops=3))
        windowed, _, wcfg = total(dict(mode="plt", loops=3, gswa=True, window=4))
        assert looped == 3 * base
        assert shared_only == base
        assert windowed == base + wcfg.n_layers * 2 * min(wcfg.window, n)

    def test_capacity_error_past_max_seq(self):
        cfg = small(mode="plt", loops=2, max_seq=8)
        sess = prefill(init_parameters(cfg, 0), np.arange(6) % cfg.vocab)
        sess.step(0)
        sess.step(1)
        with pytest.raises(CapacityError):
            sess.step(2)


class TestPassCounters:
    def test_parallel_wiring_pays_one_pass_per_token(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=4)
        sess = prefill(init_parameters(cfg, 0), np.arange(4) % cfg.vocab)
        generate(sess, 10)
        assert sess.steps == 10
        assert sess.passes == 10
        assert sess.passes_per_token == 1.0
        assert sess.prefill_passes == 3

    def test_serial_wiring_pays_loops_passes_per_token(self):
        cfg = small(mode="vanilla_loop", loops=3)
        sess = prefill(init_parameters(cfg, 0), np.arange(4) % cfg.vocab)
        generate(sess, 7)
        assert sess.steps == 7
        assert sess.passes == 21
        assert sess.passes_per_token == 3.0


class TestGenerate:
    def oracle(self, params, prompt, k):
        toks = list(prompt)
        out = []
        for _ in range(k):
            logits = forward(params, np.array(toks)).data[0, -1]
            t = int(np.argmax(logits))
            out.append(t)
            toks.append(t)
        return out

    @pytest.mark.parametrize("cfg_kw", [
        dict(mode="vanilla"),
        dict(mode="vanilla_loop", loops=2),
        dict(mode="plt", loops=3, gswa=True, window=3),
    ])
    def test_greedy_matches_recompute_oracle(self, cfg_kw):
        cfg = small(**cfg_kw)
        params = init_parameters(cfg, seed=13)
        prompt = np.random.default_rng(4).integers(0, cfg.vocab, size=5)
        sess = prefill(params, prompt)
        got = generate(sess, 12)
        assert got == self.oracle(params, prompt, 12)

    def test_generation_is_reproducible(self):
        cfg = small(mode="plt", loops=2, gswa=True, window=4)
        params = init_parameters(cfg, seed=21)
        prompt = np.arange(5) % cfg.vocab
        a = generate(prefill(params, prompt), 8)
        b = generate(prefill(params, prompt), 8)
        assert a == b

    def test_sampled_generation_reproducible_per_seed(self):
        cfg = small(mode="plt", loops=2)
        params = init_parameters(cfg, seed=21)
        prompt = np.arange(5) % cfg.vocab
        a = generate(prefill(params, prompt), 8, temperature=1.0, seed=9)
        b = generate(prefill(params, prompt), 8, temperature=1.0, seed=9)
        c = generate(prefill(params, prompt), 8, temperature=1.0, seed=10)
        assert a == b
        assert a != c  # vanishing chance of collision over 8 draws

    def test_repeated_calls_continue_consistently(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=3)
        params = init_parameters(cfg, seed=2)
        prompt = np.arange(4) % cfg.vocab
        sess = prefill(params, prompt)
        two_calls = generate(sess, 5) + generate(sess, 5)
        one_call = generate(prefill(params, prompt), 10)
        assert two_calls == one_call

    def test_overlong_request_rejected_up_front(self):
        cfg = small(max_seq=10)
        sess = prefill(init_parameters(cfg, 0), np.arange(6) % cfg.vocab)
        with pytest.raises(CapacityError):
            generate(sess, 5)
        assert sess.steps == 0  # nothing was consumed

    def test_empty_prompt_rejected(self):
        params = init_parameters(small(), seed=0)
        with pytest.raises(EmptyInputError):
            prefill(params, np.array([], dtype=int))

    def test_two_dimensional_prompt_rejected(self):
        params = init_parameters(small(), seed=0)
        with pytest.raises(DimensionError):
            prefill(params, np.arange(6).reshape(2, 3))

    def test_zero_tokens_rejected(self):
        sess = prefill(init_parameters(small(), seed=0), np.arange(4))
        with pytest.raises(ConfigError):
            generate(sess, 0)
        assert sess.steps == 0


class TestMicroBatch:
    def test_rows_are_embedding_plus_carries(self):
        cfg = small(mode="plt", loops=3)
        params = init_parameters(cfg, seed=6)
        sess = prefill(params, np.arange(5) % cfg.vocab)
        carries = [h.copy() for h in sess.inflight]
        tok = 3
        sess.decode_step(tok)
        mb = sess.last_microbatch
        e = params.embedding.data[tok]
        assert mb.position == 5
        assert mb.loop_of_row == (1, 2, 3)
        assert np.array_equal(mb.inputs[0], e)
        assert np.allclose(mb.inputs[1], e + carries[0], atol=1e-15)
        assert np.allclose(mb.inputs[2], e + carries[1], atol=1e-15)

    def test_single_loop_has_one_row(self):
        cfg = small(mode="plt", loops=1)
        sess = prefill(init_parameters(cfg, 0), np.arange(4) % cfg.vocab)
        sess.decode_step(1)
        assert sess.last_microbatch.inputs.shape[0] == 1
        assert sess.inflight == []


class TestModeEquivalences:
    def test_single_loop_plt_decodes_like_vanilla(self):
        tokens = np.random.default_rng(5).integers(0, 17, size=9)
        la = []
        lb = []
        for mode, loops in (("vanilla", 1), ("plt", 1)):
            cfg = small(mode=mode, loops=loops)
            sess = prefill(init_parameters(cfg, seed=4), tokens[:3])
            logs = [sess.last_logits]
            for t in tokens[3:]:
                logs.append(sess.step(int(t)))
            (la if mode == "vanilla" else lb).extend(logs)
        for x, y in zip(la, lb):
            assert np.max(np.abs(x - y)) < 1e-12


def repeat_einsum_attend(q, k, v):
    """Reference: repeat every key/value head to the query-head count."""
    groups = q.shape[1] // k.shape[0]
    k = np.repeat(k, groups, axis=0)
    v = np.repeat(v, groups, axis=0)
    scores = np.einsum("rhd,hmd->rhm", q, k) / np.sqrt(q.shape[-1])
    att = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    return np.einsum("rhm,hmd->rhd", att, v)


class TestGroupedAttend:
    """The kernel called the way a decode step calls it: rows [rows, heads,
    dh] at one position against a cache view or a ring gather."""

    @pytest.mark.parametrize("groups", [1, 2, 4, 8])
    @pytest.mark.parametrize("source", ["shared", "window"])
    def test_matches_repeated_cache(self, groups, source):
        rng = np.random.default_rng(groups)
        kh, dh, rows = 2, 6, 3
        if source == "shared":   # strided view of a partly written cache
            cache = SharedKVCache(1, kh, dh, max_seq=16)
            cache.write_block(0, 0, rng.standard_normal((kh, 10, dh)),
                              rng.standard_normal((kh, 10, dh)))
            k, v = cache.view(0, 10)
            k_start, window = 0, 0
        else:                    # ring holding 5 of its 8 slots
            ring = WindowKVCache(8, kh, dh)
            for pos in range(5):
                ring.write(pos, rng.standard_normal((kh, dh)),
                           rng.standard_normal((kh, dh)))
            k, v, pos = ring.gather(4)
            assert k.shape == (kh, 5, dh)
            k_start, window = pos[0], 8
        q = rng.standard_normal((rows, kh * groups, dh))
        at = k_start + k.shape[1] - 1
        got = attention_np(q.transpose(1, 0, 2), k, v, np.full(rows, at),
                           k_start, window).transpose(1, 0, 2)
        assert got.shape == q.shape
        assert np.max(np.abs(got - repeat_einsum_attend(q, k, v))) < 1e-9


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSelect:
    def test_draw_above_the_last_cdf_value_picks_the_last_token(self):
        rng = np.random.default_rng(0)
        for _ in range(100):   # ~44% of 256-way softmaxes sum to just under 1
            logits = rng.standard_normal(256)
            e = np.exp(logits - logits.max())
            top = np.cumsum(e / e.sum())[-1]
            if top < 1.0:
                break
        assert top < 1.0
        u = np.nextafter(top, 1.0)
        assert _select(logits, 1.0, _FixedDraw(u)) == 255


class TestTokenRange:
    @pytest.mark.parametrize("mode_kw", [dict(mode="vanilla_loop", loops=2),
                                         dict(mode="plt", loops=2)])
    @pytest.mark.parametrize("bad", [-1, 17])
    def test_step_rejects_out_of_range_id(self, mode_kw, bad):
        cfg = small(**mode_kw)
        assert cfg.vocab == 17
        sess = prefill(init_parameters(cfg, 0), np.arange(4))
        with pytest.raises(TokenError):
            sess.step(bad)
        assert sess.position == 4 and sess.steps == 0
        sess.step(cfg.vocab - 1)

    @pytest.mark.parametrize("mode_kw", [dict(mode="vanilla_loop", loops=2),
                                         dict(mode="plt", loops=2)])
    def test_step_rejects_non_integer_id(self, mode_kw):
        sess = prefill(init_parameters(small(**mode_kw), 0), np.arange(4))
        with pytest.raises(TokenError):
            sess.step(3.5)
        assert sess.position == 4 and sess.steps == 0

    def test_prefill_and_forward_reject_non_integer_ids(self):
        params = init_parameters(small(), 0)
        prompt = np.array([1.5, 2.0])
        with pytest.raises(TokenError):
            prefill(params, prompt)
        with pytest.raises(TokenError):
            forward(params, prompt)

    @pytest.mark.parametrize("bad", [-1, 17])
    def test_prefill_and_forward_reject_out_of_range_ids(self, bad):
        params = init_parameters(small(), 0)
        prompt = np.array([1, bad, 2])
        with pytest.raises(TokenError):
            prefill(params, prompt)
        with pytest.raises(TokenError):
            forward(params, prompt)
