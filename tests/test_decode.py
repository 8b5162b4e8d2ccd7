"""Incremental decoding against the batched forward: step logits must
reproduce full-sequence teacher forcing, and greedy generation must match
the quadratic recompute-from-scratch oracle."""

import numpy as np
import pytest

import parloop.decode
import parloop.model

from parloop.attention import SharedKVCache, WindowKVCache, attention
from parloop.decode import DecodeSession, _select, generate, prefill
from parloop.errors import (CapacityError, ConfigError, DimensionError, EmptyInputError,
                            TokenError)
from parloop.model import (ROWWISE_BYTES, ModelConfig, forward, init_parameters, prefill_table,
                           step_matmul)

from reference_impl import ref_prefill_table


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


def suffix_parity_gap(cfg, params, n, steps):
    """Max |step logits - full forward logits| after an n-token prompt,
    checking the rings' occupancy on every step."""
    tokens = np.random.default_rng(n).integers(0, cfg.vocab, size=n + steps)
    full = forward(params, tokens).data[0]
    sess = prefill(params, tokens[:n])
    worst = float(np.max(np.abs(sess.last_logits - full[n - 1])))
    for j in range(n, len(tokens)):
        worst = max(worst, float(np.max(np.abs(sess.step(int(tokens[j])) - full[j]))))
        assert sess.kv_entry_count()["window"] == \
            cfg.n_layers * (cfg.loops - 1) * min(cfg.window if cfg.gswa else 0, sess.position)
    return worst


class TestSuffixPrefill:
    """Prompts long enough that prefill runs the later plt loops over a suffix
    only, and prompts just shorter than that suffix; every wiring's top layer
    runs its queries on the rows the next loop or the session reads."""

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("window", [0, 1, 3, 8])   # 0: no gswa
    @pytest.mark.parametrize("loops", [2, 3, 4])
    def test_step_logits_match_full_forward(self, loops, window, n_layers):
        gswa = window > 0
        for per_loop_gates in ((False, True) if gswa and loops > 2 else (False,)):
            for n_kv_heads in (2, 1):
                cfg = small(mode="plt", loops=loops, gswa=gswa, window=window,
                            per_loop_gates=per_loop_gates, n_kv_heads=n_kv_heads,
                            n_layers=n_layers, max_seq=128)
                suffix = 1000 - prefill_table(cfg, 1000, 999)[1][0]
                params = init_parameters(cfg, seed=loops + window)
                for n in (max(1, suffix - 2), suffix + 5):
                    assert (prefill_table(cfg, n, n - 1)[1][0] > 0) == (n > suffix)
                    worst = suffix_parity_gap(cfg, params, n, 2 * window + 3)
                    assert worst < 1e-9, (per_loop_gates, n_kv_heads, n)

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode, loops", [("vanilla", 1), ("vanilla_loop", 2),
                                             ("vanilla_loop", 3), ("vanilla_loop", 4)])
    def test_serial_wirings_match_full_forward(self, mode, loops, n_layers):
        # only the last loop's top layer trims, to the last row (every other
        # layer fills a cache or feeds the next loop): a 1-token prompt trims
        # nothing, longer ones do
        for n_kv_heads in (2, 1):
            cfg = small(mode=mode, loops=loops, n_kv_heads=n_kv_heads, n_layers=n_layers)
            params = init_parameters(cfg, seed=loops + n_layers)
            for n in (1, 2, 9):
                assert prefill_table(cfg, n, n - 1)[-1][-1] == (n - 1 if n_layers else 0)
                worst = suffix_parity_gap(cfg, params, n, 6)
                assert worst < 1e-9, (n_kv_heads, n)

    def test_starts_follow_the_rule(self):
        def starts(n, **kw):
            return [rows[0] for rows in prefill_table(small(max_seq=512, **kw), n, n - 1)]
        # plt2 runs loop 2 on the last row; with window 16 over 2 layers the
        # last row's 2 * 15 receptive field takes 31 rows, which covers the
        # ring seeds too
        assert starts(512, mode="plt", loops=2) == [0, 511]
        assert starts(512, mode="plt", loops=3) == [0, 510, 511]
        assert starts(512, mode="plt", loops=2, gswa=True, window=16) == [0, 481]
        # loop 2 must cover loop 3's start - 1 and its own reach behind that
        assert starts(40, mode="plt", loops=3, gswa=True, window=3) == [0, 30, 35]
        assert starts(5, mode="plt", loops=2, gswa=True, window=3) == [0, 0]
        assert starts(40, mode="vanilla_loop", loops=3) == [0, 0, 0]
        # the benchmark geometries, layer by layer
        long = dict(d_model=128, n_heads=8, n_kv_heads=2, max_seq=544)
        short = dict(d_model=256, n_layers=4, n_heads=8, n_kv_heads=2, max_seq=96)
        assert prefill_table(small(**long), 512, 511) == [[0, 0, 511]]
        assert prefill_table(small(mode="plt", loops=2, gswa=True, window=16, **long),
                             512, 511) == [[0, 0, 480], [481, 496, 511]]
        assert prefill_table(small(mode="plt", loops=2, gswa=True, window=16, **short),
                             64, 63) == [[0, 0, 0, 0, 2], [3, 18, 33, 48, 63]]
        # a loop that fills its own cache starts at 0, even with no layers
        assert prefill_table(small(mode="plt", loops=3, n_layers=0), 40, 39) == [[0], [38], [39]]
        assert prefill_table(small(mode="vanilla_loop", loops=2, n_layers=0), 40, 39) == [[0], [0]]
        assert prefill_table(small(mode="vanilla_loop", loops=2), 40, 39) == [[0, 0, 0], [0, 0, 39]]

    @pytest.mark.parametrize("mode, gswa", [("vanilla", False), ("vanilla_loop", False),
                                            ("plt", False), ("plt", True)])
    def test_table_matches_the_dependency_oracle(self, mode, gswa):
        # exact both ways: a table that over-covers passes every parity test
        for loops in [1] if mode == "vanilla" else [1, 2, 3, 4]:
            for n_layers in range(4):
                for window in range(1, 6) if gswa else [0]:
                    cfg = small(mode=mode, loops=loops, n_layers=n_layers, gswa=gswa,
                                window=window, max_seq=16)
                    for n in range(1, 13):
                        assert prefill_table(cfg, n, n - 1) == ref_prefill_table(cfg, n, n - 1)
                        for top in range(n):
                            assert prefill_table(cfg, n, top) == ref_prefill_table(cfg, n, top), \
                                (loops, n_layers, window, n, top)

    def test_states_cover_each_loops_suffix_and_logits_cover_all(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=3)
        params = init_parameters(cfg, seed=0)
        tokens = np.arange(30) % cfg.vocab
        states = forward(params, tokens, return_states=True, first_row=29)
        assert [h.shape[1] for h in states.hidden_per_loop] == \
            [30 - rows[-1] for rows in states.rows]
        assert [[k.shape[-2] for k, _ in kv] for kv in states.own_kv_per_loop] == \
            [[30 - r for r in rows[:-1]] for rows in states.rows]
        assert forward(params, tokens).shape[1] == 30

    def test_queries_run_only_on_the_rows_read_above(self, monkeypatch):
        seen = {"q": [], "k": []}   # rows per layer
        rope = parloop.model.apply_rope

        def recorded(x, positions, tables):   # x: [b, rows, heads, d_head]
            seen["q" if x.shape[-2] == cfg.n_heads else "k"].append(x.shape[-3])
            return rope(x, positions, tables)

        monkeypatch.setattr(parloop.model, "apply_rope", recorded)
        cfg = small(mode="vanilla", n_heads=4, n_kv_heads=2)
        prefill(init_parameters(cfg, seed=0), np.arange(9) % cfg.vocab)
        assert seen == {"q": [9, 1], "k": [9, 9]}


class TestPrefillRows:
    @pytest.mark.parametrize("n", [1, 7, 46, 100])
    def test_rows_per_wiring(self, n):
        def rows(**kw):
            cfg = small(max_seq=128, **kw)
            return prefill(init_parameters(cfg, 0), np.arange(n) % cfg.vocab).prefill_rows
        assert rows(mode="vanilla") == n
        assert rows(mode="vanilla_loop", loops=2) == 2 * n
        assert rows(mode="plt", loops=2) == n + 1
        # the layers and window of the long-prompt benchmark's plt2_gswa wiring
        assert rows(mode="plt", loops=2, gswa=True, window=16) == n + min(n, 31)


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
        ka, _ = a.caches[0][0].view(a.position)
        kb, _ = b.caches[0][0].view(b.position)
        assert np.max(np.abs(ka - kb)) < 1e-9
        for ring_a, ring_b in zip(a.rings, b.rings):
            ga = ring_a.gather(a.position - 1)
            gb = ring_b.gather(b.position - 1)
            assert ga[2] == gb[2] and ga[0].shape == gb[0].shape
            assert np.max(np.abs(ga[0] - gb[0])) < 1e-9

    @pytest.mark.parametrize("loops", [2, 3])
    def test_suffix_prefill_hands_over_the_full_prefill_state(self, loops, monkeypatch):
        # large weights make a row that sees a truncated window differ visibly
        cfg = small(mode="plt", loops=loops, gswa=True, window=8, n_layers=3, max_seq=128)
        params = init_parameters(cfg, seed=loops, std=0.3)
        tokens = np.random.default_rng(loops).integers(0, cfg.vocab, size=100)
        suffix = prefill(params, tokens)
        assert suffix.prefill_rows < loops * len(tokens)
        monkeypatch.setattr("parloop.model.prefill_table",   # no row trimmed anywhere
                            lambda cfg, n, top: [[0] * (cfg.n_layers + 1)] * cfg.loops)
        full = prefill(params, tokens)
        assert full.prefill_rows == loops * len(tokens)
        assert np.max(np.abs(suffix.last_logits - full.last_logits)) <= 1e-9
        assert np.max(np.abs(suffix.inflight - full.inflight)) <= 1e-9
        for ring_s, ring_f in zip(suffix.rings, full.rings, strict=True):
            ks, vs, start_s = ring_s.gather(len(tokens) - 1)
            kf, vf, start_f = ring_f.gather(len(tokens) - 1)
            assert start_s == start_f and ks.shape == kf.shape
            assert max(np.max(np.abs(ks - kf)), np.max(np.abs(vs - vf))) <= 1e-9


class TestCacheOccupancy:
    def test_window_rings_never_exceed_window(self):
        cfg = small(mode="plt", loops=3, gswa=True, window=3)
        params = init_parameters(cfg, seed=0)
        sess = prefill(params, np.arange(6) % cfg.vocab)
        for t in range(20):
            sess.step(t % cfg.vocab)
            assert all(r.entries() <= cfg.window for r in sess.rings)
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
        assert sess.prefill_rows == 3 * 4   # the window reach (6) spans the 4-token prompt

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
    def test_single_loop_has_one_row(self):
        cfg = small(mode="plt", loops=1)
        sess = prefill(init_parameters(cfg, 0), np.arange(4) % cfg.vocab)
        sess.step(1)
        assert len(sess.inflight) == 0


class TestOneBody:
    """Prefill and every decode step run the model's one layer body."""

    @pytest.mark.parametrize("kw, calls_per_token", [
        (dict(mode="vanilla"), 1),
        (dict(mode="vanilla_loop", loops=3), 3),
        (dict(mode="plt", loops=3), 1),
        (dict(mode="plt", loops=3, gswa=True, window=2), 1),
        (dict(mode="plt", loops=3, gswa=True, window=2, per_loop_gates=True), 1),
    ])
    def test_prefill_and_step_go_through_the_body(self, kw, calls_per_token, monkeypatch):
        calls = []
        body = parloop.model.block_stack_forward

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return body(*args, **kwargs)

        for module in (parloop.model, parloop.decode):   # decode's own name for it too
            monkeypatch.setattr(module, "block_stack_forward", counted, raising=False)
        cfg = small(**kw)
        params = init_parameters(cfg, seed=2)
        tokens = np.arange(9) % cfg.vocab
        full = forward(params, tokens).data[0]
        calls.clear()
        sess = prefill(params, tokens[:5])
        assert len(calls) == cfg.loops   # one pass per loop over the prompt
        calls.clear()
        for j in range(5, 9):
            assert np.max(np.abs(sess.step(int(tokens[j])) - full[j])) < 1e-9
        assert len(calls) == 4 * calls_per_token
        rows = 1 if cfg.mode == "vanilla_loop" else cfg.loops
        assert calls == [(rows, cfg.d_model)] * len(calls)


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

    @pytest.mark.parametrize("cfg_kw", ALL_MODES)
    def test_plain_array_parameters_decode_bitwise(self, cfg_kw):
        # a session runs on params.arrays() anyway; arrays of arrays are the same arrays
        params = init_parameters(small(**cfg_kw), seed=6)
        tokens = np.arange(9) % 17
        a, b = prefill(params, tokens[:5]), prefill(params.arrays(), tokens[:5])
        assert np.array_equal(a.last_logits, b.last_logits)
        for t in tokens[5:]:
            assert np.array_equal(a.step(int(t)), b.step(int(t)))


class TestLargeWeightSteps:
    """At d_model 128 and d_ff 1040 each MLP weight is 1,064,960 bytes, over
    ROWWISE_BYTES, so a step of 2 or 3 rows multiplies it one row at a
    time; 4 rows and one-row passes keep ``a @ w``."""

    @pytest.mark.parametrize("cfg_kw", [
        dict(mode="plt", loops=2),
        dict(mode="plt", loops=2, gswa=True, window=4),
        dict(mode="plt", loops=3),
        dict(mode="plt", loops=4),
        dict(mode="vanilla_loop", loops=2),
    ])
    def test_step_logits_match_full_forward(self, cfg_kw):
        cfg = ModelConfig(vocab=17, d_model=128, n_layers=2, n_heads=4, n_kv_heads=2,
                          d_ff=1040, max_seq=32, **cfg_kw)
        assert cfg.d_model * cfg.d_ff * 8 > ROWWISE_BYTES
        tokens = np.random.default_rng(7).integers(0, cfg.vocab, size=14)
        assert teacher_forcing_gap(cfg, seed=7, tokens=tokens, split=5) < 1e-9   # 9 steps

    def test_product_form_by_rows_and_weight_size(self):
        rng = np.random.default_rng(0)
        large = rng.standard_normal((128, 1040))
        at_limit = rng.standard_normal((128, 1024))   # 1 MiB exactly
        assert at_limit.nbytes == ROWWISE_BYTES
        for rows in (2, 3):
            a = rng.standard_normal((rows, 128))
            out = step_matmul(rows)(a, large)
            for r in range(rows):
                assert np.array_equal(out[r], (a[r:r + 1] @ large)[0])
            assert np.array_equal(step_matmul(rows)(a, at_limit), a @ at_limit)
        for rows in (1, 4):
            a = rng.standard_normal((rows, 128))
            assert np.array_equal(step_matmul(rows)(a, large), a @ large)


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
            cache = SharedKVCache(kh, dh, max_seq=16)
            cache.write(0, rng.standard_normal((kh, 10, dh)),
                        rng.standard_normal((kh, 10, dh)))
            k, v = cache.view(10)
            k_start, window = 0, 0
        else:                    # ring holding 5 of its 8 slots
            ring = WindowKVCache(8, kh, dh)
            for pos in range(5):
                ring.write(pos, rng.standard_normal((kh, 1, dh)),
                           rng.standard_normal((kh, 1, dh)))
            k, v, k_start = ring.gather(4)
            assert k.shape == (kh, 5, dh)
            window = 8
        q = rng.standard_normal((rows, kh * groups, dh))
        at = k_start + k.shape[1] - 1
        got = attention(q.transpose(1, 0, 2), k, v, np.full(rows, at),
                        window, k_start).transpose(1, 0, 2)
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
