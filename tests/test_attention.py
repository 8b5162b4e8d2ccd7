"""Attention primitives against brute-force per-position oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from parloop.attention import (
    BLOCK,
    SharedKVCache,
    WindowKVCache,
    apply_rope,
    attention,
    band_mask,
    build_rope_tables,
    causal_mask,
    gate_values,
    gated_fuse,
)
from parloop.errors import (
    CapacityError,
    ConfigError,
    EmptyContextError,
    NumericError,
)
from parloop.gradcheck import grad_check
from parloop.model import ModelConfig, forward, init_parameters
from parloop.tensor import Tensor

from test_tensor import numeric_grad, rel


def naive_attend(q, k, v, allowed):
    """Per-head, per-query softmax attention with an explicit allowed set."""
    h, n, dh = q.shape
    out = np.zeros((h, n, v.shape[-1]))
    for hh in range(h):
        for i in range(n):
            js = np.nonzero(allowed[i])[0]
            scores = np.array([q[hh, i] @ k[hh, j] for j in js]) / math.sqrt(dh)
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            out[hh, i] = sum(w[a] * v[hh, js[a]] for a in range(len(js)))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestRope:
    def test_position_zero_is_identity(self, rng):
        tables = build_rope_tables(8, 6)
        x = rng.normal(size=(2, 3, 1, 6))
        y = apply_rope(x, np.array([0]), tables)
        assert np.allclose(y, x, atol=1e-15)

    def test_rotation_preserves_norm(self, rng):
        tables = build_rope_tables(64, 8)
        x = rng.normal(size=(4, 5, 8))
        y = apply_rope(x, np.arange(5), tables)
        assert np.allclose(np.linalg.norm(y, axis=-1),
                           np.linalg.norm(x, axis=-1), atol=1e-12)

    def test_dot_products_depend_only_on_relative_offset(self, rng):
        tables = build_rope_tables(64, 8)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(1, 8))
        d1 = apply_rope(q, np.array([5]), tables)[0] @ \
            apply_rope(k, np.array([3]), tables)[0]
        d2 = apply_rope(q, np.array([9]), tables)[0] @ \
            apply_rope(k, np.array([7]), tables)[0]
        assert abs(d1 - d2) < 1e-12

    def test_tensor_and_array_paths_agree(self, rng):
        tables = build_rope_tables(16, 10)
        x = rng.normal(size=(2, 4, 7, 10))
        pos = np.array([3, 0, 5, 5, 1, 2, 9])
        a = apply_rope(Tensor(x), pos, tables).data
        b = apply_rope(x, pos, tables)
        assert isinstance(b, np.ndarray)
        assert np.array_equal(a, b)

    def test_single_op_grad_against_central_differences(self, rng):
        tables = build_rope_tables(16, 6)
        xv = rng.normal(size=(2, 3, 7, 6))
        pos = np.array([3, 0, 5, 5, 1, 9, 2])
        w = rng.normal(size=xv.shape)
        x = Tensor(xv, requires_grad=True)
        y = apply_rope(x, pos, tables)
        assert y._parents == (x,)  # one tape node
        (y * w).sum().backward()
        g = numeric_grad(lambda v: float((apply_rope(v, pos, tables) * w).sum()), xv.copy())
        assert rel(x.grad, g) < 1e-6

    def test_backward_allocates_only_the_gathered_rows(self, rng):
        tables = build_rope_tables(200_000, 8)   # 12.8 MB per table
        x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        loss = (apply_rope(x, np.arange(4), tables) * rng.normal(size=(2, 4, 8))).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            build_rope_tables(8, 5)


class TestMasks:
    def test_causal_allows_exactly_past_and_self(self):
        m = causal_mask(np.arange(4), np.arange(4))
        want = np.where(np.tril(np.ones((4, 4))) > 0, 0.0, -np.inf)
        assert np.array_equal(m, want)

    def test_band_width_two_at_position_three(self):
        m = band_mask(np.array([3]), np.arange(5), window=2)
        assert list(np.isfinite(m[0])) == [False, False, True, True, False]

    def test_band_width_one_is_self_only(self):
        m = band_mask(np.arange(3), np.arange(3), window=1)
        assert np.array_equal(np.isfinite(m), np.eye(3, dtype=bool))
        with pytest.raises(ConfigError):
            band_mask(np.arange(3), np.arange(3), window=0)

    def test_offset_query_positions(self):
        m = causal_mask(np.array([6, 7]), np.arange(5, 9))
        assert np.array_equal(np.isfinite(m),
                              np.array([[True, True, False, False],
                                        [True, True, True, False]]))


def allowed_set(n, window=0):
    """Visibility of key j from query i over positions 0 .. n - 1."""
    i, j = np.arange(n)[:, None], np.arange(n)[None, :]
    return (j <= i) & ((j > i - window) if window else True)


class TestAttendCore:
    def test_causal_matches_bruteforce(self, rng):
        h, n, dh = 3, 5, 4
        q = rng.normal(size=(h, n, dh))
        k = rng.normal(size=(h, n, dh))
        v = rng.normal(size=(h, n, dh))
        out = attention(Tensor(q), Tensor(k), Tensor(v), np.arange(n)).data
        want = naive_attend(q, k, v, np.tril(np.ones((n, n), dtype=bool)))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_banded_matches_bruteforce(self, rng):
        h, n, dh, w = 2, 6, 4, 3
        q = rng.normal(size=(h, n, dh))
        k = rng.normal(size=(h, n, dh))
        v = rng.normal(size=(h, n, dh))
        out = attention(Tensor(q), Tensor(k), Tensor(v), np.arange(n), w).data
        allowed = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                allowed[i, j] = j <= i and j > i - w
        assert np.max(np.abs(out - naive_attend(q, k, v, allowed))) < 1e-12

    def test_grouped_kv_heads_equal_explicit_repeat(self, rng):
        q = rng.normal(size=(4, 5, 8))
        k = rng.normal(size=(2, 5, 8))
        v = rng.normal(size=(2, 5, 8))
        out = attention(Tensor(q), Tensor(k), Tensor(v), np.arange(5)).data
        want = naive_attend(q, np.repeat(k, 2, axis=0), np.repeat(v, 2, axis=0),
                            np.tril(np.ones((5, 5), dtype=bool)))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_fully_blocked_row_raises(self, rng):
        q = rng.normal(size=(1, 2, 4))
        k = rng.normal(size=(1, 2, 4))
        with pytest.raises(EmptyContextError):   # query 0 precedes keys 1, 2
            attention(q, k, k, np.arange(2), k_start=1)
        with pytest.raises(EmptyContextError):   # query 5 is past keys 0, 1
            attention(q, k, k, np.array([4, 5]), window=4)

    def test_nan_score_raises(self, rng):
        q = rng.normal(size=(2, 3, 4))
        k = rng.normal(size=(2, 3, 4))
        q[1, 2, 0] = np.nan
        with pytest.raises(NumericError):
            attention(q, k, k, np.arange(3))


class TestKernel:
    """The tiled kernel against the per-head oracle across tile boundaries."""

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, BLOCK, 2 * BLOCK + 3])
    @pytest.mark.parametrize("window", [0, 5, BLOCK + 7, 2 * BLOCK + 3])
    def test_matches_naive_oracle(self, n, window, groups):
        rng = np.random.default_rng(1000 * n + 10 * window + groups)
        kh, dh = 2, 4
        q = rng.normal(size=(kh * groups, n, dh))
        k = rng.normal(size=(kh, n, dh))
        v = rng.normal(size=(kh, n, dh))
        out = attention(q, k, v, np.arange(n), window=window)
        want = naive_attend(q, np.repeat(k, groups, axis=0),
                            np.repeat(v, groups, axis=0), allowed_set(n, window))
        assert np.max(np.abs(out - want)) < 1e-12

    @pytest.mark.parametrize("window", [0, 5])
    def test_grads_match_finite_differences_across_tiles(self, window):
        rng = np.random.default_rng(window)
        b, kh, groups, n, dh = 2, 2, 2, BLOCK + 6, 4
        q = Tensor(rng.normal(size=(b, kh * groups, n, dh)), requires_grad=True)
        k = Tensor(rng.normal(size=(b, kh, n, dh)), requires_grad=True)
        v = Tensor(rng.normal(size=(b, kh, n, dh)), requires_grad=True)
        w = rng.normal(size=q.shape)

        def loss_fn():
            return (attention(q, k, v, np.arange(n), window) * w).sum()

        res = grad_check(loss_fn, {"q": q, "k": k, "v": v}, max_coords=40, seed=window)
        assert res.passed, res.summary()

    @pytest.mark.parametrize("window", [0, 5])
    def test_keys_from_k_start_act_as_shifted_positions(self, window):
        # a suffix pass: queries and keys both at positions s .. s + n - 1
        rng = np.random.default_rng(7 + window)
        s, n = 9, BLOCK + 6
        q = Tensor(rng.normal(size=(4, n, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, n, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, n, 4)), requires_grad=True)
        w = rng.normal(size=q.shape)
        got = attention(q, k, v, np.arange(s, s + n), window, k_start=s)
        assert np.array_equal(got.data, attention(q, k, v, np.arange(n), window).data)

        def loss_fn():
            return (attention(q, k, v, np.arange(s, s + n), window, k_start=s) * w).sum()

        res = grad_check(loss_fn, {"q": q, "k": k, "v": v}, max_coords=20, seed=window)
        assert res.passed, res.summary()

    @pytest.mark.parametrize("window", [0, 5])
    @pytest.mark.parametrize("k_start", [0, 5])
    def test_later_queries_against_earlier_keys(self, k_start, window):
        # a later loop's suffix: queries at s .. s + n - 1, s off the tile
        # grid, read keys from k_start (a cache filled from the prompt's start)
        rng = np.random.default_rng(31 + k_start + window)
        s, n = BLOCK // 2 + 3, 2 * BLOCK + 3
        m = s + n - k_start
        q = rng.normal(size=(4, n, 4))
        k = rng.normal(size=(2, m, 4))
        v = rng.normal(size=(2, m, 4))
        out = attention(q, k, v, np.arange(s, s + n), k_start=k_start, window=window)
        allowed = allowed_set(s + n, window)[s:, k_start:]
        want = naive_attend(q, np.repeat(k, 2, axis=0), np.repeat(v, 2, axis=0), allowed)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_causal_mask_covers_only_each_tiles_diagonal(self, rng, monkeypatch):
        import parloop.attention as attn
        shapes = []

        def recorded(q_positions, k_positions):
            shapes.append((len(q_positions), len(k_positions)))
            return causal_mask(q_positions, k_positions)
        monkeypatch.setattr(attn, "causal_mask", recorded)
        n = 2 * BLOCK + 3
        q = rng.normal(size=(4, n, 4))
        k = rng.normal(size=(2, n, 4))
        out = attention(q, k, k, np.arange(n))
        assert shapes == [(BLOCK, BLOCK), (BLOCK, BLOCK), (3, 3)]
        want = naive_attend(q, np.repeat(k, 2, axis=0), np.repeat(k, 2, axis=0),
                            allowed_set(n))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_grouped_kv_grad_sums_over_copies(self, rng):
        q = Tensor(rng.normal(size=(2, 6, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(2, 6, 3, 4))
        (attention(q, k, k, np.arange(3)) * w).sum().backward()

        def f(kv):
            kr = np.repeat(kv, 3, axis=-3)
            return float(sum((naive_attend(q.data[b], kr[b], kr[b], allowed_set(3))
                              * w[b]).sum() for b in range(2)))
        assert rel(k.grad, numeric_grad(f, k.data.copy())) < 1e-6

    def test_rows_at_one_position_build_no_mask(self, rng, monkeypatch):
        import parloop.attention as attn

        def no_mask(*args):
            raise AssertionError("mask built for a single-position tile")
        monkeypatch.setattr(attn, "causal_mask", no_mask)
        monkeypatch.setattr(attn, "band_mask", no_mask)
        q = rng.normal(size=(4, 3, 4))      # three rows, all at position 6
        k = rng.normal(size=(2, 7, 4))
        out = attention(q, k, k, np.full(3, 6))
        want = naive_attend(q, np.repeat(k, 2, axis=0), np.repeat(k, 2, axis=0),
                            np.ones((3, 7), dtype=bool))
        assert np.max(np.abs(out - want)) < 1e-12
        ring = attention(q, k[:, 3:], k[:, 3:], np.full(3, 6), k_start=3, window=4)
        assert np.array_equal(ring, attention(q, k[:, 3:], k[:, 3:], np.full(3, 6),
                                              k_start=3))

    def test_single_tile_path_keeps_its_errors(self, rng):
        q = rng.normal(size=(4, 1, 8))
        k = rng.normal(size=(2, 5, 8))
        with pytest.raises(EmptyContextError):      # no keys at all
            attention(q, k[:, :0], k[:, :0], [4])
        with pytest.raises(EmptyContextError):      # every key after the query
            attention(q, k, k, [2], k_start=3)
        with pytest.raises(EmptyContextError):      # every key before the window
            attention(q, k, k, [20], k_start=3, window=4)
        q[1, 0, 3] = np.nan
        with pytest.raises(NumericError):
            attention(q, k, k, [7], k_start=3)

    @pytest.mark.parametrize("kw", [dict(mode="vanilla"),
                                    dict(mode="vanilla_loop", loops=2),
                                    dict(mode="plt", loops=3, gswa=True, window=5)])
    def test_perturbing_after_a_tile_boundary_keeps_earlier_logits(self, kw):
        cfg = ModelConfig(vocab=13, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
                          d_ff=24, max_seq=2 * BLOCK, **kw)
        params = init_parameters(cfg, 5)
        tokens = np.random.default_rng(2).integers(0, 13, size=BLOCK + 12)
        j = BLOCK + 4
        bumped = tokens.copy()
        bumped[j] = (bumped[j] + 1) % 13
        a = forward(params, tokens).data[0]
        b = forward(params, bumped).data[0]
        assert np.array_equal(a[:j], b[:j])
        assert not np.array_equal(a[j], b[j])


class TestGate:
    def test_values_shape_and_range(self, rng):
        d, h = 8, 4
        g = gate_values(Tensor(rng.normal(size=(d, h))), Tensor(rng.normal(size=h)),
                        Tensor(rng.normal(size=(2, 5, d))))
        assert g.shape == (2, h, 5, 1)
        assert np.all(g.data > 0) and np.all(g.data < 1)

    def test_saturated_gate_selects_one_path_exactly(self, rng):
        d, h = 4, 2
        y_local = Tensor(rng.normal(size=(h, 3, 5)))
        y_global = Tensor(rng.normal(size=(h, 3, 5)))
        q = Tensor(np.ones((3, d)))
        g = gate_values(Tensor(np.full((d, h), np.inf)), Tensor(np.zeros(h)), q)   # all local
        fused = gated_fuse(g, y_local, y_global)
        assert np.array_equal(fused.data, y_local.data)
        g = gate_values(Tensor(np.full((d, h), -np.inf)), Tensor(np.zeros(h)), q)   # all global
        fused = gated_fuse(g, y_local, y_global)
        assert np.array_equal(fused.data, y_global.data)

    def test_fusion_stays_in_convex_hull(self, rng):
        g = Tensor(rng.uniform(size=(2, 4, 1)))
        a = Tensor(rng.normal(size=(2, 4, 6)))
        b = Tensor(rng.normal(size=(2, 4, 6)))
        fused = gated_fuse(g, a, b).data
        lo = np.minimum(a.data, b.data)
        hi = np.maximum(a.data, b.data)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)


class TestSharedKVCache:
    def test_write_then_view_roundtrip(self, rng):
        c = SharedKVCache(n_kv_heads=3, d_head=4, max_seq=8)
        k0 = rng.normal(size=(3, 1, 4))
        v0 = rng.normal(size=(3, 1, 4))
        c.write(start=0, k=k0, v=v0)
        k, v = c.view(upto=1)
        assert np.array_equal(k, k0)
        assert np.array_equal(v, v0)

    def test_block_write_matches_loop_of_writes(self, rng):
        # a run equals the same positions written as one-position runs
        a = SharedKVCache(2, 4, max_seq=6)
        b = SharedKVCache(2, 4, max_seq=6)
        ks = rng.normal(size=(2, 5, 4))
        vs = rng.normal(size=(2, 5, 4))
        a.write(0, ks, vs)
        for p in range(5):
            b.write(p, ks[:, p:p + 1], vs[:, p:p + 1])
        assert np.array_equal(a.k, b.k) and np.array_equal(a.v, b.v)

    def test_capacity_exceeded_raises(self):
        c = SharedKVCache(1, 2, max_seq=2)
        c.write(0, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))
        c.write(1, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))
        with pytest.raises(CapacityError):
            c.write(2, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))
        with pytest.raises(CapacityError):
            c.write(1, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))


class TestWindowKVCache:
    def test_occupancy_never_exceeds_window(self, rng):
        c = WindowKVCache(window=3, n_kv_heads=1, d_head=2)
        for p in range(10):
            c.write(p, rng.normal(size=(1, 1, 2)), rng.normal(size=(1, 1, 2)))
            assert c.entries() <= 3
        assert c.entries() == 3

    def test_gather_returns_last_window_sorted(self, rng):
        c = WindowKVCache(window=4, n_kv_heads=2, d_head=3)
        stored = {}
        for p in range(9):
            k = rng.normal(size=(2, 1, 3))
            v = rng.normal(size=(2, 1, 3))
            stored[p] = (k, v)
            c.write(p, k, v)
        k, v, start = c.gather(query_pos=8)
        assert start == 5 and k.shape[-2] == v.shape[-2] == 4
        for i, p in enumerate(range(start, start + 4)):
            assert np.array_equal(k[:, i:i + 1, :], stored[p][0])
            assert np.array_equal(v[:, i:i + 1, :], stored[p][1])

    def test_gather_partial_fill(self, rng):
        c = WindowKVCache(window=5, n_kv_heads=1, d_head=2)
        c.write(0, rng.normal(size=(1, 1, 2)), rng.normal(size=(1, 1, 2)))
        c.write(1, rng.normal(size=(1, 1, 2)), rng.normal(size=(1, 1, 2)))
        k, v, start = c.gather(query_pos=1)
        assert start == 0
        assert k.shape == (1, 2, 2)

    def test_minimum_window_rejected(self):
        with pytest.raises(ConfigError):
            WindowKVCache(window=0, n_kv_heads=1, d_head=2)

    @pytest.mark.parametrize("window", [1, 3, 4])
    def test_gather_returns_ordered_views_across_wraps(self, rng, window):
        c = WindowKVCache(window=window, n_kv_heads=2, d_head=3)
        stored = {}
        for p in range(4 * window + 2):     # partly filled first, then 4 wraps
            stored[p] = rng.normal(size=(2, 2, 1, 3))
            c.write(p, *stored[p])
            k, v, start = c.gather(query_pos=p)
            assert np.shares_memory(k, c.k) and np.shares_memory(v, c.v)
            pos = range(start, start + k.shape[-2])
            assert list(pos) == list(range(max(0, p - window + 1), p + 1))
            assert c.entries() == len(pos) == min(p + 1, window)
            for i, q in enumerate(pos):
                assert np.array_equal(k[:, i], stored[q][0][:, 0])
                assert np.array_equal(v[:, i], stored[q][1][:, 0])

    @pytest.mark.parametrize("start, n", [(0, 1), (0, 3), (0, 4), (0, 11), (6, 2)])
    def test_block_write_matches_position_writes(self, rng, start, n):
        # a run equals the same positions written as one-position runs
        kv = rng.normal(size=(2, 2, n + 5, 3))
        a = WindowKVCache(window=4, n_kv_heads=2, d_head=3)
        b = WindowKVCache(window=4, n_kv_heads=2, d_head=3)
        a.write(start, kv[0, :, :n], kv[1, :, :n])
        for i in range(n + 5):   # b by runs of one; both carry on past a's run
            one = slice(i, i + 1)
            if i >= n:
                a.write(start + i, kv[0, :, one], kv[1, :, one])
            b.write(start + i, kv[0, :, one], kv[1, :, one])
            if i >= n - 1:
                assert a.entries() == b.entries()
                for q in range(start, start + i + 1):
                    for x, y in zip(a.gather(q), b.gather(q)):
                        assert np.array_equal(x, y)
