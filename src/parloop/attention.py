"""Attention primitives: rotary embeddings, causal and banded masks, the
attention kernel, head-wise gate fusion, and the two decode-time stores of
one layer (an append-only cache, a sliding-window ring), each with one
``write`` of a run.

``attention`` is the only attention implementation; prefill, training and
decode all run it, on plain arrays or, as one tape op with its own
block-wise backward, on Tensors. Query heads that share a key/value head are
stacked against that head's keys and values in place (grouped-query
attention), and queries are tiled in fixed blocks that each visit only the
band of keys they can see, in the manner of FlashAttention. A causal block
masks only its diagonal columns, and a block whose rows share one position
(a decode step's single block) builds no mask. The softmax is normalised
after the value product, by dividing the output by the row sums.

The window ring is mirrored (each position is stored twice, ``window``
slots apart), so the positions it holds are always one ordered, contiguous
run that ``gather`` returns as views, with the position the run starts at.

Conventions: query/key/value tensors are [..., heads, seq, d_head]; masks
are additive float arrays broadcastable to the score shape, 0 where allowed
and -inf where blocked. Rotary rotation uses the half-split layout (first
half of head dims pairs with the second half); ``apply_rope`` is its one
implementation, a single tape op whose backward is the inverse rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, ConfigError, DimensionError, EmptyContextError, NumericError,
                     PositionError)
from .tensor import Tensor, is_int, needs_grad, node, sigmoid

NEG_INF = float("-inf")
ROPE_THETA = 10000.0   # rotary base: pair i turns by ROPE_THETA ** (-i / half) per position


# ---------------------------------------------------------------------------
# rotary position embedding
# ---------------------------------------------------------------------------


@dataclass
class RopeTables:
    cos: np.ndarray  # [max_seq, d_head]: cos of each pair's angle, twice
    sin: np.ndarray  # [max_seq, d_head]: -sin, then sin


def build_rope_tables(max_seq: int, d_head: int) -> RopeTables:
    if d_head % 2 != 0:
        raise ConfigError(f"d_head {d_head} must be even for rotary embedding")
    half = d_head // 2
    freqs = ROPE_THETA ** (-np.arange(half, dtype=np.float64) / half)
    try:
        angles = np.arange(max_seq, dtype=np.float64)[:, None] * freqs[None, :]
    except (MemoryError, ValueError) as e:   # ValueError: past numpy's largest array
        raise ConfigError(f"max_seq {max_seq} is too large for the rotary tables: {e}") from e
    cos, sin = np.cos(angles), np.sin(angles)
    return RopeTables(cos=np.concatenate([cos, cos], axis=1),
                      sin=np.concatenate([-sin, sin], axis=1))


def apply_rope(x: Tensor, positions, tables: RopeTables) -> Tensor:
    """Rotate [..., seq, d_head] by the per-entry positions (an int rotates
    every row by one position): [x1, x2] -> [x1 cos - x2 sin, x2 cos + x1 sin],
    formed as [x2, x1] * [-sin, sin] + x * [cos, cos] in three array ops. On
    the tape it is one op whose backward is the inverse rotation."""
    plain = not isinstance(x, Tensor)
    xd = x if plain else x.data
    cos, sin = tables.cos[positions], tables.sin[positions]   # [seq, d_head], broadcast
    half = xd.shape[-1] // 2
    out = np.concatenate([xd[..., half:], xd[..., :half]], axis=-1)
    out *= sin
    out += xd * cos
    if plain:
        return out

    def bwd(g):   # the inverse rotation, negating only the rows gathered above
        x._accum(apply_rope(g, slice(None), RopeTables(cos, -sin)))

    return node(out, (x,), bwd)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def causal_mask(q_positions: np.ndarray, k_positions: np.ndarray) -> np.ndarray:
    """0 where key position <= query position, else -inf. Shape [nq, nk]."""
    q = np.asarray(q_positions)[:, None]
    k = np.asarray(k_positions)[None, :]
    return np.where(k <= q, 0.0, NEG_INF)


def band_mask(q_positions: np.ndarray, k_positions: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window causal mask: key in (q - window, q]. Shape [nq, nk]."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    q = np.asarray(q_positions)[:, None]
    k = np.asarray(k_positions)[None, :]
    return np.where((k <= q) & (k > q - window), 0.0, NEG_INF)


# ---------------------------------------------------------------------------
# attention kernel
# ---------------------------------------------------------------------------

# Query rows per tile. Larger tiles visit more masked-out keys and, on the
# window path, more keys outside the band; smaller ones pay more per-call
# overhead. Timed on a 2-vCPU Intel Xeon (Haswell kernels), one OpenBLAS
# 0.3.31 thread, numpy 2.4, float64, best of 3 over 20 rotating rounds:
# prefill of a 512-token prompt (d_model 128, 2 layers, 8 query / 2 kv
# heads, window 16) took 12.6 / 35.4 / 12.6 / 14.6 ms for vanilla /
# vanilla_loop-2 / plt-2 / plt-2+gswa at 32, within noise at 16 (16 won
# 9-10 of 20 rounds) and 13.2 / 37.8 / 13.6 / 15.6 at 64. At 16, 64-token
# prompts (d_model 256, 4 layers) and copy-task training (199 against
# 178 ms per 4 steps) were slower.
BLOCK = 32


def _exp_rows(s: np.ndarray) -> np.ndarray:
    """Replace scores ``s`` in place by exp(s - row max), the unnormalised
    softmax over the last axis, and return the row sums; NaN (or a row
    without a finite score) raises NumericError."""
    top = s.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise NumericError("attention scores contain NaN or a row with no finite entry")
    s -= top
    np.exp(s, out=s)
    return s.sum(axis=-1, keepdims=True)


def attention(q, k, v, q_pos, window: int = 0, k_start: int = 0):
    """Grouped, block-banded scaled dot-product attention.

    q: [..., heads, n, dh] with row i at position q_pos[i] (q_pos a
    nondecreasing array or list, or an int for rows that all sit at one
    position); k, v: [..., kv_heads, m, dh] at positions
    k_start .. k_start + m - 1. Query head h reads key/value head
    h // (heads // kv_heads) in place: the heads of a group are stacked into
    one matrix and never repeated. A query sees the keys at or before its
    position; with window > 0, only the last ``window`` of them.

    Rows are tiled BLOCK at a time, and each tile multiplies against just
    the key range [lo, hi) its rows can see; a mask is built only for a tile
    in which some row cannot see that whole range, so a tile whose rows share
    one position (a decode step) never builds one. A causal tile's mask
    covers only the columns from its first row's position on (its diagonal),
    since every row sees the keys before that; the window's band mask spans
    the tile. Each tile multiplies the unnormalised exp(scores - row max) by
    the values and divides that output by the row sums.

    Plain arrays give a plain array. On Tensors it is one tape op: when a
    backward will run, each tile's scores are divided by their row sums after
    the value product and kept as probabilities, and the backward forms each
    tile's share of dQ, dK and dV from them, without a dense score matrix.

    A query with no visible key raises EmptyContextError; NaN (or a row
    without a finite score) raises NumericError.
    """
    plain = not isinstance(q, Tensor)
    qd, kd, vd = (q, k, v) if plain else (q.data, k.data, v.data)
    *lead, heads, n, dh = qd.shape
    if isinstance(q_pos, int):
        q_pos = [q_pos] * n
    kh, m = kd.shape[-3], kd.shape[-2]
    groups = heads // kh
    k_end = k_start + m
    if m == 0 or k_start > q_pos[0] or (window and k_end <= q_pos[-1] - window + 1):
        raise EmptyContextError("query position with no attendable key")
    scale = 1.0 / math.sqrt(dh)
    keep = not plain and needs_grad(q, k, v)
    tiles = []   # (i0, i1, lo, hi, probabilities), key indices [lo, hi), when kept
    q5 = qd.reshape(*lead, kh, groups, n, dh)
    out = []
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK, n)
        t0, t1 = q_pos[i0], q_pos[i1 - 1]
        lo = max(k_start, t0 - window + 1) if window else k_start
        hi = min(k_end, t1 + 1)
        rows = groups * (i1 - i0)
        qb = q5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
        s = (qb * scale) @ kd[..., lo - k_start:hi - k_start, :].swapaxes(-1, -2)
        band = s.reshape(*lead, kh, groups, i1 - i0, hi - lo)
        if window and (t0 < hi - 1 or lo <= t1 - window):
            band += band_mask(q_pos[i0:i1], np.arange(lo, hi), window)
        elif not window and t0 < hi - 1:
            # every row sees the keys before t0: only the diagonal needs a mask
            c = max(t0, lo)
            band[..., c - lo:] += causal_mask(q_pos[i0:i1], np.arange(c, hi))
        total = _exp_rows(s)
        y = s @ vd[..., lo - k_start:hi - k_start, :]
        y /= total
        out.append(y.reshape(*lead, kh, groups, i1 - i0, dh))
        if keep:
            s /= total   # the backward reads probabilities
            tiles.append((i0, i1, lo - k_start, hi - k_start, s))
    y5 = out[0] if len(out) == 1 else np.concatenate(out, axis=-2)
    y = y5.reshape(qd.shape)
    if plain:
        return y

    def bwd(g):
        g5 = g.reshape(y5.shape)
        dq = np.empty(y5.shape, dtype=g.dtype)
        dk = np.zeros(kd.shape, dtype=g.dtype)
        dv = np.zeros(vd.shape, dtype=g.dtype)
        for i0, i1, lo, hi, p in tiles:
            rows = groups * (i1 - i0)
            gb = g5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
            qb = q5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
            yb = y5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
            dv[..., lo:hi, :] += p.swapaxes(-1, -2) @ gb
            ds = gb @ vd[..., lo:hi, :].swapaxes(-1, -2)
            ds -= (gb * yb).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            dq[..., i0:i1, :] = (ds @ kd[..., lo:hi, :]).reshape(
                *lead, kh, groups, i1 - i0, dh)
            dk[..., lo:hi, :] += ds.swapaxes(-1, -2) @ qb
        for t, d in ((q, dq.reshape(qd.shape)), (k, dk), (v, dv)):
            if t.requires_grad:
                t._accum(d)

    return node(y, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# head-wise gate
# ---------------------------------------------------------------------------


def gate_values(weight: Tensor, bias: Tensor, q_full: Tensor) -> Tensor:
    """The per-head gate from the pre-rotation query projection q_full
    [..., n, d_model]: sigmoid(q_full @ weight + bias), weight [..., d_model,
    h] and bias broadcasting to [..., n, h] (stacked gates [G, d_model, h] /
    [G, 1, h] serve G leading rows), reshaped to [..., h, n, 1] for fusion."""
    logits = q_full @ weight + bias  # [..., n, h]
    g = sigmoid(logits).swapaxes(-1, -2)   # [..., h, n]
    return g.reshape(*g.shape, 1)


def gated_fuse(g: Tensor, y_local: Tensor, y_global: Tensor) -> Tensor:
    """g * y_local + (1 - g) * y_global, per head and position."""
    return g * y_local + (1.0 - g) * y_global


# ---------------------------------------------------------------------------
# decode-time caches
# ---------------------------------------------------------------------------


def _run_length(store: np.ndarray, k, v) -> int:
    """n, for keys and values both [*heads, n, d_head] to fit ``store`` [*heads, slots, d_head]."""
    want = (*store.shape[:-2], np.shape(k)[-2] if np.ndim(k) >= 2 else None, store.shape[-1])
    if np.shape(k) != want or np.shape(v) != want:
        raise DimensionError(f"keys {np.shape(k)} and values {np.shape(v)} are not both "
                             f"[*heads, n, d_head] for a store of {store.shape}")
    return want[-2]


def _check_index(what: str, value, stop: float = math.inf) -> None:
    if not is_int(value) or not 0 <= value < stop:
        raise PositionError(f"{what} {value!r}, expected an integer in [0, {stop})")


class SharedKVCache:
    """Append-only key/value store of one layer, preallocated to max_seq.

    Written by the first loop, the prompt's run of positions and then one
    per step, and read by every loop. Entry layout is [n_kv_heads, max_seq,
    d_head]. A position is visible once it is written (queries in the same
    step slice up to pos + 1).
    """

    def __init__(self, n_kv_heads: int, d_head: int, max_seq: int):
        self.max_seq = max_seq
        self.k = np.zeros((n_kv_heads, max_seq, d_head))
        self.v = np.zeros_like(self.k)

    def write(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store keys/values ([n_kv_heads, n, d_head]) from position `start`."""
        _check_index("cache write at position", start)
        end = start + _run_length(self.k, k, v)
        if end > self.max_seq:
            raise CapacityError(f"cache full: {end} > max_seq {self.max_seq}")
        self.k[:, start:end, :] = k
        self.v[:, start:end, :] = v

    def view(self, upto: int):
        """Keys/values for positions [0, upto) as [n_kv_heads, upto, d_head]."""
        _check_index("cache view up to", upto, self.max_seq + 1)
        return self.k[:, :upto, :], self.v[:, :upto, :]


class WindowKVCache:
    """Fixed-size ring of the last `window` positions of keys/values.

    ``n_kv_heads`` is the head count or, for a ring that serves several
    loops at once, the leading axes (a decode session's is [window_loops,
    n_kv_heads]). The ring is mirrored: keys/values are [*heads, 2 * window,
    d_head], and position p is written to slot p % window and again to slot
    p % window + window. Any run of at most `window` consecutive positions
    therefore sits in one contiguous, ordered stretch of slots, so `gather`
    hands out views and never sorts or copies. Runs of positions are written
    in order (`lo` is the oldest held, `hi` the newest), and occupancy never
    exceeds the window regardless of how long decoding runs.
    """

    def __init__(self, window: int, n_kv_heads: int, d_head: int):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.window = window
        self.k = np.zeros((*np.atleast_1d(n_kv_heads), 2 * window, d_head))
        self.v = np.zeros_like(self.k)
        self.lo, self.hi = 0, -1   # empty while hi < lo

    def _hold(self, start: int, end: int) -> None:
        """Record that positions [start, end] were just written, in order."""
        empty = self.hi < self.lo
        if not empty and start != self.hi + 1:
            raise PositionError(f"ring write at position {start}, expected {self.hi + 1}")
        self.lo = max(start if empty else self.lo, end - self.window + 1)
        self.hi = end

    def write(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store keys/values ([*heads, n, d_head]) from `start` on; keep the last `window`."""
        _check_index("ring write at position", start)
        n = _run_length(self.k, k, v)   # checked before _hold records the run
        self._hold(start, start + n - 1)
        for i in range(max(0, n - self.window), n):
            both = slice((start + i) % self.window, None, self.window)   # the slot and its mirror
            self.k[..., both, :] = k[..., i:i + 1, :]
            self.v[..., both, :] = v[..., i:i + 1, :]

    def gather(self, query_pos: int):
        """All held entries visible from `query_pos`, ordered by position.

        Returns (k, v, start): k/v as [*heads, m, d_head] views of the ring,
        whose entry i holds position start + i.
        """
        lo = max(self.lo, query_pos - self.window + 1)
        m = max(min(self.hi, query_pos) - lo + 1, 0)
        s = lo % self.window
        return self.k[..., s:s + m, :], self.v[..., s:s + m, :], lo

    def entries(self) -> int:
        return self.hi - self.lo + 1
