"""Attention primitives: rotary embeddings, causal and banded masks, the
attention kernel, head-wise gate fusion, and the two decode-time caches
(append-only per-layer cache, fixed-size sliding-window ring).

The kernel is the only attention implementation; prefill, training and
decode all run it. Query heads that share a key/value head are stacked
against that head's keys and values in place (grouped-query attention), and
queries are tiled in fixed blocks that each visit only the band of keys
they can see, in the manner of FlashAttention; rows that share one position
and fit one block (a decode step) skip the tiling. On the tape it is a
single op with its own block-wise backward.

The window ring is mirrored (each position is stored twice, ``window``
slots apart), so the positions it holds are always one ordered, contiguous
run that ``gather`` returns as views.

Conventions: query/key/value tensors are [..., heads, seq, d_head]; masks
are additive float arrays broadcastable to the score shape, 0 where allowed
and -inf where blocked. Rotary rotation uses the half-split layout (first
half of head dims pairs with the second half); ``apply_rope_np`` is its one
implementation, and ``apply_rope`` runs it as a single tape op whose
backward is the inverse rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, EmptyContextError, NumericError, PositionError
from .tensor import Tensor, needs_grad, node, sigmoid

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# rotary position embedding
# ---------------------------------------------------------------------------


@dataclass
class RopeTables:
    cos: np.ndarray  # [max_seq, d_head // 2]
    sin: np.ndarray


def build_rope_tables(max_seq: int, d_head: int, theta: float = 10000.0) -> RopeTables:
    if d_head % 2 != 0:
        raise ConfigError(f"d_head {d_head} must be even for rotary embedding")
    half = d_head // 2
    freqs = theta ** (-np.arange(half, dtype=np.float64) / half)
    angles = np.arange(max_seq, dtype=np.float64)[:, None] * freqs[None, :]
    return RopeTables(cos=np.cos(angles), sin=np.sin(angles))


def apply_rope_np(x: np.ndarray, positions, tables: RopeTables) -> np.ndarray:
    """Rotate [..., seq, d_head] by the per-entry positions (an int rotates
    every row by one position)."""
    half = x.shape[-1] // 2
    cos = tables.cos[positions]  # [seq, half], broadcasts over leading dims
    sin = tables.sin[positions]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def apply_rope(x: Tensor, positions: np.ndarray, tables: RopeTables) -> Tensor:
    """``apply_rope_np`` as one tape op; its backward is the inverse rotation."""
    def bwd(g):
        x._accum(apply_rope_np(g, positions, RopeTables(tables.cos, -tables.sin)))

    return node(apply_rope_np(x.data, positions, tables), (x,), bwd)


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
# overhead. Prefill of a 512-token prompt (d_model 128, 8 query / 2 kv heads,
# window 16, float64, one OpenBLAS thread on a 2-vCPU Xeon) ran fastest at 32:
# plt+gswa 88 ms vs 96 at 64 and 136 at 128; at 64-token prompts 16..128 were
# within noise of each other.
BLOCK = 32


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of scores ``s``, in place; NaN (or a row
    without a finite score) raises NumericError."""
    top = s.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise NumericError("attention scores contain NaN or a row with no finite entry")
    s -= top
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def attention_np(q: np.ndarray, k: np.ndarray, v: np.ndarray, q_pos,
                 k_start: int = 0, window: int = 0, tiles: list | None = None) -> np.ndarray:
    """Grouped, block-banded scaled dot-product attention on plain arrays.

    q: [..., heads, n, dh] with row i at position q_pos[i] (q_pos a
    nondecreasing array or list); k, v: [..., kv_heads, m, dh] at positions
    k_start .. k_start + m - 1. Query head h reads key/value head
    h // (heads // kv_heads) in place: the heads of a group are stacked into
    one matrix and never repeated. A query sees the keys at or before its
    position; with window > 0, only the last ``window`` of them.

    Rows are tiled BLOCK at a time, and each tile multiplies against just
    the key range [lo, hi) its rows can see; a mask is built only for a tile
    in which some row cannot see that whole range, so a tile whose rows share
    one position never builds one. When ``tiles`` is a list, each tile's
    (i0, i1, lo, hi, probabilities) is appended to it, with [i0, i1) its rows
    and [lo, hi) its key indices, for the backward pass. Rows that fit one
    tile and share one position (a decode step) skip the tiling: the same
    operations run once on the whole query, so the result is bitwise the
    tiled one.

    A query with no visible key raises EmptyContextError; NaN (or a row
    without a finite score) raises NumericError.
    """
    *lead, heads, n, dh = q.shape
    kh, m = k.shape[-3], k.shape[-2]
    groups = heads // kh
    k_end = k_start + m
    if m == 0 or k_start > q_pos[0] or (window and k_end <= q_pos[-1] - window + 1):
        raise EmptyContextError("query position with no attendable key")
    scale = 1.0 / math.sqrt(dh)
    if tiles is None and n <= BLOCK and q_pos[0] == q_pos[-1]:
        lo = max(0, q_pos[0] - window + 1 - k_start) if window else 0
        hi = min(m, q_pos[0] + 1 - k_start)
        s = (q.reshape(*lead, kh, groups * n, dh) * scale) @ k[..., lo:hi, :].swapaxes(-1, -2)
        return (_softmax_rows(s) @ v[..., lo:hi, :]).reshape(q.shape)
    q5 = q.reshape(*lead, kh, groups, n, dh)
    out = []
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK, n)
        t0, t1 = q_pos[i0], q_pos[i1 - 1]
        lo = max(k_start, t0 - window + 1) if window else k_start
        hi = min(k_end, t1 + 1)
        rows = groups * (i1 - i0)
        qb = q5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
        s = (qb * scale) @ k[..., lo - k_start:hi - k_start, :].swapaxes(-1, -2)
        if t0 < hi - 1 or (window and lo <= t1 - window):
            band = s.reshape(*lead, kh, groups, i1 - i0, hi - lo)
            kp = np.arange(lo, hi)
            band += (band_mask(q_pos[i0:i1], kp, window) if window
                     else causal_mask(q_pos[i0:i1], kp))
        _softmax_rows(s)
        out.append((s @ v[..., lo - k_start:hi - k_start, :]).reshape(
            *lead, kh, groups, i1 - i0, dh))
        if tiles is not None:
            tiles.append((i0, i1, lo - k_start, hi - k_start, s))
    y = out[0] if len(out) == 1 else np.concatenate(out, axis=-2)
    return y.reshape(q.shape)


def attention(q: Tensor, k: Tensor, v: Tensor, q_pos, window: int = 0,
              k_start: int = 0) -> Tensor:
    """``attention_np`` as one tape op, keys at positions k_start .. k_start + m - 1.

    The backward pass walks the saved tiles and forms each tile's share of
    dQ, dK and dV from its kept probabilities, without a dense score matrix.
    """
    # tiles are kept only when a backward will read them
    tiles = [] if needs_grad(q, k, v) else None
    y = attention_np(q.data, k.data, v.data, q_pos, k_start, window, tiles)

    def bwd(g):
        *lead, heads, n, dh = q.shape
        kh = k.shape[-3]
        groups = heads // kh
        shape5 = (*lead, kh, groups, n, dh)
        g5, y5, q5 = g.reshape(shape5), y.reshape(shape5), q.data.reshape(shape5)
        scale = 1.0 / math.sqrt(dh)
        dq = np.empty(shape5, dtype=g.dtype)
        dk = np.zeros(k.shape, dtype=g.dtype)
        dv = np.zeros(v.shape, dtype=g.dtype)
        for i0, i1, lo, hi, p in tiles:
            rows = groups * (i1 - i0)
            gb = g5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
            qb = q5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
            yb = y5[..., i0:i1, :].reshape(*lead, kh, rows, dh)
            dv[..., lo:hi, :] += p.swapaxes(-1, -2) @ gb
            ds = gb @ v.data[..., lo:hi, :].swapaxes(-1, -2)
            ds -= (gb * yb).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            dq[..., i0:i1, :] = (ds @ k.data[..., lo:hi, :]).reshape(
                *lead, kh, groups, i1 - i0, dh)
            dk[..., lo:hi, :] += ds.swapaxes(-1, -2) @ qb
        for t, d in ((q, dq.reshape(q.shape)), (k, dk), (v, dv)):
            if t.requires_grad:
                t._accum(d)

    return node(y, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# head-wise gate
# ---------------------------------------------------------------------------


@dataclass
class GateParams:
    """Per-head scalar gate computed from the pre-rotation query projection."""

    weight: Tensor  # [d_model, n_heads]
    bias: Tensor    # [n_heads]


def gate_values(gp: GateParams, q_full: Tensor) -> Tensor:
    """sigmoid(q_full @ W + b) reshaped to [..., h, n, 1] for fusion."""
    logits = q_full @ gp.weight + gp.bias  # [..., n, h]
    g = sigmoid(logits).swapaxes(-1, -2)   # [..., h, n]
    return g.reshape(*g.shape, 1)


def gated_fuse(g: Tensor, y_local: Tensor, y_global: Tensor) -> Tensor:
    """g * y_local + (1 - g) * y_global, per head and position."""
    return g * y_local + (1.0 - g) * y_global


# ---------------------------------------------------------------------------
# decode-time caches
# ---------------------------------------------------------------------------


class SharedKVCache:
    """Append-only per-layer key/value store, preallocated to max_seq.

    Written once by the first loop and read by every loop. Entry layout is
    [n_layers, n_kv_heads, max_seq, d_head]; `length` counts complete
    positions, and a position becomes visible as soon as its layer writes
    it (queries in the same step slice up to pos + 1).
    """

    def __init__(self, n_layers: int, n_kv_heads: int, d_head: int, max_seq: int):
        self.max_seq = max_seq
        self.k = np.zeros((n_layers, n_kv_heads, max_seq, d_head))
        self.v = np.zeros_like(self.k)
        self.length = 0

    def write(self, layer: int, pos: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store one position's keys/values ([n_kv_heads, d_head]) for a layer."""
        if pos >= self.max_seq:
            raise CapacityError(f"cache full: position {pos} >= max_seq {self.max_seq}")
        self.k[layer, :, pos, :] = k
        self.v[layer, :, pos, :] = v

    def write_block(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store a run of positions ([n_kv_heads, n, d_head]) starting at `start`."""
        n = k.shape[-2]
        if start + n > self.max_seq:
            raise CapacityError(f"cache full: {start + n} > max_seq {self.max_seq}")
        self.k[layer, :, start:start + n, :] = k
        self.v[layer, :, start:start + n, :] = v

    def view(self, layer: int, upto: int):
        """Keys/values for positions [0, upto) as [n_kv_heads, upto, d_head]."""
        return self.k[layer, :, :upto, :], self.v[layer, :, :upto, :]


class WindowKVCache:
    """Fixed-size ring of the last `window` positions for one (layer, loop).

    The ring is mirrored: keys/values are [n_kv_heads, 2 * window, d_head],
    and position p is written to slot p % window and again to slot
    p % window + window. Any run of at most `window` consecutive positions
    therefore sits in one contiguous, ordered stretch of slots, so `gather`
    hands out views and never sorts or copies. Positions are written in
    order (`lo` is the oldest held, `hi` the newest), and occupancy never
    exceeds the window regardless of how long decoding runs.
    """

    def __init__(self, window: int, n_kv_heads: int, d_head: int):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.window = window
        self.k = np.zeros((n_kv_heads, 2 * window, d_head))
        self.v = np.zeros_like(self.k)
        self.lo, self.hi = 0, -1   # empty while hi < lo

    def _hold(self, start: int, end: int) -> None:
        """Record that positions [start, end] were just written, in order."""
        empty = self.hi < self.lo
        if not empty and start != self.hi + 1:
            raise PositionError(f"ring write at position {start}, expected {self.hi + 1}")
        self.lo = max(start if empty else self.lo, end - self.window + 1)
        self.hi = end

    def write(self, pos: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store the next position's keys/values ([n_kv_heads, d_head])."""
        self._hold(pos, pos)
        both = slice(pos % self.window, None, self.window)   # the slot and its mirror
        self.k[:, both] = k[:, None]
        self.v[:, both] = v[:, None]

    def write_block(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store a run of positions ([n_kv_heads, n, d_head]) from `start`;
        only the last `window` of them are kept."""
        n = k.shape[-2]
        if n == 0:
            return
        self._hold(start, start + n - 1)
        keep = min(n, self.window)
        slots = np.arange(start + n - keep, start + n) % self.window
        for half in (slots, slots + self.window):
            self.k[:, half] = k[:, n - keep:]
            self.v[:, half] = v[:, n - keep:]

    def gather(self, query_pos: int):
        """All held entries visible from `query_pos`, ordered by position.

        Returns (k, v, positions) with k/v as [n_kv_heads, m, d_head] views
        of the ring.
        """
        lo = max(self.lo, query_pos - self.window + 1)
        hi = min(self.hi, query_pos)
        s = lo % self.window
        m = max(hi - lo + 1, 0)
        return self.k[:, s:s + m], self.v[:, s:s + m], np.arange(lo, lo + m)

    def entries(self) -> int:
        return self.hi - self.lo + 1
