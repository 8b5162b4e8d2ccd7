"""Attention primitives: rotary embeddings, causal and banded masks, the
softmax-attend core, head-wise gate fusion, and the two decode-time caches
(append-only per-layer cache, fixed-size sliding-window ring).

Conventions: query/key/value tensors are [..., heads, seq, d_head]; masks
are additive float arrays broadcastable to the score shape, 0 where allowed
and -inf where blocked. Rotary rotation uses the half-split layout (first
half of head dims pairs with the second half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EmptyContextError, InvalidLoopError
from .tensor import Tensor, concat, repeat_heads, sigmoid, softmax_rows

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
        raise ValueError("d_head must be even for rotary embedding")
    half = d_head // 2
    freqs = theta ** (-np.arange(half, dtype=np.float64) / half)
    angles = np.arange(max_seq, dtype=np.float64)[:, None] * freqs[None, :]
    return RopeTables(cos=np.cos(angles), sin=np.sin(angles))


def apply_rope(x: Tensor, positions: np.ndarray, tables: RopeTables) -> Tensor:
    """Rotate [..., seq, d_head] by the per-entry positions. Differentiable."""
    half = x.shape[-1] // 2
    cos = tables.cos[positions]  # [seq, half], broadcasts over leading dims
    sin = tables.sin[positions]
    x1 = x[..., :half]
    x2 = x[..., half:]
    return concat([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def apply_rope_np(x: np.ndarray, positions: np.ndarray, tables: RopeTables) -> np.ndarray:
    """Same rotation on a plain array (decode queries and keys)."""
    half = x.shape[-1] // 2
    cos = tables.cos[positions]
    sin = tables.sin[positions]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


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
        raise ValueError("window must be >= 1")
    q = np.asarray(q_positions)[:, None]
    k = np.asarray(k_positions)[None, :]
    return np.where((k <= q) & (k > q - window), 0.0, NEG_INF)


# ---------------------------------------------------------------------------
# attend core
# ---------------------------------------------------------------------------


def attend(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention with an additive mask.

    q: [..., h, nq, dh]; k, v: [..., h, nk, dh]; mask broadcastable to
    [..., h, nq, nk]. A query row whose mask blocks every key has nothing
    to attend to and raises EmptyContextError.
    """
    if np.isneginf(mask).all(axis=-1).any():
        raise EmptyContextError("query position with no attendable key")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.transpose()) * scale + mask
    return softmax_rows(scores) @ v


def global_attend(q: Tensor, k: Tensor, v: Tensor,
                  q_positions: np.ndarray, k_positions: np.ndarray) -> Tensor:
    """Causal attention over the full key set (first-loop / shared path)."""
    return attend(q, k, v, causal_mask(q_positions, k_positions))


def sliding_window_attend(q: Tensor, k: Tensor, v: Tensor,
                          q_positions: np.ndarray, k_positions: np.ndarray,
                          window: int, loop_index: int) -> Tensor:
    """Banded attention over a loop's private keys.

    Only loops after the first carry a private windowed path; the first
    loop owns the shared global cache instead.
    """
    if loop_index < 2:
        raise InvalidLoopError(
            f"sliding-window path is defined for loops >= 2, got {loop_index}")
    return attend(q, k, v, band_mask(q_positions, k_positions, window))


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

    def __init__(self, n_layers: int, n_kv_heads: int, d_head: int,
                 max_seq: int, dtype=np.float64):
        self.max_seq = max_seq
        self.k = np.zeros((n_layers, n_kv_heads, max_seq, d_head), dtype=dtype)
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

    def entries(self) -> int:
        return self.length


class WindowKVCache:
    """Fixed-size ring of the last `window` positions for one (layer, loop).

    Slot for position p is p % window, so occupancy never exceeds the
    window regardless of how long decoding runs.
    """

    def __init__(self, window: int, n_kv_heads: int, d_head: int, dtype=np.float64):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.k = np.zeros((window, n_kv_heads, d_head), dtype=dtype)
        self.v = np.zeros_like(self.k)
        self.positions = np.full(window, -1, dtype=np.int64)

    def write(self, pos: int, k: np.ndarray, v: np.ndarray) -> None:
        slot = pos % self.window
        self.k[slot] = k
        self.v[slot] = v
        self.positions[slot] = pos

    def gather(self, query_pos: int):
        """All held entries visible from `query_pos`, ordered by position.

        Returns (k, v, positions) with k/v as [n_kv_heads, m, d_head].
        """
        valid = (self.positions >= 0) & (self.positions > query_pos - self.window) \
            & (self.positions <= query_pos)
        idx = np.nonzero(valid)[0]
        order = np.argsort(self.positions[idx])
        idx = idx[order]
        k = self.k[idx].transpose(1, 0, 2)
        v = self.v[idx].transpose(1, 0, 2)
        return k, v, self.positions[idx]

    def entries(self) -> int:
        return int((self.positions >= 0).sum())
