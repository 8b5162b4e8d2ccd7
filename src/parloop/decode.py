"""Incremental decoding.

For the parallel-loop wiring every decode step runs one batched pass over a
micro-batch of displaced rows: row 0 is the newest token entering its first
loop, row r is the token from r steps ago entering loop r+1 (its carry
arrives through the ``inflight`` states). All rows query the same position,
the first row's keys/values extend the shared cache, and later rows keep at
most ``window`` of their own entries in per-loop rings. One token therefore
costs one pass regardless of the loop count. The rings are mirrored, so a
row reads its window as ordered views without sorting or copying, and a
session seeds each ring from the prompt with one block write.

The serial wirings decode the ordinary way: ``vanilla`` is the single-pass
special case, ``vanilla_loop`` runs the same per-layer body ``loops`` times
per token, one row at a time against per-loop caches.

Attention runs through the training forward's kernel
(``attention.attention_np``): the query heads that share a key/value head
read that head's cached keys and values in place, so a step never copies or
repeats the cache, and since every row of a step sits at one position the
kernel takes its single-block path and builds no mask.

Every other formula of a step is also the plain-array kernel that the tape
op runs: ``rmsnorm_np``, ``silu_np`` and ``sigmoid_np`` from ``tensor``,
``apply_rope_np`` and ``gated_fuse`` from ``attention``, and the output
projection from ``model.head_weight``; no forward formula is defined here.
Only the per-layer body (``_stack_pass``) is kept apart from
``model.block_stack_forward``, because its rows advance different loops in
one pass.

Everything here is plain numpy under no_grad semantics; the training
forward is reused verbatim for prefill so the handoff is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .attention import SharedKVCache, WindowKVCache, apply_rope_np, attention_np, gated_fuse
from .errors import CapacityError, ConfigError, DimensionError, TokenError
from .model import Parameters, forward, gate_for_loop, head_weight
from .tensor import Rng, no_grad, rmsnorm_np, sigmoid_np, silu_np


@dataclass
class MicroBatch:
    """The displaced rows fed through the stack in one parallel step."""

    inputs: np.ndarray       # [rows, d_model]
    position: int            # query position shared by every row
    loop_of_row: tuple       # loop index each row advances


class DecodeSession:
    """Mutable decoding state over a fixed prompt; see module docstring.

    Counters: ``steps`` counts tokens pushed through ``step``; ``passes``
    counts block-stack passes those steps cost (the parallel wiring pays 1
    per token, the serial loop pays ``loops``).
    """

    def __init__(self, params: Parameters, prompt: np.ndarray):
        cfg = params.config
        prompt = np.asarray(prompt)
        if prompt.ndim != 1:
            raise DimensionError(
                f"prompt must be a 1-d array of token ids, got shape {prompt.shape}")
        self.params = params
        self.cfg = cfg
        n = len(prompt)
        dh, kh = cfg.d_head, cfg.n_kv_heads

        with no_grad():
            states = forward(params, prompt, return_states=True)

        self.shared: SharedKVCache | None = None
        self.rings: dict = {}
        self.per_loop: list = []
        if cfg.mode == "vanilla_loop":
            for kv in states.own_kv_per_loop:
                cache = SharedKVCache(cfg.n_layers, kh, dh, cfg.max_seq)
                for li, (k, v) in enumerate(kv):
                    cache.write_block(li, 0, k.data[0], v.data[0])
                cache.length = n
                self.per_loop.append(cache)
        else:
            self.shared = SharedKVCache(cfg.n_layers, kh, dh, cfg.max_seq)
            first_kv = states.shared_kv if cfg.kv_share else states.own_kv_per_loop[0]
            for li, (k, v) in enumerate(first_kv):
                self.shared.write_block(li, 0, k.data[0], v.data[0])
            self.shared.length = n
            if cfg.gswa:
                for loop_index in range(2, cfg.loops + 1):
                    kv = states.own_kv_per_loop[loop_index - 1]
                    for li, (k, v) in enumerate(kv):
                        ring = WindowKVCache(cfg.window, kh, dh)
                        ring.write_block(0, k.data[0], v.data[0])
                        self.rings[(li, loop_index)] = ring
        # per layer, the window ring and gate that row r >= 1 of a step uses
        self._windows = [[(self.rings[li, r + 1], gate_for_loop(layer, cfg, r + 1))
                          for r in range(1, cfg.loops)]
                         for li, layer in enumerate(params.layers)] if cfg.gswa else []

        self.inflight = [states.hidden_per_loop[l].data[0, n - 1].copy()
                         for l in range(cfg.loops - 1)]
        self.last_logits = states.logits.data[0, n - 1].copy()
        self.last_microbatch: MicroBatch | None = None
        self.position = n
        self.prefill_passes = cfg.loops
        self.steps = 0
        self.passes = 0

    # -- per-mode steps -------------------------------------------------

    def step(self, token: int) -> np.ndarray:
        """Process one token; returns the logits predicting the next one."""
        if self.cfg.mode == "vanilla_loop":
            return self.loop_decode_step(token)
        return self.decode_step(token)

    def decode_step(self, token: int) -> np.ndarray:
        """One batched pass advancing every loop stage by one step."""
        e = self._embed(token)
        p, rows = self.position, self.cfg.loops
        x = np.tile(e, (rows, 1))
        for r in range(1, rows):
            x[r] += self.inflight[r - 1]
        self.last_microbatch = MicroBatch(inputs=x, position=p,
                                          loop_of_row=tuple(range(1, rows + 1)))
        hidden = self._stack_pass(x, p, self.shared)
        self.inflight = list(hidden[:-1])
        self.shared.length = p + 1
        self.passes += 1
        return self._advance(hidden[-1])

    def loop_decode_step(self, token: int) -> np.ndarray:
        """Serial reference step: the stack runs ``loops`` times for one
        token, each pass one row against that loop's own cache."""
        e = self._embed(token)
        p = self.position
        x = e[None]
        for cache in self.per_loop:
            hidden = self._stack_pass(x, p, cache)
            x = e + hidden
            cache.length = p + 1
            self.passes += 1
        return self._advance(hidden[0])

    def _stack_pass(self, x: np.ndarray, p: int, cache: SharedKVCache) -> np.ndarray:
        """The block stack over rows ``x`` [rows, d_model] at position ``p``.

        Row 0 writes its keys/values to ``cache`` and every row attends over
        it; with gswa, row r >= 1 also attends over the window ring of loop
        r + 1 and the head-wise gate mixes the two. Returns the final-norm
        output [rows, d_model].
        """
        cfg, params = self.cfg, self.params
        rows = x.shape[0]
        heads, kh, dh = cfg.n_heads, cfg.n_kv_heads, cfg.d_head
        at = [p] * rows   # every row queries position p
        for li, layer in enumerate(params.layers):
            h = rmsnorm_np(x, layer.attn_norm.data, cfg.norm_eps)
            q_full = h @ layer.wq.data
            qk = np.concatenate([q_full, h @ layer.wk.data], axis=1)   # one rotary call
            qk = apply_rope_np(qk.reshape(rows, heads + kh, dh), p, params.rope)
            q, k = qk[:, :heads], qk[:, heads:]
            v = (h @ layer.wv.data).reshape(rows, kh, dh)

            cache.write(li, p, k[0], v[0])
            y = attention_np(q.transpose(1, 0, 2), *cache.view(li, p + 1), at).transpose(1, 0, 2)

            if cfg.gswa:
                for r, (ring, gp) in enumerate(self._windows[li], 1):
                    ring.write(p, k[r], v[r])
                    kw, vw, _ = ring.gather(p)
                    y_local = attention_np(q[r][:, None], kw, vw, at[:1], ring.lo,
                                           cfg.window)[:, 0]
                    g = sigmoid_np(q_full[r] @ gp.weight.data + gp.bias.data)[:, None]
                    y[r] = gated_fuse(g, y_local, y[r])

            x = x + y.reshape(rows, heads * dh) @ layer.wo.data
            hm = rmsnorm_np(x, layer.mlp_norm.data, cfg.norm_eps)
            x = x + (silu_np(hm @ layer.w_gate.data) * (hm @ layer.w_up.data)) @ layer.w_down.data
        return rmsnorm_np(x, params.final_norm.data, cfg.norm_eps)

    # -- helpers ---------------------------------------------------------

    def _embed(self, token: int) -> np.ndarray:
        """Check capacity and the token id; return the token's embedding row."""
        if self.position >= self.cfg.max_seq:
            raise CapacityError(
                f"position {self.position} is at max_seq {self.cfg.max_seq}")
        if not _is_int(token):
            raise TokenError(f"token id {token!r} is not an integer")
        if not 0 <= token < self.cfg.vocab:
            raise TokenError(f"token id {token} is outside [0, {self.cfg.vocab})")
        return self.params.embedding.data[token]

    def _advance(self, hidden: np.ndarray) -> np.ndarray:
        """Close a step: move to the next position and emit its logits."""
        self.position += 1
        self.steps += 1
        self.last_logits = hidden @ head_weight(self.params).data
        return self.last_logits

    @property
    def passes_per_token(self) -> float:
        return self.passes / self.steps if self.steps else 0.0

    def kv_entry_count(self) -> dict:
        """Live cache positions per kind, summed over layers."""
        nl = self.cfg.n_layers
        shared = nl * self.shared.length if self.shared is not None else 0
        window = sum(r.entries() for r in self.rings.values())
        per_loop = sum(nl * c.length for c in self.per_loop)
        return {"shared": shared, "window": window, "per_loop": per_loop,
                "total": shared + window + per_loop}


def _is_int(x) -> bool:
    """An integer that is not a bool (``True`` would index as a mask)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def prefill(params: Parameters, prompt: np.ndarray) -> DecodeSession:
    """Run the training forward over the prompt and seed a session from it."""
    return DecodeSession(params, prompt)


def _select(logits: np.ndarray, temperature: float, rng: Rng | None) -> int:
    if temperature <= 0.0:
        return int(np.argmax(logits))
    z = logits / temperature
    e = np.exp(z - z.max())
    cdf = np.cumsum(e / e.sum())
    # rounding can leave cdf[-1] just below 1, and a draw above it past the end
    return min(int(np.searchsorted(cdf, rng.random())), len(cdf) - 1)


def generate(session: DecodeSession, n_tokens: int, temperature: float = 0.0,
             seed: int = 0) -> list:
    """Emit n_tokens continuations; every emitted token is fed back, so the
    session stays consistent for further calls."""
    if not _is_int(n_tokens) or n_tokens < 1:
        raise ConfigError(f"n_tokens must be an integer >= 1, got {n_tokens!r}")
    if not isinstance(temperature, numbers.Real) or math.isnan(temperature):
        raise ConfigError(f"temperature must be a number, not {temperature!r}")
    if session.position + n_tokens > session.cfg.max_seq:
        raise CapacityError(
            f"{n_tokens} tokens from position {session.position} would exceed "
            f"max_seq {session.cfg.max_seq}")
    rng = Rng(seed) if temperature > 0 else None
    out = []
    logits = session.last_logits
    for _ in range(n_tokens):
        tok = _select(logits, temperature, rng)
        out.append(tok)
        logits = session.step(tok)
    return out
