"""Incremental decoding.

One ``DecodeSession.step`` serves all three wirings. For the parallel-loop
wiring it runs one batched pass over a micro-batch of displaced rows: row 0
is the newest token entering its first loop, row r is the token from r
steps ago entering loop r+1 (its carry arrives through the ``inflight``
array). All rows query the same position, and the first row's keys/values
extend the layer's shared cache. With gswa, rows 1..L-1 also keep at most
``window`` of their own entries in one mirrored ring per layer, whose
leading axes are [loops 2..L, kv heads]; each layer writes, gathers and
attends over that ring once for all of those rows and forms their gates in
one matmul. One token therefore costs one pass regardless of the loop
count. ``vanilla`` is the single-row special case; ``vanilla_loop`` keeps
one cache per loop and runs one single-row pass per cache. Every store
holds one layer, so a layer reads its cache and its ring the same way, by
layer index.

Every pass is ``model.block_stack_forward``, the layer body that training
and prefill run too: a step hands it the rows, their one (integer)
position, the caches and the rings, and no layer math is written here.
A step of 2 or 3 rows takes each weight over 1 MiB one row at a time
(``model.step_matmul``); every other product, prefill's included, is ``@``.
The session runs it on ``Parameters.arrays``, the weights as plain
arrays, so neither prefill nor a step builds a ``Tensor``.

Prefill is the training forward asked for its loop states from the last
row on (``forward(..., return_states=True, first_row=n - 1)``). A session
reads each cache's keys/values, the carries and logits at n - 1 and, with
gswa, the ring seeds at [n - window, n); ``model.prefill_table`` gives,
per loop and layer, the first row that feeds one of them. Every layer
makes keys and values on all the rows it takes in and runs its queries,
attention and MLP only from its table row on. Loop 1 (every loop of
``vanilla_loop``) thus fills its cache over the whole prompt and runs its
top layer on the rows the next loop reads, and each later plt loop runs
only a suffix that narrows layer by layer to the last row. The rows it
drops feed nothing a step reads, so the handoff is exact, and a session
seeds each ring from the prompt through the ring's one ``write``.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import SharedKVCache, WindowKVCache
from .errors import CapacityError, ConfigError, DimensionError, TokenError
from .model import Parameters, block_stack_forward, forward, head_weight
from .tensor import Rng, is_int, is_real


class DecodeSession:
    """Mutable decoding state over a fixed prompt; see module docstring.

    ``caches[c][li]`` is the ``SharedKVCache`` of layer li in the c-th loop
    that keeps its own keys (``cache_loops`` of them); ``rings[li]`` is,
    with gswa, layer li's window ring over [``window_loops`` (loops 2..L),
    kv heads]; ``inflight`` holds the carries [loops - 1, d_model] of the
    parallel wiring (none for the others).

    Counters: ``steps`` counts tokens pushed through ``step``; ``passes``
    counts block-stack passes those steps cost (the parallel wiring pays 1
    per token, the serial loop pays ``loops``). ``prefill_rows`` counts the
    rows that entered each loop's first layer in prefill, summed over
    loops: ``loops * n`` for the serial wirings, far fewer for plt, whose
    later loops run only the suffix a session reads. Layers above the first
    may run fewer (see ``model.prefill_table``).
    """

    def __init__(self, params: Parameters, prompt: np.ndarray):
        cfg = params.config
        prompt = np.asarray(prompt)
        if prompt.ndim != 1:
            raise DimensionError(
                f"prompt must be a 1-d array of token ids, got shape {prompt.shape}")
        self.params = params
        self.cfg = cfg
        self.weights = params.arrays()
        n = len(prompt)
        dh, kh = cfg.d_head, cfg.n_kv_heads
        states = forward(self.weights, prompt, return_states=True, first_row=n - 1)

        self.caches = [[SharedKVCache(kh, dh, cfg.max_seq) for _ in range(cfg.n_layers)]
                       for _ in range(cfg.cache_loops)]
        for caches, kv in zip(self.caches, states.own_kv_per_loop):
            for cache, (k, v) in zip(caches, kv):
                cache.write(0, k[0], v[0])
        self.rings = [WindowKVCache(cfg.window, (cfg.window_loops, kh), dh)
                      for _ in range(cfg.n_layers if cfg.window_loops else 0)]
        m = min(n, cfg.window)   # every later loop made keys on at least these rows
        for li, ring in enumerate(self.rings):   # keys, then values, of loops 2..L
            kv = zip(*(loop_kv[li] for loop_kv in states.own_kv_per_loop[1:]))
            ring.write(n - m, *(np.stack([t[0, :, -m:] for t in ts]) for ts in kv))

        rows = cfg.loops // cfg.cache_loops   # one pass per cache, one row per loop it runs
        self.inflight = np.array([h[0, -1] for h in states.hidden_per_loop[:rows - 1]]
                                 ).reshape(rows - 1, cfg.d_model)
        self.last_logits = states.hidden_per_loop[-1][0, -1] @ head_weight(self.weights)
        self.position = n
        self.prefill_rows = sum(n - rows[0] for rows in states.rows)
        self.steps = 0
        self.passes = 0

    def step(self, token: int) -> np.ndarray:
        """Process one token; returns the logits predicting the next one.

        The parallel wiring runs one pass over the token's row and one row
        per in-flight carry; the serial loop runs one single-row pass per
        loop, each against that loop's own cache.
        """
        e = self._embed(token)
        p = self.position
        x = np.empty((len(self.inflight) + 1, len(e)))
        x[:] = e
        x[1:] += self.inflight
        for caches in self.caches:   # more than one only for the serial loop
            hidden = block_stack_forward(self.weights, x, p, shared_kv=caches,
                                         rings=self.rings)[0]
            x = e + hidden
            self.passes += 1
        self.inflight = hidden[:-1]
        self.position += 1
        self.steps += 1
        self.last_logits = hidden[-1] @ head_weight(self.weights)
        return self.last_logits

    # -- helpers ---------------------------------------------------------

    def _embed(self, token: int) -> np.ndarray:
        """Check capacity and the token id; return the token's embedding row."""
        if self.position >= self.cfg.max_seq:
            raise CapacityError(
                f"position {self.position} is at max_seq {self.cfg.max_seq}")
        if not is_int(token):
            raise TokenError(f"token id {token!r} is not an integer")
        if not 0 <= token < self.cfg.vocab:
            raise TokenError(f"token id {token} is outside [0, {self.cfg.vocab})")
        return self.weights.embedding[token]

    @property
    def passes_per_token(self) -> float:
        return self.passes / self.steps if self.steps else 0.0

    def kv_entry_count(self) -> dict:
        """Live cache positions per kind, summed over layers (and, for the
        window rings, over the loops that share each ring)."""
        cached = self.cfg.n_layers * self.cfg.cache_loops * self.position
        window = self.cfg.window_loops * sum(r.entries() for r in self.rings)
        serial = self.cfg.mode == "vanilla_loop"   # each loop keeps its own cache
        return {"shared": 0 if serial else cached, "window": window,
                "per_loop": cached if serial else 0, "total": cached + window}


prefill = DecodeSession   # runs the prompt's forward and seeds a session from it


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
    if not is_int(n_tokens) or n_tokens < 1:
        raise ConfigError(f"n_tokens must be an integer >= 1, got {n_tokens!r}")
    if not is_real(temperature) or math.isnan(temperature):
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
