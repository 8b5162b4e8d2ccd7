"""Weight-shared looped transformer.

One block stack (pre-norm attention + SwiGLU blocks, final rmsnorm) is
applied one or more times per token sequence. Three wirings are supported:

- ``vanilla``: a single pass, ordinary causal self-attention.
- ``vanilla_loop``: the stack applied ``loops`` times; every pass runs full
  self-attention over its own keys/values, pass l >= 2 reads the embedding
  plus the previous pass's output at the same position.
- ``plt``: the parallel-loop wiring. Pass l >= 2 reads the embedding plus
  the previous pass's output shifted right by one position, reuses the
  first pass's keys/values for global attention, and (optionally) mixes in
  a sliding window over its own keys/values through a per-head gate.

The one-position shift is what makes the loops independent along the
sequence axis: the output for a position depends on earlier loops only at
strictly earlier positions, so during decoding all loop stages can run in
a single batched pass over displaced tokens.

``param_shapes`` is the one description of the parameter layout; building,
naming, counting and checkpointing parameters all walk it. Each gswa layer
stacks its gates into ``gate_weight`` / ``gate_bias``, and checkpoints that
name one gate per loop still load (see ``checkpoint``).
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attention import apply_rope, attention, build_rope_tables, gate_values, gated_fuse
from .errors import CapacityError, ConfigError, EmptyInputError, PositionError, TokenError
from .tensor import Rng, Tensor, concat, embedding as gather_rows, is_int, rmsnorm, silu

MODES = ("vanilla", "vanilla_loop", "plt")
# (field, least value) of each integer size, and the on/off switches
SIZES = (("vocab", 2), ("d_model", 1), ("n_layers", 0), ("n_heads", 1), ("loops", 1),
         ("n_kv_heads", 1), ("d_ff", 1), ("window", 0), ("max_seq", 1))
SWITCHES = ("gswa", "weight_tying", "per_loop_gates")
# A decode step of 2 or more rows multiplies each weight over PANEL_BYTES whose K
# is a multiple of PANEL as one batched product over its PANEL-row K panels,
# summed: OpenBLAS packs each panel once and runs every row against it. Step time
# over vanilla's on decode_short (demos/loop_curve.py; 2-vCPU Xeon, 4 MiB L2, one
# OpenBLAS 0.3.31 thread, SkylakeX kernels), per row (`@` at 4 rows) -> panels:
# plt-2 1.42 -> 1.20, plt-3 1.65 -> 1.30, plt-4 1.80 -> 1.40. Cached weights
# (decode_long) keep `@`: panels there cost 3-7% more per plt-2 step.
PANEL, PANEL_BYTES = 32, 1 << 20


@dataclass
class ModelConfig:
    vocab: int
    d_model: int
    n_layers: int
    n_heads: int
    loops: int = 1
    mode: str = "vanilla"
    n_kv_heads: int | None = None   # None: same as n_heads
    d_ff: int | None = None         # None: 4 * d_model
    window: int = 0
    gswa: bool = False
    weight_tying: bool = True
    per_loop_gates: bool = False
    max_seq: int = 256

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for name, least in SIZES:
            value = getattr(self, name)
            if value is None and name in ("n_kv_heads", "d_ff"):
                continue   # filled in below, from sizes checked here
            if not is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.n_kv_heads is None:
            self.n_kv_heads = self.n_heads
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        self.window = min(self.window, self.max_seq)   # no key lies further back
        for name in SWITCHES:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_head % 2 != 0:
            raise ConfigError(f"d_head {self.d_head} must be even (rotary pairs)")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(f"n_heads {self.n_heads} not divisible by n_kv_heads {self.n_kv_heads}")
        if self.mode == "vanilla" and self.loops != 1:
            raise ConfigError("vanilla mode is single-pass; set loops=1")
        if self.gswa:
            if self.mode != "plt":
                raise ConfigError("gated window attention requires plt mode")
            if self.window < 1:
                raise ConfigError("gated window attention requires window >= 1")
        if self.per_loop_gates and not self.gswa:
            raise ConfigError("per_loop_gates requires gswa")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def cache_loops(self) -> int:
        """Loops with a full key/value cache of their own; the rest read loop 1's."""
        return self.loops if self.mode == "vanilla_loop" else 1

    @property
    def window_loops(self) -> int:
        """Loops with a gated window ring of their own keys: loops 2..L with gswa."""
        return self.loops - 1 if self.gswa else 0


def param_shapes(cfg: ModelConfig) -> dict:
    """The parameter layout of ``cfg``: name -> shape, in the order weights
    are drawn, checkpointed and optimised. With gswa each layer holds its
    gates stacked, ``gate_weight`` [G, d_model, n_heads] and ``gate_bias``
    [G, n_heads], where G is ``window_loops`` with per-loop gates, else 1."""
    before, layer, after = _shape_parts(cfg)
    shapes = dict(before)
    for i in range(cfg.n_layers):
        shapes.update((f"layers.{i}.{k}", s) for k, s in layer.items())
    return shapes | after


def _shape_parts(cfg: ModelConfig) -> tuple:
    """``param_shapes`` in three parts: the entries before the layers, one
    layer's (named within the layer) and the entries after them."""
    d, kv, ff = cfg.d_model, cfg.n_kv_heads * cfg.d_head, cfg.d_ff
    layer = {"attn_norm": (d,), "wq": (d, d), "wk": (d, kv), "wv": (d, kv), "wo": (d, d)}
    if cfg.window_loops:
        g = cfg.window_loops if cfg.per_loop_gates else 1
        layer.update(gate_weight=(g, d, cfg.n_heads), gate_bias=(g, cfg.n_heads))
    layer.update(mlp_norm=(d,), w_gate=(d, ff), w_up=(d, ff), w_down=(ff, d))
    after = {"final_norm": (d,)}
    if not cfg.weight_tying:
        after["head"] = (d, cfg.vocab)
    return {"embedding": (cfg.vocab, d)}, layer, after


class Parameters:
    """The model's tensors by ``param_shapes`` name; the attributes are the
    same ``Tensor`` objects, grouped for the forward (``layers[i].wq`` is
    ``layers.{i}.wq``)."""

    def __init__(self, config: ModelConfig, tensors: dict):
        self.config = config
        self.rope = build_rope_tables(config.max_seq, config.d_head)
        self._bind(tensors)

    def _bind(self, tensors: dict) -> None:
        self._tensors = tensors
        self.embedding = tensors["embedding"]
        self.layers = [SimpleNamespace(**{name.split(".", 2)[2]: t for name, t in tensors.items()
                                          if name.startswith(f"layers.{i}.")})
                       for i in range(self.config.n_layers)]
        self.final_norm = tensors["final_norm"]
        self.head = tensors.get("head")   # None when tied to the embedding

    def named_tensors(self) -> dict:
        """Stable name -> Tensor mapping (checkpoint and optimizer order)."""
        return self._tensors

    def arrays(self) -> Parameters:
        """These parameters as the tensors' current arrays (plain arrays as
        they are), shared rather than copied. The ops run on them build no
        Tensor and no tape, which is how prefill and decode run the model
        body."""
        out = copy.copy(self)
        out._bind({name: t.data if isinstance(t, Tensor) else t
                   for name, t in self._tensors.items()})
        return out


def init_parameters(cfg: ModelConfig, seed: int, std: float = 0.02) -> Parameters:
    """Draw weights in a fixed order so a seed fully determines the model."""
    rng = Rng(seed)
    return build_parameters(cfg, lambda shape: rng.normal(shape, std))


def build_parameters(cfg: ModelConfig, weight) -> Parameters:
    """The tensors of ``param_shapes(cfg)``: norm gains are ones, gate
    biases zeros, and every other entry is ``weight(shape)``, called in
    table order."""
    def value(name, shape):
        if name.endswith("norm"):
            return np.ones(shape)
        return np.zeros(shape) if name.endswith("gate_bias") else weight(shape)

    try:
        tensors = {name: Tensor(value(name, shape), requires_grad=True)
                   for name, shape in param_shapes(cfg).items()}
    except (MemoryError, ValueError) as e:   # ValueError: past numpy's largest array
        raise ConfigError(f"vocab {cfg.vocab}, d_model {cfg.d_model} and d_ff {cfg.d_ff} "
                          f"are too large to allocate: {e}") from e
    return Parameters(cfg, tensors)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., n, h*dh] -> [..., n, h, dh]; attention takes the heads first,
    ``.swapaxes(-3, -2)``, after rotary has run on the contiguous rows."""
    return x.reshape(x.shape[:-1] + (n_heads, -1))


def step_matmul(rows: int):
    """A decode step's weight product ``a @ w``; 2 or more rows take a weight over
    PANEL_BYTES, K a multiple of PANEL, as a sum of products over its K panels."""
    if rows > 1:
        return lambda a, w: (np.matmul(a.reshape(rows, -1, PANEL).swapaxes(0, 1),
                                       w.reshape(-1, PANEL, w.shape[1])).sum(axis=0)
                             if w.nbytes > PANEL_BYTES and len(w) % PANEL == 0 else a @ w)
    return operator.matmul


def block_stack_forward(params: Parameters, x, positions, loop_index: int = 1,
                        shared_kv=None, rings=(), rows=None):
    """One pass of the shared block stack plus the final norm: the one layer
    body of training, prefill and every decode step. Tensor operands run on
    the tape; plain arrays (``Parameters.arrays``) give plain arrays.

    x: [b, n, d_model], row i at position positions[i]; or, when ``positions``
    is an int, a decode step, whose rows x [rows, d_model] all sit at that one
    position and use ``step_matmul`` (K panels), not ``@``. Layer li attends
    over its own keys (``shared_kv`` None) or over ``shared_kv[li]``: in a
    step, the layer's ``SharedKVCache``, into which row 0 first writes its
    keys; otherwise loop 1's (roped_k, v) [b, kv_heads, m, d_head] at positions
    0 .. m - 1, read by a later plt loop, which may start past position 0. With
    gswa, the rows of later loops also attend a window of their own keys, mixed
    in through their gate (``_window_mix``): every row of a later plt loop
    (``loop_index`` >= 2), banded over the pass's keys, with its loop's gate;
    or rows 1.. of a decode step, which run loops 2..L, each over its loop's
    heads of the layer's ring ``rings[li]`` and with its loop's gate.

    ``rows`` is given by prefill and the training step: the loop's row of
    ``prefill_table``, whose entry j is the first row of the layer-j
    output that is read later (entry 0: x's first row). Layer j then forms
    its keys and values on every row it takes in, [rows[j - 1], n), and
    runs its queries, attention, gate, output projection and MLP only on
    [rows[j], n).

    Returns (hidden, own_kv): the post-norm output (from row rows[-1] when
    ``rows`` is given) and the per-layer (roped_k, v) the pass made (None
    entries when it had no use for them).
    """
    cfg = params.config
    step = is_int(positions)
    use_local = len(rings) > 0 if step else cfg.gswa and shared_kv is not None
    own = step or use_local or shared_kv is None   # the pass needs its own keys
    gi = loop_index - 2 if cfg.per_loop_gates else 0
    heads, kv_heads, rope = cfg.n_heads, cfg.n_kv_heads, params.rope
    at = positions if step else positions[:, None]   # each row's rotary row, across its heads
    mm = step_matmul(len(x) if step else 1)
    own_kv = []
    for li, layer in enumerate(params.layers):
        h = rmsnorm(x, layer.attn_norm)
        k = v = None
        if own:   # on every row the layer takes in
            k = apply_rope(split_heads(mm(h, layer.wk), kv_heads), at, rope).swapaxes(-3, -2)
            v = split_heads(mm(h, layer.wv), kv_heads).swapaxes(-3, -2)
        own_kv.append((k, v))
        cut = 0 if rows is None else rows[li + 1] - rows[li]
        if cut:   # the rest runs only on the rows read above this layer
            x, h, positions = x[:, cut:], h[:, cut:], positions[cut:]
            at = positions[:, None]
        q_full = mm(h, layer.wq)
        q = apply_rope(split_heads(q_full, heads), at, rope).swapaxes(-3, -2)
        if step:
            shared_kv[li].write(positions, k[:, :1], v[:, :1])
            kv = shared_kv[li].view(positions + 1)
        else:
            kv = (k, v) if shared_kv is None else shared_kv[li]
        y = attention(q, *kv, positions)
        if use_local and step:
            ring = rings[li]
            ring.write(positions, _later(k), _later(v))
            y[:, 1:] = _window_mix(cfg, layer, slice(None), _later(q_full), _later(q), _later(y),
                                   *ring.gather(positions), positions).swapaxes(0, 1)[:, :, 0]
        elif use_local:
            y = _window_mix(cfg, layer, slice(gi, gi + 1), q_full, q, y, k, v,
                            positions[0] - cut, positions)   # k starts at the first input row
        x = x + mm(y.swapaxes(-3, -2).reshape(x.shape), layer.wo)   # heads merged back
        hm = rmsnorm(x, layer.mlp_norm)
        x = x + mm(silu(mm(hm, layer.w_gate)) * mm(hm, layer.w_up), layer.w_down)
    return rmsnorm(x, params.final_norm), own_kv


def _later(t):
    """Rows 1.. of a decode step's [..., rows, :] as [rows - 1, ..., 1, :]."""
    return t[..., 1:, None, :].swapaxes(0, -3)


def _window_mix(cfg, layer, gates, q_full, q, y, kw, vw, k_start, positions):
    """Mix attention over window keys ``kw`` / ``vw`` (from ``k_start``) into
    the global output ``y``, through the layer's gates ``[gates]``."""
    g = gate_values(layer.gate_weight[gates], layer.gate_bias[gates, None], q_full)
    return gated_fuse(g, attention(q, kw, vw, positions, cfg.window, k_start), y)


def shift_right(h: Tensor) -> Tensor:
    """Shift [b, n, d] one step along the sequence axis, zero-filling row 0."""
    b, n, d = h.shape
    pad = Tensor(np.zeros((b, 1, d))) if isinstance(h, Tensor) else np.zeros((b, 1, d))
    return pad if n == 1 else concat([pad, h[:, :-1, :]], axis=1)


@dataclass
class LoopActivations:
    """What a decode session reads to take over after prefill.

    ``rows`` is the ``prefill_table`` prefill ran: loop l's layer j took
    in rows [rows[l][j - 1], n) and made its keys/values there, so
    ``own_kv_per_loop`` covers at least each cache and ring seed, and the
    loop's hidden state covers [rows[l][-1], n). Loops past
    ``cache_loops`` read loop 1's keys/values.
    """

    hidden_per_loop: list          # loops x [b, n - rows[l][-1], d_model]
    own_kv_per_loop: list          # loops x layers x (roped_k | None, v | None)
    rows: list                     # loops x (n_layers + 1) first rows


def prefill_table(cfg: ModelConfig, n: int, top: int) -> list:
    """For n tokens, the first row each layer of each loop must compute so
    that every later read is served. Entry [l][j] is the first row whose
    layer-j output in loop l + 1 is read later (j = 0: the loop's input,
    j = n_layers: its hidden state). ``top`` is the first row whose logits
    are read: n - 1 for a decode session, which also reads each cache's
    keys/values, the carries at n - 1 and, with gswa, the ring seeds at
    [n - window, n); the first scored row for the training loss, which
    reads logits on [top, n).

    - The top of the last loop is ``top``. An earlier plt loop's top is one
      row before where the next loop starts, since that loop reads its
      output one position back; an earlier ``vanilla_loop`` loop's is
      where the next starts, 0.
    - A loop that fills its own full cache (the first ``cache_loops``)
      needs every layer's keys on every row, so only its top layer trims,
      and it starts at 0 even with no layers.
    - A later loop reads loop 1's keys, so each layer takes in just the
      rows the layer above needs or, with a window ring, window - 1 more:
      queries from row r see their own keys back to r - (window - 1). As
      r <= n - 1, that also covers the ring seeds on the last window rows.
    """
    depth = cfg.n_layers
    reach = cfg.window - 1 if cfg.window_loops else 0   # rows a later layer's queries look back
    table = []
    for loop in range(cfg.loops, 0, -1):
        if loop <= cfg.cache_loops:   # fills its own full cache
            rows = [0] * depth + [top if depth else 0]
        else:
            rows = [max(0, top - reach * (depth - j)) for j in range(depth + 1)]
        table.insert(0, rows)
        top = max(0, rows[0] - 1) if cfg.mode == "plt" else rows[0]
    return table


def head_weight(params: Parameters) -> Tensor:
    """The output projection [d_model, vocab]; the transposed embedding when tied."""
    if params.head is not None:
        return params.head
    return params.embedding.swapaxes(-1, -2)


def forward(params: Parameters, tokens: np.ndarray, return_states: bool = False,
            first_row: int = 0):
    """Token ids [b, n] -> logits [b, n - first_row, vocab] for rows
    [first_row, n) under the configured wiring.

    Each layer of each loop runs only on the rows a later read needs
    (``prefill_table``): the rows that feed the returned logits, which is
    how the training step runs on its scored rows (for ``first_row`` 0 the
    table is all zeros and trims nothing). With return_states=True, returns
    the LoopActivations of that table instead, and no logits are formed: a
    decode session asks for them with ``first_row`` n - 1.
    """
    cfg = params.config
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.shape[1] == 0 or tokens.shape[0] == 0:
        raise EmptyInputError(f"expected non-empty [batch, seq] token ids, got shape {tokens.shape}")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise TokenError(f"token ids must be integers, got dtype {tokens.dtype}")
    n = tokens.shape[1]
    if n > cfg.max_seq:
        raise CapacityError(f"sequence length {n} exceeds max_seq {cfg.max_seq}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise TokenError(f"token ids must be in [0, {cfg.vocab})")
    if not is_int(first_row) or not 0 <= first_row < n:
        raise PositionError(f"first_row {first_row!r} is not one of the {n} token rows")
    table = prefill_table(cfg, n, first_row)
    positions = np.arange(n)
    e = gather_rows(params.embedding, tokens)

    hidden, own_kv = block_stack_forward(params, e, positions, loop_index=1, rows=table[0])
    hiddens = [hidden]
    kv_per_loop = [own_kv]
    shared = own_kv if cfg.cache_loops < cfg.loops else None   # later loops read loop 1's keys
    for loop_index in range(2, cfg.loops + 1):
        rows, below = table[loop_index - 1], table[loop_index - 2]
        s, prev_s = rows[0], below[-1]   # prev covers [prev_s, n)
        prev = hiddens[-1]
        if cfg.mode != "plt":
            b = e + prev
        elif s == 0:
            b = e + shift_right(prev)
        else:   # positions s - 1 .. n - 2 of the previous loop
            b = e[:, s:] + prev[:, s - 1 - prev_s:n - 1 - prev_s]
        hidden, own_kv = block_stack_forward(
            params, b, positions[s:], loop_index=loop_index, shared_kv=shared, rows=rows)
        hiddens.append(hidden)
        kv_per_loop.append(own_kv)
    if return_states:
        return LoopActivations(hidden_per_loop=hiddens, own_kv_per_loop=kv_per_loop,
                               rows=table)
    lead = first_row - table[-1][-1]   # a loop with no layers starts at 0
    return (hiddens[-1][:, lead:] if lead else hiddens[-1]) @ head_weight(params)


# ---------------------------------------------------------------------------
# size and work accounting
# ---------------------------------------------------------------------------


def count_params_from_config(cfg: ModelConfig) -> int:
    """Parameter count from the shapes of ``param_shapes`` alone, with no
    allocation and without naming every layer's entries."""
    before, layer, after = ({k: math.prod(s) for k, s in part.items()}
                            for part in _shape_parts(cfg))
    return sum(before.values()) + cfg.n_layers * sum(layer.values()) + sum(after.values())


def count_flops_per_token(cfg: ModelConfig, context: int | None = None) -> dict:
    """Multiply-add FLOPs (2 per MAC) to produce one token at the given
    context length, split by component. Norms and elementwise work are
    excluded; this counts the matmuls that dominate.
    """
    n = cfg.max_seq if context is None else context
    d, kv, h, dh = cfg.d_model, cfg.n_kv_heads * cfg.d_head, cfg.n_heads, cfg.d_head
    own_kv = cfg.cache_loops + cfg.window_loops   # loops projecting keys/values of their own
    counts = {
        "projections": cfg.n_layers * (cfg.loops * 4 * d * d + own_kv * 4 * d * kv),
        "attention": cfg.n_layers * (cfg.loops * 4 * n * h * dh
                                     + cfg.window_loops * 4 * min(cfg.window, n) * h * dh),
        "gate": cfg.n_layers * cfg.window_loops * 2 * d * h,
        "mlp": cfg.n_layers * cfg.loops * 3 * 2 * d * cfg.d_ff,
        "head": 2 * d * cfg.vocab,
    }
    counts["total"] = sum(counts.values())
    return counts
