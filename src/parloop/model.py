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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    GateParams,
    RopeTables,
    apply_rope,
    attention,
    build_rope_tables,
    gate_values,
    gated_fuse,
)
from .errors import CapacityError, ConfigError, EmptyInputError, InvalidLoopError, TokenError
from .tensor import Rng, Tensor, concat, embedding as gather_rows, rmsnorm, silu, zeros

MODES = ("vanilla", "vanilla_loop", "plt")


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
    kv_share: bool | None = None    # None: inferred from mode
    gswa: bool = False
    weight_tying: bool = True
    per_loop_gates: bool = False
    max_seq: int = 256
    rope_theta: float = 10000.0
    norm_eps: float = 1e-6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.n_kv_heads is None:
            self.n_kv_heads = self.n_heads
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        if self.kv_share is None:
            self.kv_share = self.mode == "plt"
        if self.vocab < 2:
            raise ConfigError("vocab must be >= 2")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be >= 0")
        if self.loops < 1:
            raise ConfigError("loops must be >= 1")
        if self.max_seq < 1:
            raise ConfigError("max_seq must be >= 1")
        if not 0.0 < self.norm_eps < math.inf:
            raise ConfigError(f"norm_eps must be positive and finite, got {self.norm_eps}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_head % 2 != 0:
            raise ConfigError(f"d_head {self.d_head} must be even (rotary pairs)")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(f"n_heads {self.n_heads} not divisible by n_kv_heads {self.n_kv_heads}")
        if self.mode == "vanilla" and self.loops != 1:
            raise ConfigError("vanilla mode is single-pass; set loops=1")
        if self.mode == "plt" and not self.kv_share:
            raise ConfigError("plt mode requires kv_share")
        if self.mode != "plt" and self.kv_share:
            raise ConfigError("kv_share is only defined for plt mode")
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


@dataclass
class LayerParams:
    attn_norm: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    mlp_norm: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor
    gates: list = field(default_factory=list)  # GateParams, one or loops-1 of them


@dataclass
class Parameters:
    config: ModelConfig
    embedding: Tensor
    layers: list
    final_norm: Tensor
    head: Tensor | None  # None when tied to the embedding
    rope: RopeTables

    def named_tensors(self) -> dict:
        """Stable name -> Tensor mapping (checkpoint and optimizer order)."""
        out = {"embedding": self.embedding}
        for i, layer in enumerate(self.layers):
            p = f"layers.{i}."
            out[p + "attn_norm"] = layer.attn_norm
            out[p + "wq"] = layer.wq
            out[p + "wk"] = layer.wk
            out[p + "wv"] = layer.wv
            out[p + "wo"] = layer.wo
            for gi, g in enumerate(layer.gates):
                out[p + f"gates.{gi}.weight"] = g.weight
                out[p + f"gates.{gi}.bias"] = g.bias
            out[p + "mlp_norm"] = layer.mlp_norm
            out[p + "w_gate"] = layer.w_gate
            out[p + "w_up"] = layer.w_up
            out[p + "w_down"] = layer.w_down
        out["final_norm"] = self.final_norm
        if self.head is not None:
            out["head"] = self.head
        return out


def init_parameters(cfg: ModelConfig, seed: int, std: float = 0.02) -> Parameters:
    """Draw weights in a fixed order so a seed fully determines the model."""
    rng = Rng(seed)
    return build_parameters(cfg, lambda shape: rng.normal(shape, std))


def build_parameters(cfg: ModelConfig, weight) -> Parameters:
    """The parameter layout of ``cfg``: norm gains are ones, gate biases
    zeros, and every matrix is ``weight(shape)``, called in a fixed order."""
    dh, kh = cfg.d_head, cfg.n_kv_heads

    def w(shape):
        return Tensor(weight(shape), requires_grad=True)

    def ones(n):
        return Tensor(np.ones(n), requires_grad=True)

    emb = w((cfg.vocab, cfg.d_model))
    layers = []
    n_gates = 0
    if cfg.gswa and cfg.loops > 1:
        n_gates = (cfg.loops - 1) if cfg.per_loop_gates else 1
    for _ in range(cfg.n_layers):
        layers.append(LayerParams(
            attn_norm=ones(cfg.d_model),
            wq=w((cfg.d_model, cfg.d_model)),
            wk=w((cfg.d_model, kh * dh)),
            wv=w((cfg.d_model, kh * dh)),
            wo=w((cfg.d_model, cfg.d_model)),
            gates=[GateParams(weight=w((cfg.d_model, cfg.n_heads)),
                              bias=Tensor(np.zeros(cfg.n_heads), requires_grad=True))
                   for _ in range(n_gates)],
            mlp_norm=ones(cfg.d_model),
            w_gate=w((cfg.d_model, cfg.d_ff)),
            w_up=w((cfg.d_model, cfg.d_ff)),
            w_down=w((cfg.d_ff, cfg.d_model)),
        ))
    head = None if cfg.weight_tying else w((cfg.d_model, cfg.vocab))
    return Parameters(
        config=cfg,
        embedding=emb,
        layers=layers,
        final_norm=ones(cfg.d_model),
        head=head,
        rope=build_rope_tables(cfg.max_seq, dh, cfg.rope_theta),
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[b, n, h*dh] -> [b, h, n, dh]."""
    b, n, hd = x.shape
    return x.reshape(b, n, n_heads, hd // n_heads).swapaxes(1, 2)


def merge_heads(x: Tensor) -> Tensor:
    """[b, h, n, dh] -> [b, n, h*dh]."""
    b, h, n, dh = x.shape
    return x.swapaxes(1, 2).reshape(b, n, h * dh)


def gate_for_loop(layer: LayerParams, cfg: ModelConfig, loop_index: int) -> GateParams:
    if cfg.per_loop_gates:
        return layer.gates[loop_index - 2]
    return layer.gates[0]


def block_stack_forward(params: Parameters, x: Tensor, positions: np.ndarray,
                        loop_index: int = 1, shared_kv: list | None = None):
    """One pass of the shared block stack plus the final norm.

    x: [b, n, d_model]. When `shared_kv` is given (list over layers of
    (roped_k, v) tensors shaped [b, kv_heads, m, d_head]) the pass is a
    non-first loop of the sharing mode: global attention reads from it and,
    with gating enabled, a sliding window over this pass's own keys/values
    is mixed in per head. Otherwise the pass runs plain causal
    self-attention.

    Returns (hidden, own_kv): hidden is the post-norm output, own_kv the
    per-layer (roped_k, v) this pass produced (None entries when the pass
    had no use for private keys).
    """
    cfg = params.config
    own_kv = []
    use_local = shared_kv is not None and cfg.gswa
    if use_local and loop_index < 2:
        raise InvalidLoopError(
            f"sliding-window path is defined for loops >= 2, got {loop_index}")
    for li, layer in enumerate(params.layers):
        h = rmsnorm(x, layer.attn_norm, cfg.norm_eps)
        q_full = h @ layer.wq
        q = apply_rope(split_heads(q_full, cfg.n_heads), positions, params.rope)
        if shared_kv is None or use_local:
            k = apply_rope(split_heads(h @ layer.wk, cfg.n_kv_heads), positions, params.rope)
            v = split_heads(h @ layer.wv, cfg.n_kv_heads)
        else:
            k = v = None
        own_kv.append((k, v))
        if shared_kv is None:
            y = attention(q, k, v, positions)
        else:
            y = attention(q, *shared_kv[li], positions)
            if use_local:
                y_local = attention(q, k, v, positions, cfg.window)
                g = gate_values(gate_for_loop(layer, cfg, loop_index), q_full)
                y = gated_fuse(g, y_local, y)
        x = x + merge_heads(y) @ layer.wo
        hm = rmsnorm(x, layer.mlp_norm, cfg.norm_eps)
        x = x + (silu(hm @ layer.w_gate) * (hm @ layer.w_up)) @ layer.w_down
    return rmsnorm(x, params.final_norm, cfg.norm_eps), own_kv


def shift_right(h: Tensor) -> Tensor:
    """Shift [b, n, d] one step along the sequence axis, zero-filling row 0."""
    b, n, d = h.shape
    if n == 1:
        return zeros((b, 1, d))
    return concat([zeros((b, 1, d)), h[:, :-1, :]], axis=1)


@dataclass
class LoopActivations:
    """Everything a decode session needs to take over after a full pass."""

    logits: Tensor                 # [b, n, vocab]
    hidden_per_loop: list          # loops x Tensor [b, n, d_model]
    shared_kv: list | None         # layers x (roped_k, v), first-pass keys/values
    own_kv_per_loop: list          # loops x layers x (roped_k | None, v | None)


def head_weight(params: Parameters) -> Tensor:
    """The output projection [d_model, vocab]; the transposed embedding when tied."""
    if params.head is not None:
        return params.head
    return params.embedding.transpose()


def forward(params: Parameters, tokens: np.ndarray, return_states: bool = False):
    """Token ids [b, n] -> logits [b, n, vocab] under the configured wiring.

    With return_states=True, returns LoopActivations instead of the bare
    logits tensor.
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
    positions = np.arange(n)
    e = gather_rows(params.embedding, tokens)

    hidden, own_kv = block_stack_forward(params, e, positions, loop_index=1)
    hiddens = [hidden]
    kv_per_loop = [own_kv]
    shared = own_kv if cfg.kv_share else None
    for loop_index in range(2, cfg.loops + 1):
        prev = hiddens[-1]
        if cfg.mode == "plt":
            b = e + shift_right(prev)
        else:
            b = e + prev
        hidden, own_kv = block_stack_forward(
            params, b, positions, loop_index=loop_index, shared_kv=shared)
        hiddens.append(hidden)
        kv_per_loop.append(own_kv)
    logits = hiddens[-1] @ head_weight(params)
    if return_states:
        return LoopActivations(logits=logits, hidden_per_loop=hiddens,
                               shared_kv=shared, own_kv_per_loop=kv_per_loop)
    return logits


# ---------------------------------------------------------------------------
# size and work accounting
# ---------------------------------------------------------------------------


def count_params(params: Parameters) -> int:
    return sum(t.size for t in params.named_tensors().values())


def count_params_from_config(cfg: ModelConfig) -> int:
    """Parameter count from the shapes alone, no allocation."""
    d, dh, kh = cfg.d_model, cfg.d_head, cfg.n_kv_heads
    per_layer = (
        d                      # attn_norm
        + d * d                # wq
        + 2 * d * (kh * dh)    # wk, wv
        + d * d                # wo
        + d                    # mlp_norm
        + 3 * d * cfg.d_ff     # w_gate, w_up, w_down
    )
    if cfg.gswa and cfg.loops > 1:
        n_gates = (cfg.loops - 1) if cfg.per_loop_gates else 1
        per_layer += n_gates * (d * cfg.n_heads + cfg.n_heads)
    total = cfg.vocab * d + cfg.n_layers * per_layer + d
    if not cfg.weight_tying:
        total += d * cfg.vocab
    return total


def count_flops_per_token(cfg: ModelConfig, context: int | None = None) -> dict:
    """Multiply-add FLOPs (2 per MAC) to produce one token at the given
    context length, split by component. Norms and elementwise work are
    excluded; this counts the matmuls that dominate.
    """
    n = cfg.max_seq if context is None else context
    d, dh, kh, h = cfg.d_model, cfg.d_head, cfg.n_kv_heads, cfg.n_heads
    proj_qo = 2 * d * d * 2                  # wq, wo
    proj_kv = 2 * d * (kh * dh) * 2          # wk, wv
    mlp = 3 * 2 * d * cfg.d_ff
    attn_global = 4 * n * h * dh             # scores + weighted sum, all heads

    per_pass_proj = proj_qo + proj_kv
    per_pass_mlp = mlp

    projections = 0
    attention = 0
    gate = 0
    for loop_index in range(1, cfg.loops + 1):
        nonfirst_shared = cfg.kv_share and loop_index >= 2
        projections += per_pass_proj
        if nonfirst_shared and not cfg.gswa:
            projections -= proj_kv  # private keys/values never computed
        attention += attn_global
        if nonfirst_shared and cfg.gswa:
            attention += 4 * min(cfg.window, n) * h * dh
            gate += 2 * d * h
    mlp_total = cfg.loops * per_pass_mlp
    head = 2 * d * cfg.vocab
    counts = {
        "projections": cfg.n_layers * projections,
        "attention": cfg.n_layers * attention,
        "gate": cfg.n_layers * gate,
        "mlp": cfg.n_layers * mlp_total,
        "head": head,
    }
    counts["total"] = sum(counts.values())
    return counts
