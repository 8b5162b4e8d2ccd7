"""Straight-line numpy re-derivation of the model forward used as a test
oracle. Everything is written position by position and head by head, with
no shared code, tapes, or batching tricks, so agreement with the library
is meaningful. Also a dependency oracle for ``model.prefill_table``."""

import math

import numpy as np


def ref_rms(x, gain, eps):
    return x / np.sqrt((x * x).mean() + eps) * gain


def ref_silu(x):
    return x / (1.0 + np.exp(-x))


def ref_rope(vec, pos, theta):
    half = len(vec) // 2
    out = np.empty_like(vec)
    for i in range(half):
        angle = pos * theta ** (-i / half)
        c, s = math.cos(angle), math.sin(angle)
        out[i] = vec[i] * c - vec[i + half] * s
        out[i + half] = vec[i] * s + vec[i + half] * c
    return out


def ref_softmax_combine(scores, values):
    e = np.exp(scores - max(scores))
    w = e / e.sum()
    out = np.zeros_like(values[0])
    for wi, vi in zip(w, values):
        out = out + wi * vi
    return out


def ref_stack(weights, cfg, x, loop_index, shared):
    """One pass of the block stack. x: [n, d]. shared: None or per-layer
    (K, V) with K[j][kv_head] the rotated key of position j.

    Returns (hidden, own_kv) with own_kv in the same per-position layout.
    """
    n, d = x.shape
    h_heads, kv_heads = cfg.n_heads, cfg.n_kv_heads
    dh = d // h_heads
    groups = h_heads // kv_heads
    use_local = shared is not None and cfg.gswa
    own_kv = []
    for li in range(cfg.n_layers):
        p = f"layers.{li}."
        normed = np.stack([ref_rms(x[i], weights[p + "attn_norm"], 1e-6)
                           for i in range(n)])
        q_full = normed @ weights[p + "wq"]
        if shared is None or use_local:
            k_full = normed @ weights[p + "wk"]
            v_full = normed @ weights[p + "wv"]
            keys = [[ref_rope(k_full[j, g * dh:(g + 1) * dh], j, 10000.0)
                     for g in range(kv_heads)] for j in range(n)]
            vals = [[v_full[j, g * dh:(g + 1) * dh] for g in range(kv_heads)]
                    for j in range(n)]
        else:
            keys = vals = None
        own_kv.append((keys, vals))

        gi = loop_index - 2 if cfg.per_loop_gates else 0

        attn_out = np.zeros((n, d))
        for i in range(n):
            for hh in range(h_heads):
                g_idx = hh // groups
                q = ref_rope(q_full[i, hh * dh:(hh + 1) * dh], i, 10000.0)
                if shared is None:
                    ctx = list(range(i + 1))
                    scores = np.array([q @ keys[j][g_idx] for j in ctx]) / math.sqrt(dh)
                    y = ref_softmax_combine(scores, [vals[j][g_idx] for j in ctx])
                else:
                    s_keys, s_vals = shared[li]
                    ctx = list(range(i + 1))
                    scores = np.array([q @ s_keys[j][g_idx] for j in ctx]) / math.sqrt(dh)
                    y_global = ref_softmax_combine(scores, [s_vals[j][g_idx] for j in ctx])
                    if use_local:
                        win = [j for j in ctx if j > i - cfg.window]
                        scores = np.array([q @ keys[j][g_idx] for j in win]) / math.sqrt(dh)
                        y_local = ref_softmax_combine(scores, [vals[j][g_idx] for j in win])
                        z = q_full[i] @ weights[p + "gate_weight"][gi, :, hh] \
                            + weights[p + "gate_bias"][gi, hh]
                        gate = 1.0 / (1.0 + np.exp(-z))
                        y = gate * y_local + (1.0 - gate) * y_global
                    else:
                        y = y_global
                attn_out[i, hh * dh:(hh + 1) * dh] = y
        x = x + attn_out @ weights[p + "wo"]
        mlp_out = np.zeros((n, d))
        for i in range(n):
            hm = ref_rms(x[i], weights[p + "mlp_norm"], 1e-6)
            mlp_out[i] = (ref_silu(hm @ weights[p + "w_gate"])
                          * (hm @ weights[p + "w_up"])) @ weights[p + "w_down"]
        x = x + mlp_out
    hidden = np.stack([ref_rms(x[i], weights["final_norm"], 1e-6)
                       for i in range(n)])
    return hidden, own_kv


def ref_forward(weights, cfg, tokens):
    """Full forward for one unbatched token sequence; returns [n, vocab]."""
    tokens = np.asarray(tokens)
    n = len(tokens)
    E = np.stack([weights["embedding"][t] for t in tokens])
    hidden, own_kv = ref_stack(weights, cfg, E.copy(), 1, None)
    shared = own_kv if cfg.mode == "plt" else None
    for loop_index in range(2, cfg.loops + 1):
        if cfg.mode == "plt":
            b = E.copy()
            for j in range(1, n):
                b[j] = E[j] + hidden[j - 1]
        else:
            b = E + hidden
        hidden, _ = ref_stack(weights, cfg, b, loop_index, shared)
    if "head" in weights:
        return hidden @ weights["head"]
    return hidden @ weights["embedding"].T


def ref_prefill_table(cfg, n, top):
    """The rows each layer of each loop must compute, found by following
    the model's dependencies back from what is read, one (loop, layer, row)
    at a time, without the closed-form rule of ``model.prefill_table``.

    Node (l, j, r) is the layer-j output of loop l + 1 at row r (j = 0: the
    loop's input, j = n_layers: its hidden state). The reads, which serve a
    decode session and the training loss alike (the one table serves both):
    every layer's keys on every row of each loop that keeps its own cache
    (loop 1, and every ``vanilla_loop`` loop), which is also handed every
    row when it has no layers; with gswa, each later loop's ring seeds on
    the last ``window`` rows; the plt carries, each earlier loop's hidden
    state at row n - 1; and the logits on [top, n). The dependencies, from
    the relations the paper opens with:

    - layer j at row r reads layer j - 1 at r (residual and queries) and the
      keys it attends, made from layer j - 1's output: its own on rows
      0..r in a loop that keeps its own cache; otherwise loop 1's on rows
      0..r (kv sharing) and, with gswa, its own on the last ``window`` rows
      up to r;
    - a later loop's input at row r reads the loop before at r - 1 under plt
      (none at row 0) and at r under ``vanilla_loop``.

    Returns, per loop and layer, the first row whose output is read.
    """
    depth, w, plt = cfg.n_layers, cfg.window, cfg.mode == "plt"
    need = [[[False] * n for _ in range(depth + 1)] for _ in range(cfg.loops)]
    todo = []

    def read(loop, j, rows):
        for r in rows:
            if not need[loop][j][r]:
                need[loop][j][r] = True
                todo.append((loop, j, r))

    for loop in range(cfg.loops):
        if loop == 0 or not plt:   # keeps its own cache (with no layers: its input)
            for j in range(max(depth, 1)):
                read(loop, j, range(n))
        elif cfg.gswa:
            for j in range(depth):
                read(loop, j, range(max(0, n - w), n))
        if plt and loop < cfg.loops - 1:
            read(loop, depth, [n - 1])
    read(cfg.loops - 1, depth, range(top, n))
    while todo:
        loop, j, r = todo.pop()
        if j > 0:
            read(loop, j - 1, [r])
            if loop == 0 or not plt:
                read(loop, j - 1, range(r + 1))
            else:
                read(0, j - 1, range(r + 1))
                if cfg.gswa:
                    read(loop, j - 1, range(max(0, r - w + 1), r + 1))
        elif loop > 0 and (r > 0 or not plt):
            read(loop - 1, depth, [r - 1 if plt else r])
    return [[rows.index(True) for rows in layers] for layers in need]


def weights_of(params):
    return {k: t.data.copy() for k, t in params.named_tensors().items()}
