"""Show that staggered decoding reproduces the training-time computation.

A looped model applied serially pays `loops` stack passes per new token.
The staggered schedule instead keeps `loops - 1` carries in flight and
fuses them into one micro-batch, so each token costs one pass while the
logits stay identical to running the full forward from scratch.

Run: python3 demos/parallel_decoding.py
"""

import numpy as np

from parloop import ModelConfig, forward, init_parameters, prefill
from parloop.tensor import Rng


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


cfg = ModelConfig(vocab=31, d_model=32, n_layers=2, n_heads=4, n_kv_heads=2,
                  d_ff=64, mode="plt", loops=3, gswa=True, window=4,
                  max_seq=64)
params = init_parameters(cfg, seed=7)
rng = Rng(123)
tokens = rng.integers(0, cfg.vocab, shape=24)

banner("1. one pass per token, same logits as the full forward")

full = forward(params.arrays(), tokens)[0]   # [n, vocab], no tape recorded

sess = prefill(params, tokens[:4])
worst = np.abs(sess.last_logits - full[3]).max()
for i in range(4, len(tokens)):
    out = sess.step(int(tokens[i]))
    worst = max(worst, np.abs(out - full[i]).max())

print(f"model: {cfg.loops} loops over {cfg.n_layers} shared layers, "
      f"window {cfg.window}")
print(f"tokens replayed:     {len(tokens)}")
print(f"stack passes logged: {sess.passes} for {sess.steps} decode steps")
long = prefill(params, tokens)
print(f"prefill stack rows:  {sess.prefill_rows} for the 4-token prompt, "
      f"{long.prefill_rows} for all {len(tokens)} tokens "
      f"(vs {cfg.loops * len(tokens)} for every loop in full)")
print(f"worst |logit gap| vs full forward: {worst:.3e}")

banner("2. the serial wiring pays `loops` passes for the same tokens")

serial_cfg = ModelConfig(vocab=31, d_model=32, n_layers=2, n_heads=4,
                         n_kv_heads=2, d_ff=64, mode="vanilla_loop", loops=3,
                         max_seq=64)
serial = prefill(init_parameters(serial_cfg, seed=7), tokens[:4])
for i in range(4, len(tokens)):
    serial.step(int(tokens[i]))

print(f"staggered: {sess.passes_per_token:.1f} passes/token, "
      f"cache {sess.kv_entry_count()}")
print(f"serial:    {serial.passes_per_token:.1f} passes/token, "
      f"cache {serial.kv_entry_count()}")
print("the serial loop also keeps a full cache per loop; the staggered")
print("wiring shares the first loop's entries and adds only small rings.")

banner("3. what the next step's micro-batch contains")

# row 0 will work on the next token; row r continues loop r+1 of the token
# decoded r steps ago, displaced by exactly one position per loop
print(f"rows: {len(sess.inflight) + 1}, all querying position {sess.position}")
print("row 0 is the raw embedding of the token fed next")
for r, carry in enumerate(sess.inflight, start=1):
    print(f"row {r} = embedding + in-flight carry from loop {r} "
          f"(|carry| = {np.linalg.norm(carry):.3f})")
