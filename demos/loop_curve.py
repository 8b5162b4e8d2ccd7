"""Per-token decode step time of the staggered wiring, by loop count.

A plt-L step runs L rows through one pass of the stack, so its cost over a
one-row vanilla step is what one more row costs while the weights stream
from memory. This prints, for L = 2, 3 and 4, the median step time of plt-L
and plt-L+gswa and its ratio to vanilla's on the decode_short geometry of
perfbench (d_model 256, 4 layers, d_ff 1024, 64-token prompt, float64). Each
wiring has its own weights, as in the benchmark, and the sessions rotate
inside one process, so a drifting host slows every wiring alike and the
ratios stay comparable where the milliseconds do not. BLAS runs one thread
unless the environment says otherwise.

Run: python3 demos/loop_curve.py
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import time  # noqa: E402

import numpy as np  # noqa: E402

from parloop import ModelConfig, init_parameters, prefill  # noqa: E402

GEOMETRY = dict(vocab=256, d_model=256, n_layers=4, n_heads=8, n_kv_heads=2,
                d_ff=1024)
PROMPT, STEPS, ROUNDS = 64, 24, 12
WIRINGS = {"vanilla": dict(mode="vanilla")}
for loops in (2, 3, 4):
    WIRINGS[f"plt{loops}"] = dict(mode="plt", loops=loops)
    WIRINGS[f"plt{loops}+gswa"] = dict(mode="plt", loops=loops, gswa=True, window=16)

params = {w: init_parameters(ModelConfig(**GEOMETRY, **kw, max_seq=PROMPT + STEPS), seed=1)
          for w, kw in WIRINGS.items()}
prompt = np.random.default_rng(1).integers(0, GEOMETRY["vocab"], PROMPT)
step_s = {w: [] for w in WIRINGS}   # per round, that round's step times
names = list(WIRINGS)
for rnd in range(ROUNDS + 1):   # round 0 warms up and is not kept
    for w in names[rnd % len(names):] + names[:rnd % len(names)]:
        sess = prefill(params[w], prompt)
        token = int(np.argmax(sess.last_logits))
        times = []
        for _ in range(STEPS):
            t0 = time.perf_counter()
            token = int(np.argmax(sess.step(token)))
            times.append(time.perf_counter() - t0)
        if rnd:
            step_s[w].append(times)

vanilla = np.median(step_s["vanilla"], axis=1)
print(f"decode_short geometry, {PROMPT}-token prompt, {ROUNDS} rounds x {STEPS} steps "
      "per wiring; median ms per token, and the median over rounds of its ratio to "
      "that round's vanilla")
print(f"{'wiring':12s} {'ms':>7s} {'x vanilla':>10s}")
for w in names:
    ratio = np.median(np.median(step_s[w], axis=1) / vanilla)
    print(f"{w:12s} {np.median(step_s[w]) * 1e3:7.2f} {ratio:10.2f}")
