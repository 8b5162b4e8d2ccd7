"""Workloads, timed loops, correctness gate and metric derivation.

A run builds four models (one per wiring) and one training model from the
workload seed, warms them, then repeats rounds until ``seconds`` have
passed and the workload's minimum round count is met. A round decodes one
session per wiring, in a rotating round-robin order, and then runs a short
``train`` call. Each session is gated against the full forward right after
it is timed. Every run reports every end-to-end metric; the workloads
differ in how much of that work each one stresses (see README.md).

The traced run repeats the same rounds with ``Tracer`` wrapping the public
functions and methods listed in ``install_tracer`` and derives the
per-layer metrics from the recorded spans.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import parloop as pl

# The package re-exports ``train``, which hides the submodule of that name.
pl_attention = importlib.import_module("parloop.attention")
pl_decode = importlib.import_module("parloop.decode")
pl_train = importlib.import_module("parloop.train")

from tracer import NAME, PARENT, RID, SIZE, START, END, Tracer

WIRINGS = {
    "vanilla": dict(mode="vanilla"),
    "loop2": dict(mode="vanilla_loop", loops=2),
    "plt2": dict(mode="plt", loops=2),
    "plt2_gswa": dict(mode="plt", loops=2, gswa=True, window=16),
}
PASSES_PER_TOKEN = {"vanilla": 1, "loop2": 2, "plt2": 1, "plt2_gswa": 1}
COST_ARCH = {"vanilla": "vanilla", "loop2": "loop", "plt2": "loop_clp_kvshare",
             "plt2_gswa": "plt"}
LOOPED = ("loop2", "plt2", "plt2_gswa")
PARITY_TOL = 1e-9   # decode logits vs full forward, max abs (acceptance C01)
WARM_PROMPT = 64
# A cold set-up lasts about a second, so back-to-back samples all see the
# same moment of a drifting machine; one more is taken every this many rounds.
SETUP_EVERY = 6

SHORT_GEOMETRY = dict(vocab=256, d_model=256, n_layers=4, n_heads=8,
                      n_kv_heads=2, d_ff=1024)
LONG_GEOMETRY = dict(vocab=256, d_model=128, n_layers=2, n_heads=8,
                     n_kv_heads=2, d_ff=512)
COPY_TASK = dict(src_len=8, symbols=16)
COPY_MODEL = dict(d_model=64, n_layers=2, n_heads=4, d_ff=128, mode="plt",
                  loops=2, gswa=True, window=4)


@dataclass(frozen=True)
class Workload:
    """One benchmark input set. Every round decodes ``tokens_per_session``
    greedy tokens after a ``prompt_len`` prompt for each wiring at
    ``geometry``, then trains the copy-task model for ``train_steps`` steps."""

    name: str
    geometry: dict
    prompt_len: int
    tokens_per_session: int
    train_steps: int
    min_rounds: int
    train_task: dict = field(default_factory=lambda: dict(COPY_TASK))
    train_model: dict = field(default_factory=lambda: dict(COPY_MODEL))
    train_batch: int = 32
    calib_geometry: dict = field(default_factory=lambda: dict(SHORT_GEOMETRY))
    calib_square: int = 384


WORKLOADS = {
    "decode_short": Workload("decode_short", SHORT_GEOMETRY, prompt_len=64,
                             tokens_per_session=32, train_steps=4, min_rounds=4),
    "decode_long": Workload("decode_long", LONG_GEOMETRY, prompt_len=512,
                            tokens_per_session=8, train_steps=4, min_rounds=13),
}


def _metric_units():
    e2e = {"setup_s": "s"}
    for w in WIRINGS:
        e2e[f"decode_ms.{w}.p50"] = "ms"
        e2e[f"decode_ms.{w}.p90"] = "ms"
    for w in WIRINGS:
        e2e[f"ttft_ms.{w}.p50"] = "ms"
    e2e["train_tokens_per_s"] = "tokens/s"

    layer = {}
    for w in WIRINGS:
        layer[f"decode.step_ms.{w}.p50"] = "ms"
    layer["decode.select_ms.p50"] = "ms"
    for w in WIRINGS:
        layer[f"decode.passes_per_token.{w}"] = "passes/token"
        layer[f"decode.prefill_seed_ms.{w}"] = "ms"
        layer[f"decode.weight_bytes_per_token.{w}"] = "bytes/token"
        layer[f"decode.achieved_gbps.{w}"] = "GB/s"
    for w in LOOPED:
        layer[f"decode.measured_ratio.{w}"] = "ratio"
    for op in ("shared_write", "shared_view", "ring_write", "ring_gather"):
        layer[f"attention.{op}.calls"] = "calls/token"
    layer["attention.ring_gather_ms.p50"] = "ms"
    for w in WIRINGS:
        layer[f"attention.shared_view_bytes_per_token.{w}"] = "bytes/token"
        layer[f"attention.kv_entries.{w}"] = "count"
        layer[f"attention.kv_bytes.{w}"] = "bytes"
    for w in LOOPED:
        layer[f"attention.kv_bytes_ratio.{w}"] = "ratio"
    for w in WIRINGS:
        layer[f"model.forward_ms.prefill.{w}"] = "ms"
    layer["model.forward_ms.train"] = "ms"
    layer["tensor.backward_ms"] = "ms"
    layer["tensor.matmul_fwd.calls"] = "calls/step"
    layer["tensor.matmul_fwd_ms"] = "ms/step"
    layer["tensor.tensors_per_step"] = "tensors/step"
    layer["train.loss_ms"] = "ms"
    layer["train.clip_ms"] = "ms"
    layer["train.adam_ms"] = "ms"
    layer["tasks.sample_ms"] = "ms"
    layer["costmodel.calib_gbps"] = "GB/s"
    layer["costmodel.calib_gflops"] = "GFLOP/s"
    for w in WIRINGS:
        layer[f"costmodel.pred_decode_ms.{w}"] = "ms"
    for w in LOOPED:
        layer[f"costmodel.pred_ratio.{w}"] = "ratio"
    for name in e2e:
        layer[f"trace_overhead.{name}"] = "share"
    return e2e, layer


E2E_UNITS, LAYER_UNITS = _metric_units()


# -- set-up -----------------------------------------------------------------


@dataclass
class Models:
    params: dict          # wiring -> Parameters
    prompt: np.ndarray
    train_params: object
    task: object


def build(wl: Workload, seed: int) -> Models:
    max_seq = wl.prompt_len + wl.tokens_per_session
    params = {w: pl.init_parameters(
        pl.ModelConfig(**wl.geometry, **kw, max_seq=max_seq), seed)
        for w, kw in WIRINGS.items()}
    prompt = np.random.default_rng(seed).integers(
        0, wl.geometry["vocab"], wl.prompt_len)
    task = pl.make_task("copy", **wl.train_task)
    train_cfg = pl.ModelConfig(vocab=task.vocab, max_seq=task.seq_len,
                               **wl.train_model)
    return Models(params, prompt, pl.init_parameters(train_cfg, seed), task)


def warm(wl: Workload, models: Models, seed: int) -> None:
    """One prefill + step per wiring and one train step, untimed. The warm
    prefill reads at most WARM_PROMPT tokens of the prompt."""
    for p in models.params.values():
        pl.generate(pl.prefill(p, models.prompt[:WARM_PROMPT]), 1)
    pl.train(models.train_params, models.task,
             pl.TrainConfig(steps=1, batch_size=wl.train_batch, seed=seed))


def setup(wl: Workload, seed: int) -> Models:
    """Build and warm the models: everything before the first timed op."""
    models = build(wl, seed)
    warm(wl, models, seed)
    return models


# -- measurement ------------------------------------------------------------


@dataclass
class Samples:
    decode_s: dict = field(default_factory=lambda: {w: [] for w in WIRINGS})
    ttft_s: dict = field(default_factory=lambda: {w: [] for w in WIRINGS})
    train_tps: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    sessions: dict = field(default_factory=dict)   # wiring -> last session
    train_steps: int = 0
    train_tensors: int = 0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, n_ops: int, message: str) -> None:
        self.failed += n_ops
        if len(self.failures) < 20:
            self.failures.append(message)


def gate(params, prompt, tokens, logits, passes: int, steps: int,
         expected_passes: int, refs: dict, key) -> list:
    """Failure flags for [prefill, token 0, token 1, ...] of one session.

    Every logits row the session exposed must match the full forward over
    prompt + generated tokens to PARITY_TOL, every greedy token must be the
    argmax of the reference row it was chosen from, and the session must
    have paid exactly ``expected_passes`` stack passes per token. The
    reference depends only on the token sequence, so repeated sessions
    over the same tokens share it through ``refs``.
    """
    n = len(prompt)
    if key not in refs:
        with pl.no_grad():
            full = pl.forward(params, np.concatenate([prompt, tokens]))
        refs[key] = full.data[0, n - 1:]
    ref = refs[key]
    err = np.abs(np.stack(logits) - ref).max(axis=1)
    bad = ~(err <= PARITY_TOL)       # NaN counts as a mismatch
    bad[1:] |= np.asarray(tokens) != ref[:-1].argmax(axis=1)
    if steps != len(tokens) or passes != expected_passes * len(tokens):
        bad[1:] = True
    return bad.tolist()


def decode_session(wl: Workload, w: str, params, prompt, rnd: int,
                   samples: Samples, refs: dict, tracer, tamper) -> None:
    k = wl.tokens_per_session
    rid = f"{wl.name}/{w}/{rnd}"
    clock = time.perf_counter
    samples.attempted += 1 + k
    tokens, logits, times = [], [], []
    try:
        if tracer is not None:
            tracer.rid = rid + "/prefill"
        t0 = clock()
        sess = pl.prefill(params, prompt)
        int(np.argmax(sess.last_logits))    # first token selected
        ttft = clock() - t0
        logits.append(sess.last_logits)
        for i in range(k):
            if tracer is not None:
                tracer.rid = f"{rid}/{i}"
            t0 = clock()
            tok = pl.generate(sess, 1)[0]
            times.append(clock() - t0)
            tokens.append(tok)
            logits.append(sess.last_logits)
    except Exception as e:  # one failed session must not end the run
        samples.fail(1 + k, f"{rid}: {type(e).__name__}: {e}")
        return
    samples.ttft_s[w].append(ttft)
    samples.decode_s[w].append(times)
    samples.sessions[w] = sess
    if tamper is not None:
        logits = tamper(w, [row.copy() for row in logits])
    bad = gate(params, prompt, tokens, logits, sess.passes, sess.steps,
               PASSES_PER_TOKEN[w], refs, (w, tuple(tokens)))
    if any(bad):
        samples.fail(sum(bad), f"{rid}: {sum(bad)} of {1 + k} ops failed the gate")


def train_chunk(wl: Workload, models: Models, seed: int, rnd: int,
                samples: Samples, tracer) -> None:
    steps = wl.train_steps
    cfg = pl.TrainConfig(steps=steps, batch_size=wl.train_batch,
                         seed=seed * 1000 + rnd)
    samples.attempted += steps
    if tracer is not None:
        tracer.rid = f"{wl.name}/train/{rnd}/-1"
        tensors_before = tracer.tensors_created
    t0 = time.perf_counter()
    try:
        result = pl.train(models.train_params, models.task, cfg)
    except Exception as e:  # DivergenceError or any other failure of the step
        samples.fail(steps, f"train round {rnd}: {type(e).__name__}: {e}")
        return
    dt = time.perf_counter() - t0
    bad = sum(not math.isfinite(v) for v in result.losses) + steps - len(result.losses)
    if bad:
        samples.fail(bad, f"train round {rnd}: {bad} non-finite losses")
    samples.train_tps.append(wl.train_batch * models.task.seq_len * steps / dt)
    samples.train_steps += steps
    if tracer is not None:
        samples.train_tensors += tracer.tensors_created - tensors_before


def measure(wl: Workload, models: Models, seed: int, seconds: float,
            tracer=None, tamper=None, cold_setup=None) -> Samples:
    """Run rounds until ``seconds`` have passed and ``wl.min_rounds`` are
    done. ``cold_setup``, if given, returns the set-up time of a fresh
    process; it is called every SETUP_EVERY rounds, so those samples are
    spread over the run like the timed rounds."""
    samples = Samples()
    refs: dict = {}
    names = list(WIRINGS)
    start = time.perf_counter()
    while samples.rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        gc.collect()
        r = samples.rounds
        for w in names[r % 4:] + names[:r % 4]:
            decode_session(wl, w, models.params[w], models.prompt, r,
                           samples, refs, tracer, tamper)
        train_chunk(wl, models, seed, r, samples, tracer)
        samples.rounds += 1
        if cold_setup is not None and samples.rounds % SETUP_EVERY == 0:
            samples.setup_s.append(cold_setup())
    return samples


# -- metrics ----------------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median_ms(seconds) -> float:
    values = list(seconds)
    return statistics.median(values) * 1e3 if values else math.nan


def e2e_metrics(samples: Samples, setup_s: float) -> dict:
    out = {"setup_s": statistics.median([setup_s] + samples.setup_s)}
    for w in WIRINGS:
        flat = [t for times in samples.decode_s[w] for t in times]
        out[f"decode_ms.{w}.p50"] = _pct(flat, 50) * 1e3 if flat else math.nan
        out[f"decode_ms.{w}.p90"] = _pct(flat, 90) * 1e3 if flat else math.nan
    for w in WIRINGS:
        out[f"ttft_ms.{w}.p50"] = _median_ms(samples.ttft_s[w])
    tps = samples.train_tps
    out["train_tokens_per_s"] = statistics.median(tps) if tps else math.nan
    return out


def calibrate(wl: Workload, seed: int, repeats: int = 25):
    """Effective GB/s of 1-row f64 ``x @ W`` over a whole block stack and
    GFLOP/s of a square f64 matmul, both medians over ``repeats``."""
    cfg = pl.ModelConfig(**wl.calib_geometry, max_seq=8)
    params = pl.init_parameters(cfg, seed)
    mats = [t.data for layer in params.layers
            for t in (layer.wq, layer.wk, layer.wv, layer.wo,
                      layer.w_gate, layer.w_up, layer.w_down)]
    rows = [np.ones((1, m.shape[0])) for m in mats]
    stack_bytes = sum(m.nbytes for m in mats)
    sweeps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x, m in zip(rows, mats):
            x @ m
        sweeps.append(time.perf_counter() - t0)
    n = wl.calib_square
    a = np.random.default_rng(seed).standard_normal((n, n))
    squares = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ a
        squares.append(time.perf_counter() - t0)
    return (stack_bytes / statistics.median(sweeps) / 1e9,
            2.0 * n ** 3 / statistics.median(squares) / 1e9)


def install_tracer(tracer: Tracer, task) -> None:
    """Wrap the public functions and methods each per-layer metric reads."""
    nbytes = lambda kv: kv[0].nbytes + kv[1].nbytes  # noqa: E731

    def next_step():  # each train step samples exactly one batch
        prefix, step = tracer.rid.rsplit("/", 1)
        tracer.rid = f"{prefix}/{int(step) + 1}"

    tracer.patch(pl, "prefill", "decode.prefill")
    tracer.patch(pl, "generate", "decode.generate")
    tracer.patch(pl_decode.DecodeSession, "step", "decode.step")
    tracer.patch(pl_decode, "forward", "model.forward")
    tracer.patch(pl_attention.SharedKVCache, "write", "attention.shared_write")
    tracer.patch(pl_attention.SharedKVCache, "view", "attention.shared_view", nbytes)
    tracer.patch(pl_attention.WindowKVCache, "write", "attention.ring_write")
    tracer.patch(pl_attention.WindowKVCache, "gather", "attention.ring_gather", nbytes)
    tracer.patch(pl, "train", "train.train")
    tracer.patch(pl_train, "forward", "model.forward")
    tracer.patch(pl_train, "cross_entropy_loss", "train.loss")
    tracer.patch(pl_train, "clip_global_norm", "train.clip")
    tracer.patch(pl_train.Adam, "step", "train.adam")
    tracer.patch(pl.Tensor, "backward", "tensor.backward")
    tracer.patch(pl.Tensor, "__matmul__", "tensor.matmul")
    tracer.patch(task, "sample", "tasks.sample", on_call=next_step)
    tracer.count_inits(pl.Tensor)


def _block_bytes(params) -> int:
    return sum(t.data.nbytes for name, t in params.named_tensors().items()
               if name.startswith("layers."))


def _kv_bytes(sess) -> int:
    cfg = sess.cfg
    per_entry = 2 * cfg.n_kv_heads * cfg.d_head * sess.params.embedding.data.itemsize
    return sess.kv_entry_count()["total"] * per_entry


def layer_metrics(wl: Workload, models: Models, tracer: Tracer, samples: Samples,
                  untraced: dict, traced: dict, calib) -> dict:
    spans = tracer.spans
    self_t = tracer.self_times()
    top = tracer.top_level()
    dur = [s[END] - s[START] for s in spans]
    wiring = [s[RID].split("/")[1] if s[RID] else "" for s in spans]

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    steps = by_name.get("decode.step", [])
    in_step = [i for i in range(len(spans))
               if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "decode.step"]
    in_train = [i for i in range(len(spans)) if spans[top[i]][NAME] == "train.train"]
    out = {}

    steps_of = {w: [i for i in steps if wiring[i] == w] for w in WIRINGS}
    for w in WIRINGS:
        out[f"decode.step_ms.{w}.p50"] = _median_ms(self_t[i] for i in steps_of[w])
    step_under = {spans[i][PARENT]: dur[i] for i in steps}
    out["decode.select_ms.p50"] = _median_ms(
        dur[i] - step_under.get(i, 0.0) for i in by_name.get("decode.generate", []))

    fwd_under: dict = {}
    for i in by_name.get("model.forward", []):
        fwd_under[spans[i][PARENT]] = fwd_under.get(spans[i][PARENT], 0.0) + dur[i]
    for w in WIRINGS:
        params = models.params[w]
        sess = samples.sessions.get(w)
        out[f"decode.passes_per_token.{w}"] = (sess.passes_per_token if sess is not None
                                               else math.nan)
        out[f"decode.prefill_seed_ms.{w}"] = _median_ms(
            dur[i] - fwd_under.get(i, 0.0) for i in by_name.get("decode.prefill", [])
            if wiring[i] == w)
        weight = (_block_bytes(params) * PASSES_PER_TOKEN[w]
                  + params.embedding.data.nbytes)
        out[f"decode.weight_bytes_per_token.{w}"] = weight
        n_steps = max(1, len(steps_of[w]))
        kv_read = sum(spans[i][SIZE] for i in in_step
                      if wiring[i] == w and spans[i][NAME] in
                      ("attention.shared_view", "attention.ring_gather"))
        view_bytes = sum(spans[i][SIZE] for i in in_step
                         if wiring[i] == w and spans[i][NAME] == "attention.shared_view")
        out[f"attention.shared_view_bytes_per_token.{w}"] = view_bytes / n_steps
        step_ms = _median_ms(dur[i] for i in steps_of[w])
        out[f"decode.achieved_gbps.{w}"] = (weight + kv_read / n_steps) / step_ms / 1e6
    for w in LOOPED:
        out[f"decode.measured_ratio.{w}"] = (untraced[f"decode_ms.{w}.p50"]
                                             / untraced["decode_ms.vanilla.p50"])

    for op in ("shared_write", "shared_view", "ring_write", "ring_gather"):
        name = f"attention.{op}"
        out[f"{name}.calls"] = sum(
            sum(1 for i in in_step if wiring[i] == w and spans[i][NAME] == name)
            / max(1, len(steps_of[w])) for w in WIRINGS)
    gathers = [i for i in in_step if spans[i][NAME] == "attention.ring_gather"]
    out["attention.ring_gather_ms.p50"] = _median_ms(dur[i] for i in gathers)
    kv_bytes = {w: _kv_bytes(samples.sessions[w]) if w in samples.sessions else math.nan
                for w in WIRINGS}
    for w in WIRINGS:
        sess = samples.sessions.get(w)
        out[f"attention.kv_entries.{w}"] = (sess.kv_entry_count()["total"]
                                            if sess is not None else math.nan)
        out[f"attention.kv_bytes.{w}"] = kv_bytes[w]
    for w in LOOPED:
        out[f"attention.kv_bytes_ratio.{w}"] = kv_bytes[w] / kv_bytes["vanilla"]

    def named_ms(name):
        return _median_ms(dur[i] for i in by_name.get(name, []))

    forwards = by_name.get("model.forward", [])
    for w in WIRINGS:
        out[f"model.forward_ms.prefill.{w}"] = _median_ms(
            dur[i] for i in forwards
            if wiring[i] == w and spans[spans[i][PARENT]][NAME] == "decode.prefill")
    train_set = set(in_train)
    out["model.forward_ms.train"] = _median_ms(dur[i] for i in forwards if i in train_set)

    n_train = max(1, samples.train_steps)
    matmuls = [i for i in in_train if spans[i][NAME] == "tensor.matmul"]
    out["tensor.backward_ms"] = named_ms("tensor.backward")
    out["tensor.matmul_fwd.calls"] = len(matmuls) / n_train
    out["tensor.matmul_fwd_ms"] = sum(dur[i] for i in matmuls) / n_train * 1e3
    out["tensor.tensors_per_step"] = samples.train_tensors / n_train
    out["train.loss_ms"] = named_ms("train.loss")
    out["train.clip_ms"] = named_ms("train.clip")
    out["train.adam_ms"] = named_ms("train.adam")
    out["tasks.sample_ms"] = named_ms("tasks.sample")

    gbps, gflops = calib
    out["costmodel.calib_gbps"] = gbps
    out["costmodel.calib_gflops"] = gflops
    cfg = models.params["plt2_gswa"].config
    itemsize = models.params["plt2_gswa"].embedding.data.itemsize
    profile = pl.HardwareProfile(
        name="calibrated", mem_bandwidth=gbps * 1e9, peak_flops=gflops * 1e9,
        weight_bytes_per_param=itemsize,
        kv_bytes_per_entry=2 * cfg.n_kv_heads * cfg.d_head * itemsize,
        act_bytes_per_value=itemsize)
    context = round(wl.prompt_len + (wl.tokens_per_session + 1) / 2)
    pred = {w: pl.decode_step_cost(COST_ARCH[w], cfg, profile, 1, context).latency
            for w in WIRINGS}
    for w in WIRINGS:
        out[f"costmodel.pred_decode_ms.{w}"] = pred[w] * 1e3
    for w in LOOPED:
        out[f"costmodel.pred_ratio.{w}"] = pred[w] / pred["vanilla"]

    for name in E2E_UNITS:
        a, b = untraced[name], traced[name]
        # cost increase: time ratios for timings, inverse for throughput
        out[f"trace_overhead.{name}"] = (a / b if name == "train_tokens_per_s" else b / a) - 1.0
    return out


# -- machine record -----------------------------------------------------------


def machine_record(seed: int, blas_threads: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "seed": seed,
    }


# -- one run --------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 models: Models, setup_s: float, cold_setup=None,
                 blas_threads: int = 1, trace_path=None, tamper=None) -> dict:
    """Measure and gate one run on set-up ``models``; returns the full
    result record. ``setup_s`` is the set-up time of this process and
    ``cold_setup`` samples more during the run (see ``measure``); the
    reported ``setup_s`` is the median of all of them. With ``trace`` the
    run measures untraced, then traced, and reports per-layer metrics;
    without, end-to-end ones.
    """
    samples = measure(wl, models, seed, seconds, tamper=tamper,
                      cold_setup=cold_setup)
    e2e = e2e_metrics(samples, setup_s)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_record(seed, blas_threads),
              "rounds": samples.rounds, "e2e": e2e,
              "setup_samples_s": [setup_s] + samples.setup_s}
    runs = [samples]
    if trace:
        # set-up overhead: one more build-and-warm pass, untraced and traced
        t0 = time.perf_counter()
        setup(wl, seed)
        plain_pass = time.perf_counter() - t0
        with Tracer() as tracer:
            install_tracer(tracer, models.task)
            tracer.rid = f"{wl.name}/setup/0/-1"
            t0 = time.perf_counter()
            setup(wl, seed)
            traced_setup = e2e["setup_s"] + time.perf_counter() - t0 - plain_pass
            tracer.spans.clear()
            traced = measure(wl, models, seed, seconds, tracer=tracer, tamper=tamper)
        runs.append(traced)
        traced_e2e = e2e_metrics(traced, traced_setup)
        metrics = layer_metrics(wl, models, tracer, traced, e2e, traced_e2e,
                                calibrate(wl, seed))
        record["traced_e2e"] = traced_e2e
        record["spans"] = len(tracer.spans)
        if trace_path is not None:
            tracer.write(trace_path)
            record["spans_file"] = os.path.relpath(trace_path)
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    attempted = sum(s.attempted for s in runs)
    failed = sum(s.failed for s in runs)
    record.update(
        attempted=attempted, failed=failed,
        ops_failed_share=failed / attempted,
        failures=[m for s in runs for m in s.failures],
        samples={"decode_tokens_per_wiring": {w: sum(map(len, samples.decode_s[w]))
                                              for w in WIRINGS},
                 "prefills_per_wiring": {w: len(samples.ttft_s[w]) for w in WIRINGS},
                 "train_calls": len(samples.train_tps)},
        metrics={k: {"value": float(metrics[k]), "unit": units[k]} for k in units})
    return record
