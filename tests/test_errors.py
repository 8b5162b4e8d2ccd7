"""The error contract: every bad input to a public entry point reaches the
caller as a ``ParloopError`` subclass (exit 2 from the command line), never
as a raw numpy or Python exception and never as a silent result."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from parloop import (Adam, CheckpointError, ConfigError, DimensionError, EmptyInputError,
                     HardwareProfile, ModelConfig, ParloopError, PositionError, Rng,
                     SharedKVCache, TaskSpec, TokenError, TrainConfig, WindowKVCache,
                     decode_step_cost, default_profile, forward, generate, init_parameters,
                     load_checkpoint, make_task, prefill, save_checkpoint, train)
from parloop.cli import run

from reference_impl import save_per_gate_checkpoint

CFG = dict(vocab=17, d_model=16, n_layers=1, n_heads=2, mode="plt", loops=2,
           gswa=True, window=4, max_seq=32)


def params():
    return init_parameters(ModelConfig(**CFG), 0)


def session():
    return prefill(params(), np.arange(4))


def train_tiny(**kw):
    task = make_task("copy", src_len=2, symbols=4)
    cfg = ModelConfig(vocab=task.vocab, d_model=8, n_layers=1, n_heads=2,
                      max_seq=task.seq_len)
    return train(init_parameters(cfg, 0), task, TrainConfig(**{"batch_size": 2, **kw}))


def train_unscored():
    """A batch whose mask scores no position: the loss reads no row."""
    def sample(rng, batch):
        return np.ones((batch, 5), dtype=np.int64), np.zeros((batch, 5), dtype=bool)

    task = TaskSpec("unscored", vocab=3, seq_len=5, sample=sample)
    cfg = ModelConfig(vocab=3, d_model=8, n_layers=1, n_heads=2, max_seq=5)
    return train(init_parameters(cfg, 0), task, TrainConfig(steps=1, batch_size=2))


def kv_run(n):
    """Zero keys (or values) for a run of n positions of one head, d_head 2."""
    return np.zeros((1, n, 2))


def ring_skip():
    ring = WindowKVCache(4, 1, 2)
    ring.write(0, kv_run(1), kv_run(1))
    ring.write(2, kv_run(1), kv_run(1))


def ring_repeat():
    ring = WindowKVCache(4, 1, 2)
    ring.write(0, kv_run(3), kv_run(3))
    ring.write(2, kv_run(1), kv_run(1))


def ring_block_gap():
    ring = WindowKVCache(4, 1, 2)
    ring.write(0, kv_run(1), kv_run(1))
    ring.write(3, kv_run(2), kv_run(2))


def checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params())
    return str(path)


def header(manifest: bytes, length=None) -> bytes:
    """A checkpoint's magic and length word, then ``manifest``."""
    return b"PLTCKPT1" + struct.pack("<Q", len(manifest) if length is None else length) + manifest


def tampered(tmp_path, edit):
    """A checkpoint of ``params()`` whose manifest went through ``edit``."""
    data = open(checkpoint(tmp_path), "rb").read()
    (length,) = struct.unpack("<Q", data[8:16])
    manifest = json.loads(data[16:16 + length])
    edit(manifest)
    path = tmp_path / "tampered.ckpt"
    path.write_bytes(header(json.dumps(manifest).encode()) + data[16 + length:])
    return path


def raw_file(tmp_path, data: bytes):
    path = tmp_path / "raw.ckpt"
    path.write_bytes(data)
    return path


def trailing_bytes(tmp_path):
    """A whole checkpoint with eight more bytes after its payload."""
    return raw_file(tmp_path, open(checkpoint(tmp_path), "rb").read() + bytes(8))


def overlap(manifest):
    """Point ``mlp_norm``'s entry at ``attn_norm``'s bytes."""
    entries = {e["name"]: e for e in manifest["tensors"]}
    entries["layers.0.mlp_norm"]["offset"] = entries["layers.0.attn_norm"]["offset"]


def per_gate_file_missing_a_loop(tmp_path):
    """A checkpoint in the pre-stacking layout that lacks loop 3's gate."""
    path = tmp_path / "per_gate.ckpt"
    cfg = ModelConfig(**{**CFG, "loops": 3}, per_loop_gates=True)
    save_per_gate_checkpoint(path, init_parameters(cfg, 0),
                             drop=("layers.0.gates.1.weight", "layers.0.gates.1.bias"))
    return path


def garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    return str(path)


def ini(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


def cli(argv):
    """A command line call: ``argv`` builds the arguments from tmp_path."""
    return lambda p: run(argv(p))


EXIT_2 = "exit 2"

# (id, call taking tmp_path, expected ParloopError subclass or EXIT_2)
CASES = [
    ("config-heads-not-divisible", lambda _: ModelConfig(vocab=17, d_model=16, n_layers=1,
                                                          n_heads=3), ConfigError),
    ("config-zero-d-model", lambda _: ModelConfig(**{**CFG, "d_model": 0}), ConfigError),
    ("config-zero-heads", lambda _: ModelConfig(**{**CFG, "n_heads": 0}), ConfigError),
    ("config-zero-kv-heads", lambda _: ModelConfig(**CFG, n_kv_heads=0), ConfigError),
    ("config-negative-heads", lambda _: ModelConfig(**{**CFG, "n_heads": -2}), ConfigError),
    ("config-negative-kv-heads", lambda _: ModelConfig(**CFG, n_kv_heads=-1), ConfigError),
    ("config-negative-d-ff", lambda _: ModelConfig(**CFG, d_ff=-4), ConfigError),
    ("config-vocab-one", lambda _: ModelConfig(**{**CFG, "vocab": 1}), ConfigError),
    ("config-negative-n-layers", lambda _: ModelConfig(**{**CFG, "n_layers": -1}), ConfigError),
    ("config-zero-loops", lambda _: ModelConfig(**{**CFG, "loops": 0}), ConfigError),
    ("config-zero-max-seq", lambda _: ModelConfig(**{**CFG, "max_seq": 0}), ConfigError),
    ("config-odd-d-head", lambda _: ModelConfig(**{**CFG, "d_model": 6}), ConfigError),
    ("config-per-loop-gates-without-gswa",
     lambda _: ModelConfig(vocab=17, d_model=16, n_layers=1, n_heads=2, mode="plt", loops=2,
                           per_loop_gates=True), ConfigError),
    ("config-float-loops", lambda _: ModelConfig(**{**CFG, "loops": 2.0}), ConfigError),
    ("config-float-window", lambda _: ModelConfig(**{**CFG, "window": 4.0}), ConfigError),
    ("config-float-max-seq", lambda _: ModelConfig(**{**CFG, "max_seq": 32.0}), ConfigError),
    ("config-bool-n-layers", lambda _: ModelConfig(**{**CFG, "n_layers": True}), ConfigError),
    ("config-text-gswa", lambda _: ModelConfig(**{**CFG, "gswa": "yes"}), ConfigError),
    ("config-none-d-model", lambda _: ModelConfig(**{**CFG, "d_model": None}), ConfigError),
    ("init-max-seq-past-numpy",   # rotary tables larger than numpy's largest array
     lambda _: init_parameters(ModelConfig(**{**CFG, "max_seq": 10**19}), 0), ConfigError),
    ("forward-out-of-range-id", lambda _: forward(params(), np.array([1, 17])), TokenError),
    ("forward-float-ids", lambda _: forward(params(), np.array([1.5, 2.0])), TokenError),
    ("prefill-2d-prompt", lambda _: prefill(params(), np.zeros((2, 2), int)), DimensionError),
    ("step-bool", lambda _: session().step(True), TokenError),
    ("step-numpy-bool", lambda _: session().step(np.bool_(True)), TokenError),
    ("step-float", lambda _: session().step(3.5), TokenError),
    ("step-vocab", lambda _: session().step(17), TokenError),
    ("generate-nan-temperature",
     lambda _: generate(session(), 1, temperature=float("nan")), ConfigError),
    ("generate-text-temperature",
     lambda _: generate(session(), 1, temperature="hot"), ConfigError),
    ("generate-float-count", lambda _: generate(session(), 1.5), ConfigError),
    ("generate-bool-count", lambda _: generate(session(), True), ConfigError),
    ("generate-bool-temperature",
     lambda _: generate(session(), 1, temperature=True), ConfigError),
    ("generate-zero-count", lambda _: generate(session(), 0), ConfigError),
    ("generate-float-seed",   # a positive temperature draws from an Rng
     lambda _: generate(session(), 1, temperature=1.0, seed=1.5), ConfigError),
    ("train-zero-steps", lambda _: train_tiny(steps=0), ConfigError),
    ("train-float-steps", lambda _: train_tiny(steps=2.5), ConfigError),
    ("train-float-batch-size", lambda _: train_tiny(steps=1, batch_size=2.5), ConfigError),
    ("train-text-lr", lambda _: train_tiny(steps=1, lr="x"), ConfigError),
    ("train-text-clip-norm", lambda _: train_tiny(steps=1, clip_norm="x"), ConfigError),
    ("train-text-warmup-steps", lambda _: train_tiny(steps=1, warmup_steps="x"), ConfigError),
    ("train-float-seed", lambda _: train_tiny(steps=1, seed=2.5), ConfigError),
    ("train-text-seed", lambda _: train_tiny(steps=1, seed="x"), ConfigError),
    ("train-negative-lr", lambda _: train_tiny(steps=1, lr=-1), ConfigError),
    ("train-inf-lr", lambda _: train_tiny(steps=1, lr=float("inf")), ConfigError),
    ("train-negative-clip-norm", lambda _: train_tiny(steps=1, clip_norm=-1), ConfigError),
    ("adam-beta1-above-one", lambda _: Adam(params().named_tensors(), beta1=2.0), ConfigError),
    ("adam-negative-eps", lambda _: Adam(params().named_tensors(), eps=-1), ConfigError),
    ("train-mask-scores-nothing", lambda _: train_unscored(), EmptyInputError),
    ("forward-first-row-past-the-tokens",
     lambda _: forward(params(), np.arange(4), first_row=4), PositionError),
    ("rng-negative-seed", lambda _: init_parameters(ModelConfig(**CFG), -1), ConfigError),
    ("rng-float-seed", lambda _: Rng(2.5), ConfigError),
    ("make-task-unknown", lambda _: make_task("sorting"), ConfigError),
    ("make-task-empty-source", lambda _: make_task("copy", src_len=0), ConfigError),
    ("make-task-modulus-one", lambda _: make_task("modular_add", modulus=1), ConfigError),
    ("make-task-no-triples", lambda _: make_task("modular_add", triples=0), ConfigError),
    ("make-task-char-lm-one-byte", lambda _: make_task("char_lm", seq_len=1), ConfigError),
    ("make-task-char-lm-past-the-corpus",
     lambda _: make_task("char_lm", seq_len=10**6), ConfigError),
    ("make-task-float-src-len", lambda _: make_task("copy", src_len=2.0), ConfigError),
    ("make-task-text-symbols", lambda _: make_task("copy", symbols="x"), ConfigError),
    ("make-task-float-modulus", lambda _: make_task("modular_add", modulus=5.5), ConfigError),
    ("make-task-float-seq-len", lambda _: make_task("char_lm", seq_len=3.5), ConfigError),
    ("load-checkpoint-missing", lambda p: load_checkpoint(p / "absent.ckpt"), CheckpointError),
    ("load-checkpoint-garbage", lambda p: load_checkpoint(garbage(p)), CheckpointError),
    ("load-checkpoint-per-gate-missing-a-loop",
     lambda p: load_checkpoint(per_gate_file_missing_a_loop(p)), CheckpointError),
    ("load-checkpoint-truncated-manifest",
     lambda p: load_checkpoint(raw_file(p, header(b"{}", length=99))), CheckpointError),
    ("load-checkpoint-manifest-not-json",
     lambda p: load_checkpoint(raw_file(p, header(b"{not json"))), CheckpointError),
    ("load-checkpoint-version-2",
     lambda p: load_checkpoint(tampered(p, lambda m: m.update(version=2))), CheckpointError),
    ("load-checkpoint-no-config",
     lambda p: load_checkpoint(tampered(p, lambda m: m.pop("config"))), CheckpointError),
    ("load-checkpoint-bogus-mode",
     lambda p: load_checkpoint(tampered(p, lambda m: m["config"].update(mode="bogus"))),
     CheckpointError),
    ("load-checkpoint-float-vocab",
     lambda p: load_checkpoint(tampered(p, lambda m: m["config"].update(vocab=17.0))),
     CheckpointError),
    ("load-checkpoint-huge-vocab",   # refused before the model is allocated
     lambda p: load_checkpoint(tampered(p, lambda m: m["config"].update(vocab=10**13))),
     CheckpointError),
    ("load-checkpoint-unknown-tensor",
     lambda p: load_checkpoint(tampered(p, lambda m: m["tensors"][0].update(name="bogus"))),
     CheckpointError),
    ("load-checkpoint-missing-tensor",
     lambda p: load_checkpoint(tampered(p, lambda m: m["tensors"].pop())), CheckpointError),
    ("load-checkpoint-offset-past-the-payload",
     lambda p: load_checkpoint(tampered(p, lambda m: m["tensors"][-1].update(offset=10**6))),
     CheckpointError),
    ("load-checkpoint-shape-mismatch",
     lambda p: load_checkpoint(tampered(p, lambda m: m["tensors"][0].update(shape=[1, 2]))),
     CheckpointError),
    ("load-checkpoint-huge-max-seq",   # rotary tables numpy cannot allocate
     lambda p: load_checkpoint(tampered(p, lambda m: m["config"].update(max_seq=10**13))),
     CheckpointError),
    ("load-checkpoint-other-rope-theta",   # manifests once carried the rotary base
     lambda p: load_checkpoint(tampered(p, lambda m: m["config"].update(rope_theta=500.0))),
     CheckpointError),
    ("load-checkpoint-trailing-bytes", lambda p: load_checkpoint(trailing_bytes(p)),
     CheckpointError),
    ("load-checkpoint-duplicate-entry",
     lambda p: load_checkpoint(tampered(p, lambda m: m["tensors"].append(m["tensors"][0]))),
     CheckpointError),
    ("load-checkpoint-overlapping-offsets", lambda p: load_checkpoint(tampered(p, overlap)),
     CheckpointError),
    ("load-checkpoint-reordered",
     lambda p: load_checkpoint(tampered(p, lambda m: m["tensors"].reverse())), CheckpointError),
    ("cost-zero-batch", lambda _: decode_step_cost("plt", ModelConfig(**CFG),
                                                   default_profile(), 0, 16), ConfigError),
    ("profile-zero-bandwidth", lambda _: HardwareProfile(
        "hw", mem_bandwidth=0.0, peak_flops=1e12, weight_bytes_per_param=1.0,
        kv_bytes_per_entry=64.0), ConfigError),
    ("profile-negative-bandwidth",
     lambda _: replace(default_profile(), mem_bandwidth=-1e11), ConfigError),
    ("profile-nan-peak-flops",
     lambda _: replace(default_profile(), peak_flops=float("nan")), ConfigError),
    ("profile-inf-weight-bytes",
     lambda _: replace(default_profile(), weight_bytes_per_param=float("inf")), ConfigError),
    ("profile-negative-kv-bytes",
     lambda _: replace(default_profile(), kv_bytes_per_entry=-3.0), ConfigError),
    ("profile-zero-act-bytes",
     lambda _: replace(default_profile(), act_bytes_per_value=0.0), ConfigError),
    ("profile-bool-bandwidth",
     lambda _: replace(default_profile(), mem_bandwidth=True), ConfigError),
    ("ring-write-skips-a-position", lambda _: ring_skip(), PositionError),
    ("ring-write-repeats-a-position", lambda _: ring_repeat(), PositionError),
    ("ring-block-leaves-a-gap", lambda _: ring_block_gap(), PositionError),
    ("ring-write-negative-start",
     lambda _: WindowKVCache(2, 1, 2).write(-5, kv_run(1), kv_run(1)), PositionError),
    ("ring-write-float-start",
     lambda _: WindowKVCache(2, 1, 2).write(1.5, kv_run(1), kv_run(1)), PositionError),
    ("cache-write-negative-start",
     lambda _: SharedKVCache(1, 1, 2, max_seq=4).write(0, -1, kv_run(1), kv_run(1)),
     PositionError),
    ("cache-write-float-start",
     lambda _: SharedKVCache(1, 1, 2, max_seq=4).write(0, 1.0, kv_run(1), kv_run(1)),
     PositionError),
    ("ring-write-wrong-d-head",
     lambda _: WindowKVCache(2, 1, 2).write(0, np.zeros((1, 1, 3)), np.zeros((1, 1, 3))),
     DimensionError),
    ("ring-write-no-head-axis",
     lambda _: WindowKVCache(2, 1, 2).write(0, np.zeros((1, 2)), np.zeros((1, 2))),
     DimensionError),
    ("ring-write-values-differ-from-keys",
     lambda _: WindowKVCache(2, 1, 2).write(0, kv_run(1), kv_run(2)), DimensionError),
    ("cache-write-wrong-d-head",
     lambda _: SharedKVCache(1, 1, 2, max_seq=4).write(0, 0, np.zeros((1, 1, 3)),
                                                       np.zeros((1, 1, 3))), DimensionError),
    ("cache-write-too-few-heads",
     lambda _: SharedKVCache(1, 2, 2, max_seq=4).write(0, 0, kv_run(1), kv_run(1)),
     DimensionError),
    ("cache-write-values-differ-from-keys",
     lambda _: SharedKVCache(1, 1, 2, max_seq=4).write(0, 0, kv_run(1), np.zeros((1, 1, 3))),
     DimensionError),
    ("cli-nan-temperature", cli(lambda p: ["generate", "--checkpoint", checkpoint(p),
                                           "--prompt", "1 2", "--temperature", "nan"]), EXIT_2),
    ("cli-out-of-range-prompt", cli(lambda p: ["generate", "--checkpoint", checkpoint(p),
                                               "--prompt", "1 99"]), EXIT_2),
    ("cli-garbage-checkpoint", cli(lambda p: ["generate", "--checkpoint", garbage(p),
                                              "--prompt", "1"]), EXIT_2),
    ("cli-generate-other-norm-eps",
     cli(lambda p: ["generate", "--prompt", "1 2", "--checkpoint",
                    str(tampered(p, lambda m: m["config"].update(norm_eps=1e-5)))]), EXIT_2),
    ("cli-verify-json-garbage-checkpoint",
     cli(lambda p: ["verify", "--json", "--skip-grad", "--checkpoint", garbage(p)]), EXIT_2),
    ("cli-empty-prompt", cli(lambda p: ["generate", "--checkpoint", checkpoint(p),
                                        "--prompt", ""]), EXIT_2),
    ("cli-train-huge-max-seq",
     cli(lambda p: ["train", "--max-seq", str(10**13), "--out", str(p / "o")]), EXIT_2),
    ("cli-zero-steps", cli(lambda p: ["train", "--steps", "0", "--out", str(p / "o")]), EXIT_2),
    ("cli-negative-seed", cli(lambda p: ["train", "--seed", "-1", "--out", str(p / "o")]),
     EXIT_2),
    ("cli-negative-lr", cli(lambda p: ["train", "--lr=-1", "--out", str(p / "o")]), EXIT_2),
    ("cli-negative-warmup-steps",
     cli(lambda p: ["train", "--warmup-steps=-1", "--out", str(p / "o")]), EXIT_2),
    ("cli-ini-unknown-task", cli(lambda p: ["train", "--config", ini(p, "[task]\nname = bogus\n"),
                                            "--out", str(p / "o")]), EXIT_2),
    ("cli-ini-no-section-header", cli(lambda p: ["train", "--config", ini(p, "steps = 3\n"),
                                                 "--out", str(p / "o")]), EXIT_2),
    ("cli-ini-duplicate-key", cli(lambda p: ["train", "--config",
                                             ini(p, "[train]\nlr = 1\nlr = 2\n"),
                                             "--out", str(p / "o")]), EXIT_2),
    ("cli-ini-percent-value", cli(lambda p: ["train", "--config", ini(p, "[train]\nlr = 5%\n"),
                                             "--out", str(p / "o")]), EXIT_2),
    ("cli-ini-bad-switch", cli(lambda p: ["train", "--config", ini(p, "[model]\ngswa = maybe\n"),
                                          "--out", str(p / "o")]), EXIT_2),
    ("cli-ini-task-key-for-bench",
     cli(lambda p: ["bench", "--config", ini(p, "[task]\nname = copy\n")]), EXIT_2),
    ("cli-bench-zero-heads", cli(lambda _: ["bench", "--n-heads", "0"]), EXIT_2),
    ("cli-cost-zero-bandwidth", cli(lambda _: ["cost", "--bandwidth", "0"]), EXIT_2),
    ("cli-cost-negative-bandwidth", cli(lambda _: ["cost", "--bandwidth=-1e11"]), EXIT_2),
    ("cli-cost-nan-peak-flops", cli(lambda _: ["cost", "--peak-flops", "nan"]), EXIT_2),
    ("cli-cost-negative-kv-bytes", cli(lambda _: ["cost", "--kv-bytes", "-3"]), EXIT_2),
    ("cli-cost-zero-weight-bytes", cli(lambda _: ["cost", "--weight-bytes", "0"]), EXIT_2),
]


@pytest.mark.parametrize("call, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_input_raises_a_parloop_error(call, expected, tmp_path):
    if expected == EXIT_2:   # a raw exception would escape run() and fail here
        assert call(tmp_path) == 2
        assert not (tmp_path / "o").exists()   # a refused run leaves no --out behind
        return
    assert issubclass(expected, ParloopError)
    with pytest.raises(expected):
        call(tmp_path)


def test_a_refused_cache_write_stores_nothing():
    ring = WindowKVCache(2, 1, 2)
    with pytest.raises(DimensionError):
        ring.write(0, np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))
    assert ring.entries() == 0
    ring.write(0, kv_run(1), kv_run(1))   # the retry at position 0 is accepted
    assert ring.entries() == 1
    cache = SharedKVCache(1, 1, 2, max_seq=4)
    with pytest.raises(DimensionError):
        cache.write(0, 0, kv_run(1) + 1, np.zeros((1, 1, 3)))
    assert not cache.k.any() and not cache.v.any()
