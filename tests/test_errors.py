"""The error contract: every bad input to a public entry point reaches the
caller as a ``ParloopError`` subclass (exit 2 from the command line), never
as a raw numpy or Python exception and never as a silent result."""

from dataclasses import replace

import numpy as np
import pytest

from parloop import (CheckpointError, ConfigError, DimensionError, HardwareProfile,
                     ModelConfig, ParloopError, PositionError, TokenError, TrainConfig,
                     WindowKVCache, decode_step_cost, default_profile, forward,
                     generate, init_parameters, load_checkpoint, make_task, prefill,
                     save_checkpoint, train)
from parloop.cli import run

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
    return train(init_parameters(cfg, 0), task, TrainConfig(batch_size=2, **kw))


def ring_skip():
    ring = WindowKVCache(4, 1, 2)
    ring.write(0, np.zeros((1, 2)), np.zeros((1, 2)))
    ring.write(2, np.zeros((1, 2)), np.zeros((1, 2)))


def ring_repeat():
    ring = WindowKVCache(4, 1, 2)
    ring.write_block(0, np.zeros((1, 3, 2)), np.zeros((1, 3, 2)))
    ring.write(2, np.zeros((1, 2)), np.zeros((1, 2)))


def ring_block_gap():
    ring = WindowKVCache(4, 1, 2)
    ring.write(0, np.zeros((1, 2)), np.zeros((1, 2)))
    ring.write_block(3, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))


def checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params())
    return str(path)


def garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    return str(path)


def cli(argv):
    """A command line call: ``argv`` builds the arguments from tmp_path."""
    return lambda p: run(argv(p))


EXIT_2 = "exit 2"

# (id, call taking tmp_path, expected ParloopError subclass or EXIT_2)
CASES = [
    ("config-negative-norm-eps", lambda _: ModelConfig(**CFG, norm_eps=-1.0), ConfigError),
    ("config-nan-norm-eps", lambda _: ModelConfig(**CFG, norm_eps=float("nan")), ConfigError),
    ("config-heads-not-divisible", lambda _: ModelConfig(vocab=17, d_model=16, n_layers=1,
                                                          n_heads=3), ConfigError),
    ("config-zero-d-model", lambda _: ModelConfig(**{**CFG, "d_model": 0}), ConfigError),
    ("config-zero-heads", lambda _: ModelConfig(**{**CFG, "n_heads": 0}), ConfigError),
    ("config-zero-kv-heads", lambda _: ModelConfig(**CFG, n_kv_heads=0), ConfigError),
    ("config-negative-heads", lambda _: ModelConfig(**{**CFG, "n_heads": -2}), ConfigError),
    ("config-negative-kv-heads", lambda _: ModelConfig(**CFG, n_kv_heads=-1), ConfigError),
    ("config-negative-d-ff", lambda _: ModelConfig(**CFG, d_ff=-4), ConfigError),
    ("config-zero-rope-theta", lambda _: ModelConfig(**CFG, rope_theta=0.0), ConfigError),
    ("config-inf-rope-theta", lambda _: ModelConfig(**CFG, rope_theta=float("inf")), ConfigError),
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
    ("generate-zero-count", lambda _: generate(session(), 0), ConfigError),
    ("train-zero-steps", lambda _: train_tiny(steps=0), ConfigError),
    ("make-task-unknown", lambda _: make_task("sorting"), ConfigError),
    ("make-task-empty-source", lambda _: make_task("copy", src_len=0), ConfigError),
    ("load-checkpoint-missing", lambda p: load_checkpoint(p / "absent.ckpt"), CheckpointError),
    ("load-checkpoint-garbage", lambda p: load_checkpoint(garbage(p)), CheckpointError),
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
    ("ring-write-skips-a-position", lambda _: ring_skip(), PositionError),
    ("ring-write-repeats-a-position", lambda _: ring_repeat(), PositionError),
    ("ring-block-leaves-a-gap", lambda _: ring_block_gap(), PositionError),
    ("cli-nan-temperature", cli(lambda p: ["generate", "--checkpoint", checkpoint(p),
                                           "--prompt", "1 2", "--temperature", "nan"]), EXIT_2),
    ("cli-out-of-range-prompt", cli(lambda p: ["generate", "--checkpoint", checkpoint(p),
                                               "--prompt", "1 99"]), EXIT_2),
    ("cli-garbage-checkpoint", cli(lambda p: ["generate", "--checkpoint", garbage(p),
                                              "--prompt", "1"]), EXIT_2),
    ("cli-zero-steps", cli(lambda p: ["train", "--steps", "0", "--out", str(p / "o")]), EXIT_2),
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
        return
    assert issubclass(expected, ParloopError)
    with pytest.raises(expected):
        call(tmp_path)
