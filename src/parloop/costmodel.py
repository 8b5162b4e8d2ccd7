"""Analytical decode-step cost model.

Every row is ``passes`` serial passes of one two-ceiling roofline,
``max(bytes_moved / mem_bandwidth, flops / peak_flops)`` per pass, with
the passes adding up: L for the serial loop, 1 for every fused row. Each
pass reads the block weights and its share of the cache and activation
bytes; the output head's bytes and flops land on the last pass. A row's
traffic comes from its ``variant_config``, as its flops do: ``cache_loops``
loops read a full cache of their own and ``window_loops`` loops a bounded
window ring, so a sequence's cache bytes are ``cache_loops * full +
window_loops * window``. Five wirings are compared:

- ``vanilla``: one pass, one cache.
- ``loop``: the stack applied L times in sequence, each pass re-reading the
  weights and its own loop's full cache.
- ``loop_clp``: the same L loop stages fused into one batched pass over
  displaced rows; weights are read once, but every stage still drags its
  own full cache.
- ``loop_clp_kvshare``: fused pass where all stages read the first stage's
  cache, so cache traffic stops scaling with L.
- ``plt``: kv sharing plus the gated sliding window, which adds back a
  bounded per-stage window cache and the gate weights.

Each sequence in the batch reads its caches, and each row writes/reads
its activations. Per-token embedding row gathers are ignored (a few
kilobytes against megabytes).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .model import ModelConfig, count_flops_per_token, count_params_from_config
from .tensor import is_real

ARCH_ROWS = ("vanilla", "loop", "loop_clp", "loop_clp_kvshare", "plt")
REPORT_FIELDS = ("arch", "batch", "context", "passes", "weight_bytes", "kv_bytes",
                 "act_bytes", "flops", "latency_s", "bound")   # StepCost's fields, in order


@dataclass(frozen=True)
class HardwareProfile:
    """Machine constants the roofline needs.

    kv_bytes_per_entry is the cost of one cached position in one layer
    (keys and values together); act_bytes_per_value covers one residual
    read plus write per layer in the cache dtype.
    """

    name: str
    mem_bandwidth: float          # bytes / second
    peak_flops: float             # flops / second
    weight_bytes_per_param: float
    kv_bytes_per_entry: float
    act_bytes_per_value: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "name" and not (is_real(value) and 0 < value < math.inf):
                raise ConfigError(f"hardware profile {f.name} must be positive and "
                                  f"finite, got {value!r}")


def default_profile() -> HardwareProfile:
    """A contemporary HBM accelerator serving a quantized desk-scale model.

    Calibrated so that a ~0.7B dense model with an 8-bit cache at 5k
    context decodes in the low-millisecond range at small batch: 1.4
    bytes/param (8-bit weights plus scales and resident overhead), 512
    bytes per cached position-layer (2 kv heads x 128 dims x 1 byte for K
    and V), and a bandwidth/compute ratio that keeps small-batch decoding
    firmly memory-bound.
    """
    return HardwareProfile(
        name="hbm-accelerator",
        mem_bandwidth=2.6e11,
        peak_flops=4.0e14,
        weight_bytes_per_param=1.4,
        kv_bytes_per_entry=512.0,
        act_bytes_per_value=2.0,
    )


def standin_config() -> ModelConfig:
    """Dense ~684M-parameter geometry used for headline cost comparisons."""
    return ModelConfig(
        vocab=32768, d_model=2048, n_layers=28, n_heads=16, n_kv_heads=2,
        d_ff=2048, loops=2, mode="plt", gswa=True, window=64, max_seq=8192)


def variant_config(cfg: ModelConfig, arch: str) -> ModelConfig:
    """Project a geometry onto one of the comparison wirings."""
    if arch == "vanilla":
        return replace(cfg, mode="vanilla", loops=1, gswa=False, per_loop_gates=False)
    if arch in ("loop", "loop_clp"):
        return replace(cfg, mode="vanilla_loop", gswa=False, per_loop_gates=False)
    if arch == "loop_clp_kvshare":
        return replace(cfg, mode="plt", gswa=False, per_loop_gates=False)
    if arch == "plt":
        return replace(cfg, mode="plt", gswa=True)
    raise ConfigError(f"unknown architecture row {arch!r}, expected one of {ARCH_ROWS}")


@dataclass(frozen=True)
class StepCost:
    """Per-decode-step totals and the resulting roofline latency."""

    arch: str
    batch: int
    context: int
    passes: int
    weight_bytes: float
    kv_bytes: float
    act_bytes: float
    flops: float
    latency: float  # seconds per token
    bound: str      # "memory" or "compute"

    @property
    def bytes_total(self) -> float:
        return self.weight_bytes + self.kv_bytes + self.act_bytes


def _roofline(bytes_moved: float, flops: float, profile: HardwareProfile):
    t_mem = bytes_moved / profile.mem_bandwidth
    t_cmp = flops / profile.peak_flops
    return max(t_mem, t_cmp), ("memory" if t_mem >= t_cmp else "compute")


def decode_step_cost(arch: str, cfg: ModelConfig, profile: HardwareProfile,
                     batch: int, context: int) -> StepCost:
    if batch < 1 or context < 1:
        raise ConfigError("batch and context must be >= 1")
    vcfg = variant_config(cfg, arch)
    passes = vcfg.loops if arch == "loop" else 1   # a fused row runs every loop in one pass
    wb = profile.weight_bytes_per_param
    emb_params = vcfg.vocab * vcfg.d_model
    head_bytes = emb_params * wb
    block_params = count_params_from_config(vcfg) - emb_params * (1 if vcfg.weight_tying else 2)
    block_bytes = block_params * wb

    kv_full = context * profile.kv_bytes_per_entry * vcfg.n_layers
    window = min(vcfg.window, context) * profile.kv_bytes_per_entry * vcfg.n_layers
    kv = batch * (vcfg.cache_loops * kv_full + vcfg.window_loops * window)
    act = batch * vcfg.loops * (vcfg.n_layers * vcfg.d_model * profile.act_bytes_per_value * 2)
    flops = count_flops_per_token(vcfg, context)
    flops_total, head_flops = batch * flops["total"], batch * flops["head"]

    # each pass reads the block weights and its share of the cache and
    # activations; the head's bytes and flops land on the last
    body_flops = (flops_total - head_flops) / passes
    t_body, body_bound = _roofline(block_bytes + kv / passes + act / passes, body_flops, profile)
    t_last, last_bound = _roofline(block_bytes + head_bytes + kv / passes + act / passes,
                                   body_flops + head_flops, profile)
    bound = "compute" if passes > 1 and body_bound == "compute" else last_bound
    return StepCost(arch, batch, context, passes, passes * block_bytes + head_bytes, kv, act,
                    flops_total, (passes - 1) * t_body + t_last, bound)


def latency_ratio(arch: str, cfg: ModelConfig, profile: HardwareProfile,
                  batch: int, context: int) -> float:
    """Latency of a wiring relative to the vanilla single-pass model."""
    a = decode_step_cost(arch, cfg, profile, batch, context)
    v = decode_step_cost("vanilla", cfg, profile, batch, context)
    return a.latency / v.latency


def sweep(cfg: ModelConfig, profile: HardwareProfile, batches,
          context: int, archs=ARCH_ROWS) -> list:
    return [decode_step_cost(arch, cfg, profile, b, context)
            for b in batches for arch in archs]


def report_text(costs: list) -> str:
    """Aligned table with per-batch ratios against the vanilla row."""
    base = {c.batch: c.latency for c in costs if c.arch == "vanilla"}
    header = (f"{'arch':18s} {'batch':>5s} {'ctx':>6s} {'passes':>6s} "
              f"{'MB/step':>9s} {'GFLOP':>8s} {'ms/tok':>8s} {'bound':>7s} {'vs vanilla':>10s}")
    lines = [header, "-" * len(header)]
    for c in costs:
        ratio = f"{c.latency / base[c.batch]:9.3f}x" if c.batch in base else "        --"
        lines.append(
            f"{c.arch:18s} {c.batch:5d} {c.context:6d} {c.passes:6d} "
            f"{c.bytes_total / 1e6:9.1f} {c.flops / 1e9:8.2f} "
            f"{c.latency * 1e3:8.3f} {c.bound:>7s} {ratio}")
    return "\n".join(lines)


def report_csv(costs: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(REPORT_FIELDS)
    for c in costs:
        w.writerow([c.arch, c.batch, c.context, c.passes,
                    f"{c.weight_bytes:.1f}", f"{c.kv_bytes:.1f}",
                    f"{c.act_bytes:.1f}", f"{c.flops:.1f}",
                    f"{c.latency:.9f}", c.bound])
    return buf.getvalue()
