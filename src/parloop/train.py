"""Training loop: Adam with warmup-cosine schedule and global-norm
clipping, deterministic given a seed. It writes no file: ``parloop train``
saves the loss log (``TrainResult.log_csv``) and the checkpoint.

Each step runs the model only on the rows its loss reads (``scored_loss``):
the positions after the last scored row are dropped, and each layer of
each loop runs only on the rows that feed a scored logit, as prefill runs
only the rows a decode session reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costmodel import variant_config
from .decode import prefill
from .errors import CapacityError, ConfigError, DivergenceError, NumericError
from .model import ModelConfig, forward, init_parameters
from .tasks import TaskSpec, cross_entropy_loss, eval_accuracy, scored_rows
from .tensor import Rng, Tensor, global_grad_norm, is_int, is_real


@dataclass(frozen=True)   # checked once, when built
class TrainConfig:
    steps: int = 200
    batch_size: int = 32
    lr: float = 3e-3
    warmup_steps: int = 20
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("steps", 1), ("batch_size", 1), ("warmup_steps", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("lr", "clip_norm"):   # a clip_norm of 0 turns clipping off
            value = getattr(self, name)
            if not (is_real(value) and 0.0 <= value < math.inf):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")


BETA1, BETA2, EPS = 0.9, 0.95, 1e-8   # Adam's moment decays and denominator floor


class Adam:
    """Standard Adam with bias correction (``BETA1``, ``BETA2``, ``EPS``);
    tensors without a gradient are left untouched."""

    def __init__(self, tensors: dict):
        self.tensors = dict(tensors)
        self.m = {k: np.zeros_like(t.data) for k, t in self.tensors.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.tensors.items()}
        self.t = 0

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for k, t in self.tensors.items():
            if t.grad is None:
                continue
            g, m, v = t.grad, self.m[k], self.v[k]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            t.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def clip_global_norm(tensors, max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most max_norm."""
    norm = global_grad_norm(tensors)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for t in tensors:
            if t.grad is not None:
                t.grad = t.grad * scale  # a grad may be shared; never scale in place
    return norm


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to cfg.lr, then cosine decay to zero."""
    if step < cfg.warmup_steps:
        return cfg.lr * (step + 1) / cfg.warmup_steps
    span = max(1, cfg.steps - cfg.warmup_steps)
    progress = (step - cfg.warmup_steps) / span
    return 0.5 * cfg.lr * (1.0 + math.cos(math.pi * progress))


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    final_loss: float = float("nan")
    grad_norms: list = field(default_factory=list)

    def log_csv(self) -> str:
        """The loss log, one row per step: step,loss,lr,grad_norm."""
        lines = ["step,loss,lr,grad_norm"]
        for i, row in enumerate(zip(self.losses, self.lrs, self.grad_norms)):
            lines.append(f"{i}," + ",".join(f"{v:.12e}" for v in row))
        return "\n".join(lines) + "\n"


def scored_loss(params, tokens: np.ndarray, mask=None):
    """The training loss of one batch, formed on the rows it scores: the
    positions after the last scored row are dropped (causal attention
    feeds them to nothing the loss reads), and the forward runs each layer
    only on the rows that feed the logits of [first, stop) (see
    ``scored_rows`` and ``model.prefill_table``). The value and gradients
    are those of the loss over a forward on every row."""
    first, stop = scored_rows(tokens, mask)
    return cross_entropy_loss(forward(params, tokens[:, :stop], first_row=first),
                              tokens, mask, first_row=first)


def train(params, task: TaskSpec, cfg: TrainConfig) -> TrainResult:
    """Run the loop on ``params`` in place; returns what each step measured, writes nothing.

    Raises DivergenceError the moment the loss stops being finite, with
    the step and recent loss history in the message.
    """
    named = params.named_tensors()
    if not all(isinstance(t, Tensor) for t in named.values()):
        raise ConfigError("train needs the parameters' Tensors, not Parameters.arrays()")
    opt = Adam(named)
    data_rng = Rng(cfg.seed).fork("task-data")
    result = TrainResult()
    for step in range(cfg.steps):
        try:
            tokens, mask = task.sample(data_rng, cfg.batch_size)
        except (MemoryError, ValueError) as e:   # ValueError: past numpy's largest array
            raise ConfigError(f"batch_size {cfg.batch_size} is too large to sample: {e}") from e
        opt.zero_grad()
        try:
            loss = scored_loss(params, tokens, mask)
        except NumericError as e:
            recent = ", ".join(f"{v:.4f}" for v in result.losses[-5:])
            raise DivergenceError(
                f"numeric collapse at step {step}: {e} (recent: [{recent}])") from e
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            recent = ", ".join(f"{v:.4f}" for v in result.losses[-5:])
            raise DivergenceError(
                f"non-finite loss at step {step} (recent: [{recent}])")
        loss.backward()
        result.grad_norms.append(clip_global_norm(named.values(), cfg.clip_norm))
        lr = lr_at(step, cfg)
        opt.step(lr)
        result.losses.append(loss_val)
        result.lrs.append(lr)
    result.final_loss = result.losses[-1]
    return result


# ---------------------------------------------------------------------------
# ablation ladder
# ---------------------------------------------------------------------------

LADDER = {"vanilla": "vanilla", "loop": "loop", "kvshare": "loop_clp_kvshare", "plt": "plt"}
PROBE_STEPS = 8  # greedy decode steps of the ablation's counter probe


def ladder_config(arch: str, base: dict, loops: int, window: int) -> ModelConfig:
    """Model configs for the feature ladder, from plain to fully wired. Each
    rung (a key of ``LADDER``) is the ``variant_config`` of its cost row:
    vanilla -> ``vanilla``, loop -> ``loop``, kvshare -> ``loop_clp_kvshare``
    and plt -> ``plt``, the one rung that reads ``window``."""
    if arch not in LADDER:
        raise ConfigError(f"unknown ladder rung {arch!r}, expected one of {tuple(LADDER)}")
    cfg = variant_config(ModelConfig(**{**base, "window": window}), LADDER[arch])
    return cfg if arch == "vanilla" else replace(cfg, loops=loops)


def ablation_run(task: TaskSpec, base_model: dict, tcfg: TrainConfig,
                 loops: int = 2, window: int = 4, archs=LADDER) -> list:
    """Train the feature ladder on one task and collect comparable stats.

    Returns one dict per rung: final loss, scored-position accuracy,
    decode pass and cache counters from a short generation probe.
    """
    probe = task.sample(Rng(tcfg.seed).fork("probe"), 1)[0][0]
    configs = [ladder_config(arch, base_model, loops, window) for arch in archs]
    if any(len(probe) + PROBE_STEPS > cfg.max_seq for cfg in configs):
        raise CapacityError(f"a {len(probe)}-token probe plus {PROBE_STEPS} "
                            f"decode steps exceeds max_seq")
    rows = []
    for arch, cfg in zip(archs, configs):
        params = init_parameters(cfg, tcfg.seed)
        res = train(params, task, tcfg)
        weights = params.arrays()   # eval records no tape
        acc = eval_accuracy(lambda toks: forward(weights, toks), task,
                            seed=tcfg.seed + 1)
        sess = prefill(params, probe)
        for _ in range(PROBE_STEPS):
            sess.step(int(np.argmax(sess.last_logits)))
        rows.append({
            "arch": arch,
            "mode": cfg.mode,
            "loops": cfg.loops,
            "final_loss": res.final_loss,
            "accuracy": acc,
            "passes_per_token": sess.passes_per_token,
            "kv_entries": sess.kv_entry_count()["total"],
        })
    return rows


def format_ablation(rows: list) -> str:
    header = (f"{'arch':10s} {'mode':13s} {'loops':>5s} {'loss':>9s} "
              f"{'acc':>7s} {'passes/tok':>10s} {'kv':>8s}")
    out = [header, "-" * len(header)]
    for r in rows:
        out.append(f"{r['arch']:10s} {r['mode']:13s} {r['loops']:5d} "
                   f"{r['final_loss']:9.4f} {r['accuracy']:7.3f} "
                   f"{r['passes_per_token']:10.1f} {r['kv_entries']:8d}")
    return "\n".join(out)
