"""Looped-transformer reference implementation with parallel decoding.

A weight-shared stack can be applied several times per token. Run the
loops one after another and decoding pays for every extra application;
stagger them across positions instead and each new token costs a single
stack pass, with every loop after the first reading the first loop's
keys and values plus a small gated sliding window of its own. This
package implements both wirings over a tape-based numpy autodiff core,
together with training, checkpointing, an analytical decode cost model,
and a self-verification suite.
"""

from .attention import (
    GateParams,
    SharedKVCache,
    WindowKVCache,
    band_mask,
    causal_mask,
    gate_values,
    gated_fuse,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .costmodel import (
    ARCH_ROWS,
    HardwareProfile,
    StepCost,
    decode_step_cost,
    default_profile,
    latency_ratio,
    report_csv,
    report_text,
    standin_config,
    sweep,
    variant_config,
)
from .decode import DecodeSession, generate, prefill
from .errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    DimensionError,
    DivergenceError,
    EmptyContextError,
    EmptyInputError,
    InvalidLoopError,
    NumericError,
    ParloopError,
    PositionError,
    TokenError,
)
from .gradcheck import grad_check
from .model import (
    ModelConfig,
    Parameters,
    count_flops_per_token,
    count_params,
    count_params_from_config,
    forward,
    init_parameters,
)
from .tasks import TaskSpec, cross_entropy_loss, eval_accuracy, make_task
from .tensor import Rng, Tensor, no_grad
from .train import (
    Adam,
    TrainConfig,
    TrainResult,
    ablation_run,
    format_ablation,
    train,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ARCH_ROWS", "Adam", "CapacityError", "CheckResult", "CheckpointError",
    "ConfigError", "DecodeSession", "DimensionError", "DivergenceError",
    "EmptyContextError", "EmptyInputError", "GateParams", "HardwareProfile",
    "InvalidLoopError", "ModelConfig", "NumericError", "Parameters",
    "ParloopError", "PositionError", "Rng", "SharedKVCache", "StepCost",
    "TaskSpec", "Tensor", "TokenError", "TrainConfig", "TrainResult",
    "WindowKVCache", "ablation_run",
    "band_mask", "causal_mask", "count_flops_per_token", "count_params",
    "count_params_from_config", "cross_entropy_loss", "decode_step_cost",
    "default_profile", "eval_accuracy", "format_ablation", "forward",
    "gate_values", "gated_fuse", "generate", "grad_check", "init_parameters",
    "latency_ratio", "load_checkpoint", "make_task", "no_grad", "prefill",
    "report_csv", "report_text", "run_all", "save_checkpoint",
    "standin_config", "sweep", "train", "variant_config",
]
