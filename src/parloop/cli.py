"""Command line entry points.

Subcommands: train, generate, verify, cost, bench. Exit codes: 0 success,
1 runtime or verification failure, 2 usage or configuration error.

`train` and `bench` accept --config pointing at an INI file with [model],
[task] and [train] sections. The file is read as the flags it stands for,
parsed before the command line's, so any explicit flag wins, abbreviated or
not. Keys are the long option names with underscores; `[task] name` stands
for --task, a true switch (`gswa`, `per_loop_gates`) for its flag, and
`[model] weight_tying = false` for --no-weight-tying. Each section accepts
only its own keys. A bad section, key or value exits 2; for a bad value,
argparse's message names the flag.
"""

from __future__ import annotations

import argparse
import configparser
import json
import statistics
import sys
import time
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .costmodel import (
    ARCH_ROWS,
    REPORT_FIELDS,
    default_profile,
    report_csv,
    report_text,
    standin_config,
    sweep,
)
from .decode import generate, prefill
from .errors import CheckpointError, ConfigError, ParloopError, TokenError
from .model import ModelConfig, forward, init_parameters
from .tasks import eval_accuracy, make_task
from .train import TrainConfig, train
from .verify import CheckResult, run_all

# INI section -> its keys, each the dest of the flag it stands for
# (`name` stands for --task)
SECTIONS = {
    "model": ("d_model", "n_layers", "n_heads", "n_kv_heads", "d_ff", "mode",
              "loops", "window", "gswa", "per_loop_gates", "weight_tying",
              "max_seq"),
    "task": ("name", "src_len", "symbols", "modulus", "triples", "seq_len"),
    "train": ("steps", "batch_size", "lr", "warmup_steps", "clip_norm", "seed"),
}


def positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _add_model_args(sp) -> None:
    g = sp.add_argument_group("model")
    g.add_argument("--d-model", type=int, default=64)
    g.add_argument("--n-layers", type=int, default=2)
    g.add_argument("--n-heads", type=int, default=4)
    g.add_argument("--n-kv-heads", type=int, default=None)
    g.add_argument("--d-ff", type=int, default=None)
    g.add_argument("--mode", choices=["vanilla", "vanilla_loop", "plt"],
                   default="plt")
    g.add_argument("--loops", type=int, default=2)
    g.add_argument("--window", type=int, default=4)
    g.add_argument("--gswa", action="store_true")
    g.add_argument("--per-loop-gates", action="store_true")
    g.add_argument("--no-weight-tying", dest="weight_tying",
                   action="store_false")
    g.add_argument("--max-seq", type=int, default=128)


def _add_task_args(sp) -> None:
    g = sp.add_argument_group("task")
    g.add_argument("--task", choices=["char_lm", "copy", "modular_add", "reverse"],
                   default="copy")
    g.add_argument("--src-len", type=int, default=None)
    g.add_argument("--symbols", type=int, default=None)
    g.add_argument("--modulus", type=int, default=None)
    g.add_argument("--triples", type=int, default=None)
    g.add_argument("--seq-len", type=int, default=None)


def build_parser():
    p = argparse.ArgumentParser(
        prog="parloop",
        description="Looped-transformer reference implementation: training, "
                    "parallel decoding, verification, and decode cost analysis.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="train a model on a synthetic task")
    sp.add_argument("--config", default=None, help="INI file with defaults")
    _add_model_args(sp)
    _add_task_args(sp)
    g = sp.add_argument_group("training")
    g.add_argument("--steps", type=positive_int, default=200)
    g.add_argument("--batch-size", type=positive_int, default=32)
    g.add_argument("--lr", type=float, default=3e-3)
    g.add_argument("--warmup-steps", type=int, default=20)
    g.add_argument("--clip-norm", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("generate", help="decode from a trained checkpoint")
    sp.add_argument("--checkpoint", required=True)
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--prompt", help="space-separated token ids")
    src.add_argument("--text", help="utf-8 text prompt (byte-level models)")
    sp.add_argument("--tokens", type=positive_int, default=32)
    sp.add_argument("--temperature", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stats", action="store_true",
                    help="print pass and cache counters to stderr")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("verify", help="run the invariant checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tolerance", type=float, default=1e-9)
    sp.add_argument("--skip-grad", action="store_true",
                    help="skip the finite-difference gradient check")
    sp.add_argument("--checkpoint", default=None,
                    help="also require this checkpoint to load cleanly")
    sp.add_argument("--json", action="store_true", help="print the checks as one JSON object")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("cost", help="analytical decode cost comparison")
    sp.add_argument("--batch", type=positive_int, nargs="+",
                    default=[4, 8, 16, 32, 64])
    sp.add_argument("--context", type=positive_int, default=5000)
    sp.add_argument("--arch", choices=ARCH_ROWS, nargs="+", default=list(ARCH_ROWS))
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true",
                     help='print {"rows": [...]}, the CSV fields as numbers')
    g = sp.add_argument_group("hardware profile overrides")
    g.add_argument("--bandwidth", type=float, default=None, help="bytes/s")
    g.add_argument("--peak-flops", type=float, default=None)
    g.add_argument("--weight-bytes", type=float, default=None,
                   help="bytes per parameter")
    g.add_argument("--kv-bytes", type=float, default=None,
                   help="bytes per cached position per layer")
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("bench", help="wall-clock decode timing")
    sp.add_argument("--config", default=None, help="INI file with defaults")
    _add_model_args(sp)
    sp.add_argument("--vocab", type=positive_int, default=256)
    sp.add_argument("--steps", type=positive_int, default=64)
    sp.add_argument("--prompt-len", type=positive_int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true",
                    help="print the results as one JSON object")
    sp.set_defaults(func=cmd_bench)

    return p


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def ini_flags(args) -> list:
    """The flags the INI file `args.config` stands for: `--key=value` or a
    bare switch."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(args.config):
            raise ConfigError(f"cannot read config file {args.config!r}")
    except configparser.Error as e:
        raise ConfigError(f"bad config file {args.config!r}: {e}") from e
    flags = []
    for section in cp.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            dest = "task" if key == "name" else key
            if not hasattr(args, dest):
                raise ConfigError(
                    f"key {key!r} in [{section}] does not apply to this command")
            flag = "--" + dest.replace("_", "-")
            if not isinstance(getattr(args, dest), bool):
                flags.append(f"{flag}={raw}")
                continue
            try:
                on = cp[section].getboolean(key)
            except ValueError as e:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {e}") from e
            if dest == "weight_tying":   # exposed as a negative switch
                flag, on = "--no-weight-tying", not on
            if on:
                flags.append(flag)
    return flags


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _task_from_args(args):
    kw = {k: getattr(args, k) for k in SECTIONS["task"] if k != "name"}
    return make_task(args.task, **{k: v for k, v in kw.items() if v is not None})


def _model_from_args(args, vocab: int) -> ModelConfig:
    return ModelConfig(vocab=vocab, **{k: getattr(args, k) for k in SECTIONS["model"]})


def cmd_train(args) -> int:
    task = _task_from_args(args)
    if task.seq_len > args.max_seq:
        raise ConfigError(f"task sequences ({task.seq_len}) exceed "
                          f"--max-seq ({args.max_seq})")
    cfg = _model_from_args(args, task.vocab)
    tcfg = TrainConfig(**{k: getattr(args, k) for k in SECTIONS["train"]})
    params = init_parameters(cfg, args.seed)
    result = train(params, task, tcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)   # once training has succeeded
    (out / "loss.csv").write_text(result.log_csv())
    save_checkpoint(out / "model.ckpt", params, extra={
        "steps": tcfg.steps, "final_loss": result.final_loss, "seed": tcfg.seed})
    weights = params.arrays()   # eval records no tape
    acc = eval_accuracy(lambda toks: forward(weights, toks), task,
                        seed=args.seed + 1)
    manifest = {
        "command": "train",
        "model": asdict(cfg),
        "task": {"name": task.name, **task.params},
        "train": asdict(tcfg),
        "results": {"final_loss": result.final_loss, "accuracy": acc},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"trained {task.name}: final_loss={result.final_loss:.6f} "
          f"accuracy={acc:.3f}")
    print(f"wrote {args.out}/model.ckpt, loss.csv, manifest.json")
    return 0


def cmd_generate(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    if args.text is not None:
        prompt = np.frombuffer(args.text.encode("utf-8"), dtype=np.uint8).astype(np.int64)
    else:
        try:
            prompt = np.array([int(t) for t in args.prompt.split()], dtype=np.int64)
        except (ValueError, OverflowError) as e:   # OverflowError: past int64
            raise ConfigError(f"prompt must be space-separated int64 token ids: {e}") from e
    if prompt.size == 0:
        raise ConfigError("empty prompt")
    sess = prefill(params, prompt)
    toks = generate(sess, args.tokens, temperature=args.temperature,
                    seed=args.seed)
    if args.text is not None:
        print(bytes(t & 0xFF for t in toks).decode("utf-8", errors="replace"))
    else:
        print(" ".join(str(t) for t in toks))
    if args.stats:
        counts = sess.kv_entry_count()
        print(f"passes/token={sess.passes_per_token:.2f} steps={sess.steps} "
              f"kv_shared={counts['shared']} kv_window={counts['window']} "
              f"kv_per_loop={counts['per_loop']} prefill_rows={sess.prefill_rows}",
              file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    loaded = []
    if args.checkpoint is not None:
        load_checkpoint(args.checkpoint)  # CheckpointError -> exit 2
        loaded.append(CheckResult("checkpoint_load", 0.0, 0.0, True, args.checkpoint))
        if not args.json:
            print(f"pass  checkpoint_load          {args.checkpoint}")
    results = run_all(seed=args.seed, tolerance=args.tolerance,
                      include_grad=not args.skip_grad)
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps({"checks": [asdict(r) for r in loaded + results]}))
    else:
        print(*(r.line() for r in results), sep="\n")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_cost(args) -> int:
    cfg = standin_config()
    overrides = dict(mem_bandwidth=args.bandwidth, peak_flops=args.peak_flops,
                     weight_bytes_per_param=args.weight_bytes,
                     kv_bytes_per_entry=args.kv_bytes)
    profile = replace(default_profile(), **{k: v for k, v in overrides.items() if v is not None})
    costs = sweep(cfg, profile, args.batch, args.context, tuple(args.arch))
    if args.json:
        print(json.dumps({"rows": [dict(zip(REPORT_FIELDS, astuple(c))) for c in costs]}))
    else:
        print(report_csv(costs) if args.csv else report_text(costs) + "\n", end="")
    return 0


def cmd_bench(args) -> int:
    cfg = _model_from_args(args, args.vocab)
    if args.prompt_len + args.steps > cfg.max_seq:
        raise ConfigError(f"--prompt-len + --steps must fit --max-seq "
                          f"({cfg.max_seq})")
    params = init_parameters(cfg, args.seed)
    rng = np.random.default_rng(args.seed)
    prompt = rng.integers(0, cfg.vocab, size=args.prompt_len)
    t0 = time.perf_counter()
    sess = prefill(params, prompt)
    prefill_ms = (time.perf_counter() - t0) * 1e3
    times = []
    logits = sess.last_logits
    for _ in range(args.steps):
        tok = int(np.argmax(logits))
        t0 = time.perf_counter()
        logits = sess.step(tok)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times) * 1e3
    p90 = statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) >= 10 \
        else max(times) * 1e3
    if args.json:
        print(json.dumps(dict(mode=cfg.mode, loops=cfg.loops, steps=args.steps,
                              prefill_ms=prefill_ms, median_ms=med, p90_ms=p90,
                              passes_per_token=sess.passes_per_token,
                              prefill_rows=sess.prefill_rows)))
        return 0
    print(f"mode={cfg.mode} loops={cfg.loops} steps={args.steps} "
          f"prefill={prefill_ms:.3f}ms median={med:.3f}ms p90={p90:.3f}ms "
          f"passes/token={sess.passes_per_token:.1f} prefill_rows={sess.prefill_rows}")
    return 0


# ---------------------------------------------------------------------------


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags come first, so the command line's win
            args = parser.parse_args([args.command, *ini_flags(args), *argv[1:]])
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ConfigError, CheckpointError, TokenError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParloopError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
