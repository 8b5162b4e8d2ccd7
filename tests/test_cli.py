"""End-to-end tests for the command line interface.

Everything goes through cli.run(argv) so exit codes and printed output are
checked exactly as a shell user would see them.
"""

import json
import os

import numpy as np
import pytest

from parloop.checkpoint import load_checkpoint, save_checkpoint
from parloop.cli import run
from parloop.model import ModelConfig, init_parameters

TINY = ["--d-model", "16", "--n-layers", "1", "--n-heads", "2",
        "--mode", "plt", "--loops", "2", "--gswa", "--window", "4"]
TINY_TASK = ["--task", "copy", "--src-len", "4", "--symbols", "8"]
TINY_TRAIN = ["--steps", "25", "--batch-size", "16"]


def train_into(tmp_path, name, extra=()):
    out = tmp_path / name
    code = run(["train", *TINY, *TINY_TASK, *TINY_TRAIN, *extra,
                "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_losses_and_manifest(tmp_path, capsys):
    out = train_into(tmp_path, "run")
    assert (out / "model.ckpt").is_file()
    assert (out / "loss.csv").is_file()
    assert (out / "manifest.json").is_file()
    assert "final_loss=" in capsys.readouterr().out

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"]["d_model"] == 16
    assert manifest["model"]["mode"] == "plt"
    assert manifest["model"]["vocab"] == 9  # 8 symbols + separator
    assert manifest["task"] == {"name": "copy", "src_len": 4, "symbols": 8}
    assert manifest["train"]["steps"] == 25
    assert np.isfinite(manifest["results"]["final_loss"])
    assert load_checkpoint(out / "model.ckpt")[1] == {
        "steps": 25, "final_loss": manifest["results"]["final_loss"], "seed": 0}

    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss,lr,grad_norm"
    assert len(lines) == 26


def test_same_seed_runs_are_byte_identical(tmp_path):
    a = train_into(tmp_path, "a")
    b = train_into(tmp_path, "b")
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_different_seed_changes_the_checkpoint(tmp_path):
    a = train_into(tmp_path, "a")
    c = train_into(tmp_path, "c", extra=["--seed", "7"])
    assert (a / "model.ckpt").read_bytes() != (c / "model.ckpt").read_bytes()


def test_task_flag_for_the_wrong_task_is_rejected(tmp_path):
    code = run(["train", *TINY, "--task", "copy", "--modulus", "5",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_task_longer_than_max_seq_is_rejected(tmp_path):
    code = run(["train", *TINY, "--task", "copy", "--src-len", "100",
                "--max-seq", "64", "--out", str(tmp_path / "x")])
    assert code == 2


def test_invalid_geometry_is_rejected(tmp_path):
    # d_model=16 with 3 heads does not divide
    code = run(["train", "--d-model", "16", "--n-heads", "3",
                *TINY_TASK, "--out", str(tmp_path / "x")])
    assert code == 2


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def write_ini(tmp_path, body):
    p = tmp_path / "run.ini"
    p.write_text(body)
    return str(p)


GOOD_INI = """\
[model]
d_model = 16
n_layers = 1
n_heads = 2
mode = plt
loops = 2
gswa = true
window = 4

[task]
name = copy
src_len = 4
symbols = 8

[train]
steps = 40
batch_size = 16
lr = 0.004
"""


def test_config_file_supplies_defaults(tmp_path):
    ini = write_ini(tmp_path, GOOD_INI)
    out = tmp_path / "run"
    assert run(["train", "--config", ini, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["train"]["steps"] == 40
    assert manifest["train"]["lr"] == 0.004
    assert manifest["model"]["gswa"] is True
    assert manifest["task"]["name"] == "copy"


def test_config_file_switch_set_false_reaches_the_model(tmp_path):
    # the INI line becomes --no-weight-tying
    ini = write_ini(tmp_path, GOOD_INI.replace("window = 4\n",
                                               "window = 4\nweight_tying = false\n"))
    out = tmp_path / "run"
    assert run(["train", "--config", ini, "--steps", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"]["weight_tying"] is False
    assert manifest["model"]["gswa"] is True


@pytest.mark.parametrize("steps", [["--steps", "23"], ["--step", "23"], ["--steps=23"]],
                         ids=["spaced", "abbreviated", "joined"])
def test_explicit_flags_beat_the_config_file(tmp_path, steps):
    ini = write_ini(tmp_path, GOOD_INI)
    out = tmp_path / "run"
    assert run(["train", "--config", ini, *steps, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["train"]["steps"] == 23
    assert manifest["train"]["lr"] == 0.004  # untouched key still from file


def test_unknown_config_key_is_rejected(tmp_path):
    ini = write_ini(tmp_path, "[model]\nd_model = 16\nbogus = 1\n")
    assert run(["train", "--config", ini, "--out", str(tmp_path / "x")]) == 2


def test_unknown_config_section_is_rejected(tmp_path):
    ini = write_ini(tmp_path, "[mystery]\nx = 1\n")
    assert run(["train", "--config", ini, "--out", str(tmp_path / "x")]) == 2


def test_bad_config_value_is_rejected(tmp_path):
    ini = write_ini(tmp_path, "[train]\nsteps = soon\n")
    assert run(["train", "--config", ini, "--out", str(tmp_path / "x")]) == 2


def test_missing_config_file_is_rejected(tmp_path):
    assert run(["train", "--config", str(tmp_path / "nope.ini"),
                "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_train_then_generate_roundtrip(tmp_path, capsys):
    out = train_into(tmp_path, "run")
    capsys.readouterr()
    code = run(["generate", "--checkpoint", str(out / "model.ckpt"),
                "--prompt", "1 2 3 4 8", "--tokens", "6", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    ids = [int(t) for t in captured.out.split()]
    assert len(ids) == 6
    assert all(0 <= t < 9 for t in ids)
    assert "passes/token=1.00" in captured.err
    assert "kv_window=" in captured.err
    assert "prefill_rows=" in captured.err


def test_generate_is_reproducible(tmp_path, capsys):
    out = train_into(tmp_path, "run")
    argv = ["generate", "--checkpoint", str(out / "model.ckpt"),
            "--prompt", "1 2 3", "--tokens", "5",
            "--temperature", "0.8", "--seed", "11"]
    capsys.readouterr()
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_generate_text_mode_round_trips_bytes(tmp_path, capsys):
    cfg = ModelConfig(vocab=256, d_model=16, n_layers=1, n_heads=2,
                      mode="vanilla", max_seq=64)
    path = tmp_path / "bytes.ckpt"
    save_checkpoint(str(path), init_parameters(cfg, seed=0))
    capsys.readouterr()
    code = run(["generate", "--checkpoint", str(path), "--text", "ab",
                "--tokens", "4"])
    captured = capsys.readouterr()
    assert code == 0
    # untrained bytes may not be printable; the line itself must decode
    assert len(captured.out.rstrip("\n")) >= 1


def test_generate_rejects_out_of_range_ids(tmp_path, capsys):
    out = train_into(tmp_path, "run")
    assert run(["generate", "--checkpoint", str(out / "model.ckpt"),
                "--prompt", "1 2 99", "--tokens", "2"]) == 2
    assert run(["generate", "--checkpoint", str(out / "model.ckpt"),
                "--prompt", "one two", "--tokens", "2"]) == 2


def test_generate_missing_checkpoint_exits_2(tmp_path):
    assert run(["generate", "--checkpoint", str(tmp_path / "no.ckpt"),
                "--prompt", "1", "--tokens", "1"]) == 2


def test_generate_corrupt_checkpoint_exits_2(tmp_path):
    out = train_into(tmp_path, "run")
    blob = (out / "model.ckpt").read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[: len(blob) // 2])
    assert run(["generate", "--checkpoint", str(bad),
                "--prompt", "1", "--tokens", "1"]) == 2


def test_generate_past_capacity_exits_1(tmp_path):
    out = train_into(tmp_path, "run", extra=["--max-seq", "16"])
    assert run(["generate", "--checkpoint", str(out / "model.ckpt"),
                "--prompt", "1 2 3", "--tokens", "200"]) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_at_default_tolerance(capsys):
    assert run(["verify", "--skip-grad"]) == 0
    out = capsys.readouterr().out
    assert "teacher_forcing" in out
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_zero_tolerance_exits_1(capsys):
    assert run(["verify", "--tolerance", "0", "--skip-grad"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_with_good_checkpoint(tmp_path, capsys):
    out = train_into(tmp_path, "run")
    capsys.readouterr()
    code = run(["verify", "--skip-grad", "--checkpoint",
                str(out / "model.ckpt")])
    assert code == 0
    assert "checkpoint_load" in capsys.readouterr().out


def test_verify_json_carries_the_text_fields(tmp_path, capsys):
    out = train_into(tmp_path, "run")
    argv = ["verify", "--skip-grad", "--checkpoint", str(out / "model.ckpt")]
    capsys.readouterr()
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert run([*argv, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [line.split()[1] for line in lines[:-1]]
    assert all(set(c) == {"name", "max_err", "tol", "passed", "detail"} for c in checks)
    assert all(c["passed"] for c in checks)
    assert checks[0] == {"name": "checkpoint_load", "max_err": 0.0, "tol": 0.0,
                         "passed": True, "detail": str(out / "model.ckpt")}
    for c, line in zip(checks[1:], lines[1:-1], strict=True):
        assert f"max_err={c['max_err']:.3e} tol={c['tol']:.1e}" in line
        assert line.endswith(c["detail"])
    assert run(["verify", "--skip-grad", "--tolerance", "0", "--json"]) == 1
    assert not all(c["passed"] for c in json.loads(capsys.readouterr().out)["checks"])


def test_verify_with_corrupt_checkpoint_exits_2(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert run(["verify", "--skip-grad", "--checkpoint", str(bad)]) == 2


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_text_table_lists_requested_rows(capsys):
    assert run(["cost", "--batch", "4", "--arch", "vanilla", "plt"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("-")]
    assert lines[0].startswith("arch")
    assert [l.split()[0] for l in lines[1:]] == ["vanilla", "plt"]


def test_cost_csv_is_parseable_and_complete(capsys):
    assert run(["cost", "--batch", "2", "8", "--context", "1000",
                "--csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].split(",")[0] == "arch"
    assert len(rows) == 1 + 2 * 5  # two batches x five architectures
    latencies = [float(r.split(",")[8]) for r in rows[1:]]
    assert all(v > 0 for v in latencies)


def test_cost_json_carries_the_csv_fields_as_numbers(capsys):
    argv = ["cost", "--batch", "2", "8", "--context", "1000"]
    assert run([*argv, "--csv"]) == 0
    header, *lines = capsys.readouterr().out.strip().splitlines()
    assert run([*argv, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == len(lines) == 2 * 5
    for row, line in zip(rows, lines):
        assert list(row) == header.split(",")
        for key, text in zip(row, line.split(",")):
            if key in ("arch", "bound"):
                assert row[key] == text
            else:
                assert type(row[key]) in (int, float)   # the CSV rounds to 9 or 1 decimals
                assert abs(row[key] - float(text)) <= (1e-9 if key == "latency_s" else 0.051)


def test_cost_json_and_csv_together_rejected(capsys):
    assert run(["cost", "--json", "--csv"]) == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cost_rejects_zero_batch():
    assert run(["cost", "--batch", "0"]) == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_reports_timings(capsys):
    assert run(["bench", *TINY, "--steps", "12", "--prompt-len", "4",
                "--vocab", "32"]) == 0
    out = capsys.readouterr().out
    assert "median=" in out and "p90=" in out
    assert "passes/token=1.0" in out
    assert "prefill=" in out and "prefill_rows=" in out


def test_bench_json_carries_the_text_fields(capsys):
    argv = ["bench", *TINY, "--steps", "12", "--prompt-len", "4", "--vocab", "32"]
    assert run(argv) == 0
    text = dict(field.split("=") for field in capsys.readouterr().out.split())
    assert run([*argv, "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"mode", "loops", "steps", "prefill_ms", "median_ms", "p90_ms",
                        "passes_per_token", "prefill_rows"}
    assert (got["mode"], got["loops"], got["steps"]) == ("plt", 2, 12)
    assert got["passes_per_token"] == 1.0
    assert got["prefill_rows"] == int(text["prefill_rows"])
    assert min(got["prefill_ms"], got["median_ms"], got["p90_ms"]) > 0


def test_bench_single_step_reports_its_time_as_p90(capsys):
    # under ten steps there are no deciles: p90 is the slowest step
    assert run(["bench", *TINY, "--steps", "1", "--prompt-len", "4", "--vocab", "32",
                "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["p90_ms"] == got["median_ms"] > 0


def test_bench_zero_steps_exits_2(capsys):
    assert run(["bench", "--steps", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_bench_rejects_overlong_run():
    assert run(["bench", *TINY, "--steps", "300", "--prompt-len", "8",
                "--max-seq", "64"]) == 2


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    assert run([]) == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2
