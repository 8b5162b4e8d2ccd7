"""Tests of the benchmark itself, at a geometry small enough to run in seconds."""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import parloop as pl  # noqa: E402
import run  # noqa: E402

TINY_GEOMETRY = dict(vocab=16, d_model=16, n_layers=1, n_heads=2, n_kv_heads=1, d_ff=32)
TINY = harness.Workload(
    "tiny", TINY_GEOMETRY, prompt_len=6, tokens_per_session=3, train_steps=1,
    min_rounds=2, train_task=dict(src_len=2, symbols=4),
    train_model=dict(d_model=8, n_layers=1, n_heads=2, d_ff=16, mode="plt",
                     loops=2, gswa=True, window=2),
    train_batch=2, calib_geometry=TINY_GEOMETRY, calib_square=16)


def tiny_run(trace: bool, tamper=None, trace_path=None, cold_setup=None) -> dict:
    return harness.run_workload(TINY, seed=3, seconds=0.0, trace=trace,
                                models=harness.setup(TINY, 3), setup_s=1.0,
                                cold_setup=cold_setup, tamper=tamper,
                                trace_path=trace_path)


def test_every_metric_is_emitted_with_a_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        record = tiny_run(trace)
        assert record["failed"] == 0, record["failures"]
        assert record["ops_failed_share"] == 0.0
        metrics = record["metrics"]
        assert {m["name"]: m["unit"] for m in listed} == \
            {name: m["unit"] for name, m in metrics.items()}
        for name, m in metrics.items():
            assert m["unit"], name
            assert math.isfinite(m["value"]), name
        assert json.loads(run.result_line(record))["correct"] is True


def test_counts_are_exact():
    metrics = tiny_run(trace=True)["metrics"]
    for w, passes in harness.PASSES_PER_TOKEN.items():
        assert metrics[f"decode.passes_per_token.{w}"]["value"] == passes
    # one shared-cache write per layer and pass: 1 + 2 + 1 + 1 over the wirings
    assert metrics["attention.shared_write.calls"]["value"] == 5
    assert metrics["attention.ring_gather.calls"]["value"] == 1
    assert metrics["attention.kv_bytes_ratio.loop2"]["value"] == 2.0
    assert metrics["attention.kv_bytes_ratio.plt2"]["value"] == 1.0


def test_perturbed_logit_trips_the_gate(capsys):
    def tamper(wiring, rows):
        if wiring == "plt2":
            rows[2][0] += 1e-6
        return rows

    record = tiny_run(trace=False, tamper=tamper)
    assert record["failed"] == TINY.min_rounds   # one token per plt2 session
    assert record["ops_failed_share"] > 0
    assert run.finish(record) != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == record["failed"]


def test_setup_s_is_the_median_of_the_cold_samples(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_EVERY", 1)
    record = tiny_run(trace=False, cold_setup=lambda: 3.0)
    assert record["setup_samples_s"] == [1.0] + [3.0] * TINY.min_rounds
    assert record["metrics"]["setup_s"]["value"] == 3.0


def test_traced_and_untraced_runs_emit_the_same_end_to_end_names():
    untraced = tiny_run(trace=False)
    traced = tiny_run(trace=True)
    names = set(untraced["metrics"])
    assert set(traced["e2e"]) == names
    assert set(traced["traced_e2e"]) == names
    assert {f"trace_overhead.{n}" for n in names} <= set(traced["metrics"])


def test_tracer_restores_what_it_wrapped():
    originals = (pl.prefill, pl.generate, pl.train, pl.Tensor.__matmul__,
                 pl.Tensor.__init__, pl.DecodeSession.step)
    tiny_run(trace=True)
    assert (pl.prefill, pl.generate, pl.train, pl.Tensor.__matmul__,
            pl.Tensor.__init__, pl.DecodeSession.step) == originals


def test_spans_carry_parent_and_request_id(tmp_path):
    path = tmp_path / "spans.jsonl"
    tiny_run(trace=True, trace_path=path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    steps = [s for s in spans if s["name"] == "decode.step"]
    assert steps and all(spans[s["parent"]]["name"] == "decode.generate" for s in steps)
    workload, wiring, session, token = steps[0]["rid"].split("/")
    assert workload == "tiny" and wiring in harness.WIRINGS and token.isdigit()

