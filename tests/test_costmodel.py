"""Cost model algebra and the headline latency bands."""

import csv
import io

import numpy as np
import pytest

from parloop.cli import run
from parloop.costmodel import (
    ARCH_ROWS,
    HardwareProfile,
    decode_step_cost,
    default_profile,
    latency_ratio,
    report_csv,
    report_text,
    standin_config,
    sweep,
    variant_config,
)
from parloop.errors import ConfigError
from parloop.decode import prefill
from parloop.model import ModelConfig, count_params_from_config, init_parameters
from parloop.train import LADDER, ladder_config


BATCHES = (4, 8, 16, 32, 64)
CONTEXT = 5000


@pytest.fixture(scope="module")
def cfg():
    return standin_config()


@pytest.fixture(scope="module")
def profile():
    return default_profile()


class TestRowAlgebra:
    def test_fused_rows_read_weights_once(self, cfg, profile):
        serial = decode_step_cost("loop", cfg, profile, 4, CONTEXT)
        fused = decode_step_cost("loop_clp", cfg, profile, 4, CONTEXT)
        assert serial.passes == cfg.loops and fused.passes == 1
        # identical cache traffic, weight reads collapse to one pass
        assert fused.kv_bytes == serial.kv_bytes
        assert fused.weight_bytes < serial.weight_bytes
        assert fused.flops == serial.flops

    def test_sharing_removes_loop_factor_from_cache(self, cfg, profile):
        fused = decode_step_cost("loop_clp", cfg, profile, 4, CONTEXT)
        shared = decode_step_cost("loop_clp_kvshare", cfg, profile, 4, CONTEXT)
        assert fused.kv_bytes == cfg.loops * shared.kv_bytes

    def test_window_adds_bounded_bytes_and_gate_weights(self, cfg, profile):
        shared = decode_step_cost("loop_clp_kvshare", cfg, profile, 4, CONTEXT)
        windowed = decode_step_cost("plt", cfg, profile, 4, CONTEXT)
        kv_extra = windowed.kv_bytes - shared.kv_bytes
        want = 4 * (cfg.loops - 1) * min(cfg.window, CONTEXT) \
            * profile.kv_bytes_per_entry * cfg.n_layers
        assert kv_extra == want
        gate_params = cfg.n_layers * (cfg.d_model * cfg.n_heads + cfg.n_heads)
        assert windowed.weight_bytes - shared.weight_bytes == pytest.approx(
            gate_params * profile.weight_bytes_per_param)

    def test_single_loop_collapses_every_row_to_vanilla(self, profile):
        cfg = ModelConfig(vocab=1024, d_model=64, n_layers=4, n_heads=4,
                          loops=1, mode="plt", gswa=True, window=8, max_seq=4096)
        v = decode_step_cost("vanilla", cfg, profile, 8, 256)
        for arch in ("loop", "loop_clp", "loop_clp_kvshare"):
            c = decode_step_cost(arch, cfg, profile, 8, 256)
            assert c.bytes_total == v.bytes_total
            assert c.latency == v.latency
        # the gated row differs only by its gate weights when L = 1
        p = decode_step_cost("plt", cfg, profile, 8, 256)
        assert p.kv_bytes == v.kv_bytes

    def test_window_wider_than_context_is_clamped(self, profile):
        cfg = ModelConfig(vocab=1024, d_model=64, n_layers=2, n_heads=4,
                          loops=2, mode="plt", gswa=True, window=4096, max_seq=8192)
        shared = decode_step_cost("loop_clp_kvshare", cfg, profile, 1, 100)
        windowed = decode_step_cost("plt", cfg, profile, 1, 100)
        assert windowed.kv_bytes - shared.kv_bytes == \
            100 * profile.kv_bytes_per_entry * cfg.n_layers

    def test_unknown_row_rejected(self, cfg, profile):
        with pytest.raises(ConfigError):
            decode_step_cost("hybrid", cfg, profile, 1, 100)
        with pytest.raises(ConfigError):
            variant_config(cfg, "hybrid")

    def test_degenerate_sizes_rejected(self, cfg, profile):
        with pytest.raises(ConfigError):
            decode_step_cost("plt", cfg, profile, 0, 100)
        with pytest.raises(ConfigError):
            decode_step_cost("plt", cfg, profile, 1, 0)


class TestMonotonicity:
    def test_latency_grows_with_batch(self, cfg, profile):
        for arch in ARCH_ROWS:
            lats = [decode_step_cost(arch, cfg, profile, b, CONTEXT).latency
                    for b in BATCHES]
            assert all(b >= a for a, b in zip(lats, lats[1:]))

    def test_latency_grows_with_context(self, cfg, profile):
        for arch in ARCH_ROWS:
            lats = [decode_step_cost(arch, cfg, profile, 8, n).latency
                    for n in (500, 2000, 5000, 8000)]
            assert all(b >= a for a, b in zip(lats, lats[1:]))


class TestHeadlineNumbers:
    def test_standin_is_desk_scale_dense(self, cfg):
        total = count_params_from_config(variant_config(cfg, "vanilla"))
        assert 6.5e8 < total < 7.2e8

    def test_cache_byte_ratio_with_window(self, cfg, profile):
        shared = decode_step_cost("loop_clp_kvshare", cfg, profile, 1, CONTEXT)
        windowed = decode_step_cost("plt", cfg, profile, 1, CONTEXT)
        ratio = windowed.kv_bytes / shared.kv_bytes
        assert 1.010 <= ratio <= 1.020  # 1 + 64/5000

    def test_serial_loop_band(self, cfg, profile):
        for b in BATCHES:
            r = latency_ratio("loop", cfg, profile, b, CONTEXT)
            assert 1.9 <= r <= 2.0, (b, r)

    def test_parallel_loop_band(self, cfg, profile):
        for b in BATCHES:
            r = latency_ratio("plt", cfg, profile, b, CONTEXT)
            assert 1.0 <= r <= 1.10, (b, r)

    def test_fused_only_overhead_starts_low_and_grows(self, cfg, profile):
        ratios = [latency_ratio("loop_clp", cfg, profile, b, CONTEXT)
                  for b in BATCHES]
        assert 1.15 <= ratios[0] <= 1.30
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_decoding_stays_memory_bound_at_defaults(self, cfg, profile):
        for arch in ARCH_ROWS:
            for b in BATCHES:
                assert decode_step_cost(arch, cfg, profile, b, CONTEXT).bound == "memory"

    def test_compute_bound_machine_pays_full_loop_factor(self, cfg):
        starved = HardwareProfile(name="compute-starved", mem_bandwidth=1e15,
                                  peak_flops=1e9, weight_bytes_per_param=1.4,
                                  kv_bytes_per_entry=512.0)
        r = latency_ratio("plt", cfg, starved, 4, CONTEXT)
        L = cfg.loops
        assert L - 0.15 <= r <= L
        assert decode_step_cost("plt", cfg, starved, 4, CONTEXT).bound == "compute"


class TestReports:
    def test_text_table_lists_every_row(self, cfg, profile):
        txt = report_text(sweep(cfg, profile, (4, 64), CONTEXT))
        for arch in ARCH_ROWS:
            assert arch in txt
        assert "vs vanilla" in txt
        assert "1.000x" in txt  # vanilla against itself

    def test_csv_parses_and_is_numeric(self, cfg, profile):
        out = report_csv(sweep(cfg, profile, (4,), CONTEXT))
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "arch"
        assert len(rows) == 1 + len(ARCH_ROWS)
        for row in rows[1:]:
            assert float(row[8]) > 0  # latency column
            assert row[9] in ("memory", "compute")

    def test_sweep_covers_batches_times_archs(self, cfg, profile):
        costs = sweep(cfg, profile, BATCHES, CONTEXT)
        assert len(costs) == len(BATCHES) * len(ARCH_ROWS)


def session_after(cfg, prompt_len=7, steps=4):
    sess = prefill(init_parameters(cfg, 0), np.arange(prompt_len) % cfg.vocab)
    for t in range(steps):
        sess.step(t % cfg.vocab)
    return sess


class TestAgreesWithSessions:
    """A row's passes and cache bytes are what a decode session of its
    wiring counts, with the window shorter and longer than the context."""

    @pytest.mark.parametrize("window", (4, 16))
    @pytest.mark.parametrize("loops", (2, 3))
    @pytest.mark.parametrize("rung", LADDER)
    def test_row_prices_the_session(self, rung, loops, window, profile):
        base = dict(vocab=13, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
                    d_ff=32, max_seq=32)
        cfg = ladder_config(rung, base, loops, window)
        sess = session_after(cfg)
        c = decode_step_cost(LADDER[rung], cfg, profile, 1, sess.position)
        assert sess.passes_per_token == c.passes
        assert sess.kv_entry_count()["total"] * profile.kv_bytes_per_entry == c.kv_bytes


# `parloop cost --csv` at the default profile, and with compute cut to 3e12
# flop/s, where 23 of 25 rows are compute-bound and the serial row turns
# compute-bound between batch 4 and 8. The headline table must not move.
HEADLINE_CSV = """\
arch,batch,context,passes,weight_bytes,kv_bytes,act_bytes,flops,latency_s,bound
vanilla,4,5000,1,957303603.2,286720000.0,917504.0,10056892416.0,0.004788235,memory
loop,4,5000,2,1820654796.8,573440000.0,1835008.0,19576913920.0,0.009215115,memory
loop_clp,4,5000,1,957303603.2,573440000.0,1835008.0,19576913920.0,0.005894533,memory
loop_clp_kvshare,4,5000,1,957303603.2,286720000.0,1835008.0,19342032896.0,0.004791764,memory
plt,4,5000,1,958588736.0,290390016.0,1835008.0,19642974208.0,0.004810822,memory
vanilla,8,5000,1,957303603.2,573440000.0,1835008.0,20113784832.0,0.005894533,memory
loop,8,5000,2,1820654796.8,1146880000.0,3670016.0,39153827840.0,0.011427711,memory
loop_clp,8,5000,1,957303603.2,1146880000.0,3670016.0,39153827840.0,0.008107129,memory
loop_clp_kvshare,8,5000,1,957303603.2,573440000.0,3670016.0,38684065792.0,0.005901591,memory
plt,8,5000,1,958588736.0,580780032.0,3670016.0,39285948416.0,0.005934765,memory
vanilla,16,5000,1,957303603.2,1146880000.0,3670016.0,40227569664.0,0.008107129,memory
loop,16,5000,2,1820654796.8,2293760000.0,7340032.0,78307655680.0,0.015852903,memory
loop_clp,16,5000,1,957303603.2,2293760000.0,7340032.0,78307655680.0,0.012532322,memory
loop_clp_kvshare,16,5000,1,957303603.2,1146880000.0,7340032.0,77368131584.0,0.008121245,memory
plt,16,5000,1,958588736.0,1161560064.0,7340032.0,78571896832.0,0.008182649,memory
vanilla,32,5000,1,957303603.2,2293760000.0,7340032.0,80455139328.0,0.012532322,memory
loop,32,5000,2,1820654796.8,4587520000.0,14680064.0,156615311360.0,0.024703288,memory
loop_clp,32,5000,1,957303603.2,4587520000.0,14680064.0,156615311360.0,0.021382706,memory
loop_clp_kvshare,32,5000,1,957303603.2,2293760000.0,14680064.0,154736263168.0,0.012560553,memory
plt,32,5000,1,958588736.0,2323120128.0,14680064.0,157143793664.0,0.012678419,memory
vanilla,64,5000,1,957303603.2,4587520000.0,14680064.0,160910278656.0,0.021382706,memory
loop,64,5000,2,1820654796.8,9175040000.0,29360128.0,313230622720.0,0.042404057,memory
loop_clp,64,5000,1,957303603.2,9175040000.0,29360128.0,313230622720.0,0.039083476,memory
loop_clp_kvshare,64,5000,1,957303603.2,4587520000.0,29360128.0,309472526336.0,0.021439168,memory
plt,64,5000,1,958588736.0,4646240256.0,29360128.0,314287587328.0,0.021669958,memory
"""

HEADLINE_CSV_3E12 = """\
arch,batch,context,passes,weight_bytes,kv_bytes,act_bytes,flops,latency_s,bound
vanilla,4,5000,1,957303603.2,286720000.0,917504.0,10056892416.0,0.004788235,memory
loop,4,5000,2,1820654796.8,573440000.0,1835008.0,19576913920.0,0.009215115,memory
loop_clp,4,5000,1,957303603.2,573440000.0,1835008.0,19576913920.0,0.006525638,compute
loop_clp_kvshare,4,5000,1,957303603.2,286720000.0,1835008.0,19342032896.0,0.006447344,compute
plt,4,5000,1,958588736.0,290390016.0,1835008.0,19642974208.0,0.006547658,compute
vanilla,8,5000,1,957303603.2,573440000.0,1835008.0,20113784832.0,0.006704595,compute
loop,8,5000,2,1820654796.8,1146880000.0,3670016.0,39153827840.0,0.013051276,compute
loop_clp,8,5000,1,957303603.2,1146880000.0,3670016.0,39153827840.0,0.013051276,compute
loop_clp_kvshare,8,5000,1,957303603.2,573440000.0,3670016.0,38684065792.0,0.012894689,compute
plt,8,5000,1,958588736.0,580780032.0,3670016.0,39285948416.0,0.013095316,compute
vanilla,16,5000,1,957303603.2,1146880000.0,3670016.0,40227569664.0,0.013409190,compute
loop,16,5000,2,1820654796.8,2293760000.0,7340032.0,78307655680.0,0.026102552,compute
loop_clp,16,5000,1,957303603.2,2293760000.0,7340032.0,78307655680.0,0.026102552,compute
loop_clp_kvshare,16,5000,1,957303603.2,1146880000.0,7340032.0,77368131584.0,0.025789377,compute
plt,16,5000,1,958588736.0,1161560064.0,7340032.0,78571896832.0,0.026190632,compute
vanilla,32,5000,1,957303603.2,2293760000.0,7340032.0,80455139328.0,0.026818380,compute
loop,32,5000,2,1820654796.8,4587520000.0,14680064.0,156615311360.0,0.052205104,compute
loop_clp,32,5000,1,957303603.2,4587520000.0,14680064.0,156615311360.0,0.052205104,compute
loop_clp_kvshare,32,5000,1,957303603.2,2293760000.0,14680064.0,154736263168.0,0.051578754,compute
plt,32,5000,1,958588736.0,2323120128.0,14680064.0,157143793664.0,0.052381265,compute
vanilla,64,5000,1,957303603.2,4587520000.0,14680064.0,160910278656.0,0.053636760,compute
loop,64,5000,2,1820654796.8,9175040000.0,29360128.0,313230622720.0,0.104410208,compute
loop_clp,64,5000,1,957303603.2,9175040000.0,29360128.0,313230622720.0,0.104410208,compute
loop_clp_kvshare,64,5000,1,957303603.2,4587520000.0,29360128.0,309472526336.0,0.103157509,compute
plt,64,5000,1,958588736.0,4646240256.0,29360128.0,314287587328.0,0.104762529,compute
"""


@pytest.mark.parametrize("flags, want", [((), HEADLINE_CSV),
                                         (("--peak-flops", "3e12"), HEADLINE_CSV_3E12)])
def test_headline_table_is_pinned(flags, want, capsys):
    assert run(["cost", "--csv", *flags]) == 0
    assert capsys.readouterr().out == want.replace("\n", "\r\n")   # csv ends rows in CRLF
