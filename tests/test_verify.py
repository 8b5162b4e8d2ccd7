"""The verification suite's prefill-reach check catches a reach one layer short."""

import parloop.model
from parloop.verify import check_prefill_reach


def test_prefill_reach_passes():
    result = check_prefill_reach()
    assert result.passed, result.line()


def test_a_reach_one_layer_short_fails(monkeypatch):
    table = parloop.model.prefill_table

    def short(cfg, n):   # the last loop's first layer takes in window - 1 rows too few
        rows = table(cfg, n)
        if cfg.gswa:
            rows[-1][0] += cfg.window - 1
        return rows

    monkeypatch.setattr(parloop.model, "prefill_table", short)
    result = check_prefill_reach()
    assert not result.passed and result.max_err > 1e3 * result.tol, result.line()
