"""The verification suite: the gradients check passes and ends ``run_all``, the prefill-reach and
train-reach checks catch a reach one layer short, and the reference
forwards record no tape."""

import parloop.model
import parloop.verify
from parloop.tensor import Tensor
from parloop.verify import (
    check_causality,
    check_gate_limits,
    check_gradients,
    check_prefill_reach,
    check_teacher_forcing,
    check_train_reach,
    run_all,
)


def test_gradients_check_passes():
    result = check_gradients()
    assert result.passed, result.line()


def test_run_all_ends_with_the_gradients_check():
    results = run_all(include_grad=True)
    assert results[-1].name == "gradients"
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_prefill_reach_passes():
    result = check_prefill_reach()
    assert result.passed, result.line()


def test_a_reach_one_layer_short_fails(monkeypatch):
    table = parloop.model.prefill_table

    def short(cfg, n, top):   # the last loop's first layer takes in window - 1 rows
        rows = table(cfg, n, top)    # too few: no further back than the layer above
        if cfg.gswa:
            rows[-1][0] = rows[-1][1]
        return rows

    monkeypatch.setattr(parloop.model, "prefill_table", short)
    result = check_prefill_reach()
    assert not result.passed and result.max_err > 1e3 * result.tol, result.line()


def test_train_reach_passes():
    result = check_train_reach()
    assert result.passed, result.line()


def test_a_train_reach_one_layer_short_fails(monkeypatch):
    table = parloop.model.prefill_table

    def short(cfg, n, top):   # as above, on the training step's table
        rows = table(cfg, n, top)
        if cfg.gswa:
            rows[-1][0] = rows[-1][1]
        return rows

    monkeypatch.setattr(parloop.model, "prefill_table", short)
    result = check_train_reach()
    assert not result.passed and result.max_err > 1e3 * result.tol, result.line()


def test_reference_forwards_build_no_tensor(monkeypatch):
    forwards = []
    init = Tensor.__init__
    forward = parloop.verify.forward

    def counted(self, *args, **kwargs):
        forwards[-1] += 1
        init(self, *args, **kwargs)

    def forward_counting_tensors(*args, **kwargs):
        forwards.append(0)
        monkeypatch.setattr(Tensor, "__init__", counted)
        try:
            return forward(*args, **kwargs)
        finally:
            monkeypatch.setattr(Tensor, "__init__", init)

    monkeypatch.setattr(parloop.verify, "forward", forward_counting_tensors)
    for check in (check_teacher_forcing, check_prefill_reach, check_causality,
                  check_gate_limits):
        assert check().passed
    assert len(forwards) == 5 + 2 + 2 * 12 + 2
    assert forwards == [0] * len(forwards)
