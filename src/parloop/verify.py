"""Runtime verification suite.

Each check builds small random models and measures how far an invariant is
from holding; a check passes when its error is within tolerance. Exact
invariants (causality, gate saturation, cache bounds) use zero tolerance;
the checks of decode and of the row-trimmed training step against a full
forward carry genuine floating-point noise, so they take the caller's
tolerance and honestly fail at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import variant_config
from .decode import prefill
from .gradcheck import grad_check
from .model import ModelConfig, forward, init_parameters
from .tasks import cross_entropy_loss
from .tensor import Rng
from .train import scored_loss

CAUSALITY_TRIALS = 12   # random (model, position) perturbations


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{status}  {self.name:24s} max_err={self.max_err:.3e} "
                f"tol={self.tol:.1e}  {self.detail}")


def _configs(seed: int) -> list:
    rng = Rng(seed).fork("verify-configs")
    out = []
    for kw in (dict(mode="vanilla"),
               dict(mode="vanilla_loop", loops=2),
               dict(mode="plt", loops=3, gswa=True, window=3),
               dict(mode="plt", loops=2),
               dict(mode="plt", loops=3, gswa=True, window=3, per_loop_gates=True)):
        d = int(rng.integers(2, 4)) * 8
        out.append(ModelConfig(vocab=19, d_model=d, n_layers=2, n_heads=4,
                               n_kv_heads=2, d_ff=2 * d, max_seq=64, **kw))
    return out


def _decode_gap(params, tokens, full, split: int) -> float:
    """Max |logits - full[j]| of a session prefilled on tokens[:split] and
    then fed the next 9 tokens; ``full`` is the forward over ``tokens``."""
    sess = prefill(params, tokens[:split])
    worst = float(np.max(np.abs(sess.last_logits - full[split - 1])))
    for j in range(split, split + 9):
        worst = max(worst, float(np.max(np.abs(sess.step(int(tokens[j])) - full[j]))))
    return worst


def check_teacher_forcing(seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """Step-by-step decode logits must match the full training forward,
    after a short prompt and after one long enough that prefill runs the
    later plt loops over a suffix only."""
    worst = 0.0
    trials = 0
    for i, cfg in enumerate(_configs(seed)):
        params = init_parameters(cfg, seed + i)
        tokens = Rng(seed + i).integers(0, cfg.vocab, (30,))
        full = forward(params.arrays(), tokens)[0]
        for split in (5, 21):
            worst = max(worst, _decode_gap(params, tokens, full, split))
            trials += 9
    return CheckResult("teacher_forcing", worst, tol, worst <= tol,
                       f"{trials} steps over {len(_configs(seed))} wirings, "
                       f"prompts of 5 and 21 tokens")


def check_prefill_reach(seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """Decode after a prompt longer than prefill's reach must match the full
    forward on the gated-window wirings. Their weights are drawn large
    (std 0.3), so a prefill row that sees a truncated window moves the
    logits far past tolerance instead of hiding below it."""
    worst = 0.0
    cfgs = [cfg for cfg in _configs(seed) if cfg.gswa]
    for i, cfg in enumerate(cfgs):
        params = init_parameters(cfg, seed + i, std=0.3)
        tokens = Rng(seed + i).fork("reach").integers(0, cfg.vocab, (49,))
        worst = max(worst, _decode_gap(params, tokens, forward(params.arrays(), tokens)[0], 40))
    return CheckResult("prefill_reach", worst, tol, worst <= tol,
                       f"9 steps after a 40-token prompt over {len(cfgs)} "
                       f"gated-window wirings, std 0.3")


def _loss_and_grads(params, loss_fn) -> list:
    """[loss, then each parameter's gradient] after one backward of loss_fn()."""
    for t in params.named_tensors().values():
        t.grad = None
    loss = loss_fn()
    loss.backward()
    return [loss.data] + [t.grad for t in params.named_tensors().values()]


def check_train_reach(seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """The training step runs each layer only on the rows its loss reads
    (``train.scored_loss``); its loss and gradients must match those of a
    forward over every row, on the gated-window wirings with weights drawn
    large (std 0.3), so that a layer which starts too late shows. The
    error is the largest gap relative to the larger of 1 and the
    reference's largest entry, over the loss and each gradient."""
    worst = 0.0
    cfgs = [cfg for cfg in _configs(seed) if cfg.gswa]
    for i, cfg in enumerate(cfgs):
        params = init_parameters(cfg, seed + i, std=0.3)
        tokens = Rng(seed + i).fork("train-reach").integers(0, cfg.vocab, (2, 40))
        mask = np.zeros(tokens.shape, dtype=bool)
        mask[0, 24:32] = mask[1, 28:36] = True
        got = _loss_and_grads(params, lambda: scored_loss(params, tokens, mask))
        want = _loss_and_grads(
            params, lambda: cross_entropy_loss(forward(params, tokens), tokens, mask))
        worst = max([worst] + [float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))
                               for a, b in zip(got, want, strict=True)])
    return CheckResult("train_reach", worst, tol, worst <= tol,
                       f"loss and gradients on rows 24-35 of 40 over {len(cfgs)} "
                       f"gated-window wirings, std 0.3")


def check_causality(seed: int = 0) -> CheckResult:
    """Changing a token must not move any logit at an earlier position."""
    rng = Rng(seed).fork("causality")
    worst = 0.0
    cfgs = _configs(seed)
    for t in range(CAUSALITY_TRIALS):
        cfg = cfgs[t % len(cfgs)]
        params = init_parameters(cfg, seed + t)
        n = 10
        tokens = rng.integers(0, cfg.vocab, (n,))
        pos = int(rng.integers(1, n))
        bumped = tokens.copy()
        bumped[pos] = (bumped[pos] + 1 + rng.integers(0, cfg.vocab - 1)) % cfg.vocab
        arrays = params.arrays()
        a = forward(arrays, tokens)[0]
        b = forward(arrays, bumped)[0]
        worst = max(worst, float(np.max(np.abs(a[:pos] - b[:pos]))))
    return CheckResult("causality", worst, 0.0, worst == 0.0,
                       f"{CAUSALITY_TRIALS} random (model, position) perturbations")


def check_gate_limits(seed: int = 0) -> CheckResult:
    """A saturated gate must route exactly one attention path through."""
    from .attention import gate_values, gated_fuse
    from .tensor import Tensor

    worst = 0.0
    # primitive level, both limits: the fused output must equal the selected
    # path bit for bit
    rng = Rng(seed).fork("gate-limits")
    y_local = Tensor(rng.normal((2, 4, 5, 8)))
    y_global = Tensor(rng.normal((2, 4, 5, 8)))
    q = Tensor(rng.normal((2, 5, 16)))
    for sign, want in ((np.inf, y_local), (-np.inf, y_global)):
        g = gate_values(Tensor(np.zeros((16, 4))), Tensor(np.full(4, sign)), q)
        fused = gated_fuse(g, y_local, y_global)
        worst = max(worst, float(np.max(np.abs(fused.data - want.data))))

    # model level, closed gate: the whole network must reduce to the
    # sharing-only wiring
    cfg = ModelConfig(vocab=19, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
                      d_ff=32, loops=2, mode="plt", gswa=True, window=3, max_seq=32)
    tokens = Rng(seed).integers(0, cfg.vocab, (9,))
    params = init_parameters(cfg, seed)
    for layer in params.layers:
        layer.gate_weight.data[:] = 0.0
        layer.gate_bias.data[:] = -np.inf
    got = forward(params.arrays(), tokens)
    pp = init_parameters(variant_config(cfg, "loop_clp_kvshare"), seed)
    for name, t in pp.named_tensors().items():   # every tensor but the gates
        t.data = params.named_tensors()[name].data.copy()
    want = forward(pp.arrays(), tokens)
    worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult("gate_saturation", worst, 0.0, worst == 0.0,
                       "bias driven to -inf/+inf")


def check_cache_bounds(seed: int = 0) -> CheckResult:
    """Window rings must never hold more than `window` positions."""
    cfg = ModelConfig(vocab=19, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2,
                      d_ff=32, loops=3, mode="plt", gswa=True, window=4, max_seq=64)
    params = init_parameters(cfg, seed)
    sess = prefill(params, Rng(seed).integers(0, cfg.vocab, (6,)))
    overflow = 0
    for t in range(30):
        sess.step(t % cfg.vocab)
        counts = sess.kv_entry_count()   # every ring holds the same positions
        occ = counts["window"] / (cfg.n_layers * cfg.window_loops)
        overflow = max(overflow, occ - cfg.window)
    shared_err = abs(counts["shared"] / (cfg.n_layers * cfg.cache_loops) - sess.position)
    err = float(max(overflow, shared_err))
    return CheckResult("cache_bounds", err, 0.0, err == 0.0,
                       f"30 steps, window {cfg.window}")


def check_gradients(seed: int = 0) -> CheckResult:
    """Backprop through the full loss against central differences."""
    cfg = ModelConfig(vocab=13, d_model=16, n_layers=1, n_heads=4, n_kv_heads=2,
                      d_ff=24, loops=3, mode="plt", gswa=True, window=2, max_seq=16)
    params = init_parameters(cfg, seed)
    tokens = Rng(seed).integers(0, cfg.vocab, (1, 8))

    def loss_fn():
        return cross_entropy_loss(forward(params, tokens), tokens)

    res = grad_check(loss_fn, params.named_tensors(), max_coords=3, seed=seed)
    n = sum(r.n_checked for r in res.reports)
    return CheckResult("gradients", res.max_err, res.tol, res.passed,
                       f"{n} coordinates across {len(res.reports)} tensors")


def run_all(seed: int = 0, tolerance: float = 1e-9,
            include_grad: bool = True) -> list:
    """Run every check, one after another."""
    results = [
        check_teacher_forcing(seed, tolerance),
        check_prefill_reach(seed, tolerance),
        check_train_reach(seed, tolerance),
        check_causality(seed),
        check_gate_limits(seed),
        check_cache_bounds(seed),
    ]
    if include_grad:
        results.append(check_gradients(seed))
    return results
