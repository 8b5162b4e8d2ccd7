"""Numerics core: every differentiable op is checked against central
differences computed directly on numpy arrays, independent of the tape."""

import numpy as np
import pytest

import parloop.tensor
from parloop.attention import apply_rope, attention, build_rope_tables
from parloop.errors import DimensionError, EmptyInputError, NumericError
from parloop.gradcheck import grad_check
from parloop.tensor import (
    Rng,
    Tensor,
    _inv_rms,
    concat,
    cross_entropy,
    embedding,
    no_grad,
    rmsnorm,
    sigmoid,
    silu,
)


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar-valued fn at x, coordinate by coordinate."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        step = h * max(1.0, abs(orig))
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def rel(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestElementwise:
    def test_add_broadcast_grads(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        ((a + b) * (a + b)).sum().backward()
        ga = numeric_grad(lambda x: float(((x + b.data) ** 2).sum()), a.data.copy())
        gb = numeric_grad(lambda x: float(((a.data + x) ** 2).sum()), b.data.copy())
        assert rel(a.grad, ga) < 1e-6
        assert rel(b.grad, gb) < 1e-6

    def test_mul_sub_neg_scalar_div(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = ((a * b - a) / 2.0 + (-b) * 0.5 + 3.0).sum()
        out.backward()
        def f(x, y):
            return float(((x * y - x) / 2.0 - y * 0.5 + 3.0).sum())
        ga = numeric_grad(lambda x: f(x, b.data), a.data.copy())
        gb = numeric_grad(lambda y: f(a.data, y), b.data.copy())
        assert rel(a.grad, ga) < 1e-6
        assert rel(b.grad, gb) < 1e-6

    def test_rsub_radd(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (1.0 - a).sum().backward()
        assert np.allclose(a.grad, -1.0)
        a.grad = None
        (1.0 + a).sum().backward()
        assert np.allclose(a.grad, 1.0)


class TestMatmul:
    def test_grads_against_central_differences(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        ((a @ b) * (a @ b)).sum().backward()
        ga = numeric_grad(lambda x: float(((x @ b.data) ** 2).sum()), a.data.copy())
        gb = numeric_grad(lambda y: float(((a.data @ y) ** 2).sum()), b.data.copy())
        assert rel(a.grad, ga) < 1e-6
        assert rel(b.grad, gb) < 1e-6

    def test_batched_with_broadcast_weight(self, rng):
        for x_shape, w_shape, tied in (
                ((2, 3, 4, 5), (5, 6), False),
                ((32, 17, 64), (64, 128), False),  # a training-step projection
                ((4, 7, 8), (8, 11), True)):       # the tied head: a transposed table
            self.check_weight_grad(rng, x_shape, w_shape, tied)

    @staticmethod
    def check_weight_grad(rng, x_shape, w_shape, tied):
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        if tied:
            table = Tensor(rng.normal(size=w_shape[::-1]), requires_grad=True)
            w = table.swapaxes(-1, -2)
            assert not w.data.flags.c_contiguous
        else:
            table = w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        u = rng.normal(size=x_shape[:-1] + w_shape[-1:])
        ((x @ w) * u).sum().backward()
        # the batched outer products, summed over the leading axes; the two
        # sum the same products in another order, so the error is measured
        # against the gradient's largest entry
        lead = tuple(range(len(x_shape) - 2))
        want_w = np.matmul(x.data.swapaxes(-1, -2), u).sum(axis=lead)
        assert np.abs(w.grad - want_w).max() < 1e-12 * np.abs(want_w).max()
        assert np.array_equal(table.grad, w.grad.T if tied else w.grad)
        # central differences on (at most) 40 coordinates of each operand; the
        # loss is linear in each, so a unit step adds no truncation error
        for t, grad, loss in (
                (x, x.grad, lambda v: float(((v @ w.data) * u).sum())),
                (table, table.grad, lambda v: float(((x.data @ (v.T if tied else v)) * u).sum()))):
            for i in rng.choice(t.size, size=min(40, t.size), replace=False):
                e = np.zeros(t.size)
                e[i] = 1.0
                e = e.reshape(t.shape)
                fd = (loss(t.data + e) - loss(t.data - e)) / 2.0
                assert rel(grad.reshape(-1)[i], fd) < 1e-6

    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (3, 4), (3, 1, 3, 4)])
    def test_batched_right_operand(self, x_shape, rng):
        # a right operand with its own batch axis, against which the left one broadcasts
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        u = rng.normal(size=np.broadcast_shapes(x_shape[:-2], (2,)) + (3, 5))
        ((x @ w) * u).sum().backward()
        gx = numeric_grad(lambda v: float(((v @ w.data) * u).sum()), x.data.copy())
        gw = numeric_grad(lambda v: float(((x.data @ v) * u).sum()), w.data.copy())
        assert rel(x.grad, gx) < 1e-6
        assert rel(w.grad, gw) < 1e-6

    def test_inner_extent_mismatch_raises(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))

    def test_one_dimensional_operand_raises(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros(3))


class TestShapes:
    def test_reshape_swapaxes_getitem(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = x.reshape(6, 4).swapaxes(0, 1)[1:3]
        (y * y).sum().backward()
        def f(v):
            t = v.reshape(6, 4).swapaxes(0, 1)[1:3]
            return float((t * t).sum())
        g = numeric_grad(f, x.data.copy())
        assert rel(x.grad, g) < 1e-6

    def test_basic_slice_backward_equals_add_at(self, rng):
        h = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        u = rng.normal(size=(3, 4, 4))
        (h[:, :-1, :] * u).sum().backward()
        want = np.zeros(h.shape)
        np.add.at(want, (slice(None), slice(None, -1), slice(None)), u)
        assert np.array_equal(h.grad, want)

    def test_mixed_index_accumulates_repeats(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        u = rng.normal(size=(2, 4, 4))
        (x[:, np.array([2, 0, 2, 2]), :] * u).sum().backward()
        want = np.zeros(x.shape)
        want[:, 2] = u[:, 0] + u[:, 2] + u[:, 3]
        want[:, 0] = u[:, 1]
        assert np.allclose(x.grad, want, rtol=0, atol=1e-15)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        assert np.allclose(x.grad, [2.0, 0.0, 1.0])

    def test_concat_splits_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        c = concat([a, b], axis=0)
        (c[1:5] * c[1:5]).sum().backward()
        def f(av, bv):
            t = np.concatenate([av, bv], axis=0)[1:5]
            return float((t * t).sum())
        ga = numeric_grad(lambda v: f(v, b.data), a.data.copy())
        gb = numeric_grad(lambda v: f(a.data, v), b.data.copy())
        assert rel(a.grad, ga) < 1e-6
        assert rel(b.grad, gb) < 1e-6

    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        (x.sum(axis=1) * 2.0).sum().backward()
        assert np.allclose(x.grad, 2.0)
        x.grad = None
        (x.sum(axis=(0, 2), keepdims=True) * (1 / 15)).sum().backward()
        assert np.allclose(x.grad, 1.0 / 15.0)


class TestActivations:
    def test_sigmoid_matches_and_saturates_exactly(self, rng):
        x = Tensor(rng.normal(size=(10,)) * 3, requires_grad=True)
        sigmoid(x).sum().backward()
        g = numeric_grad(lambda v: float((1 / (1 + np.exp(-v))).sum()), x.data.copy())
        assert rel(x.grad, g) < 1e-6
        big = sigmoid(Tensor(np.array([-np.inf, np.inf, -1e4, 1e4])))
        assert big.data[0] == 0.0 and big.data[1] == 1.0
        assert big.data[2] == 0.0 and big.data[3] == 1.0
        assert np.array_equal(sigmoid(x).data, sigmoid(x.data))   # the plain-array path

    def test_silu_grad(self, rng):
        x = Tensor(rng.normal(size=(7,)), requires_grad=True)
        (silu(x) * silu(x)).sum().backward()
        def f(v):
            s = v / (1 + np.exp(-v))
            return float((s * s).sum())
        assert rel(x.grad, numeric_grad(f, x.data.copy())) < 1e-6
        assert np.array_equal(silu(x).data, silu(x.data))

    def test_silu_is_bitwise_the_written_out_formula(self, rng):
        x = rng.normal(size=(3, 5, 8)) * 4
        want = x / (1.0 + np.exp(-x))
        assert np.array_equal(silu(x), want)
        assert np.array_equal(silu(Tensor(x, requires_grad=True)).data, want)


class TestRmsnorm:
    def test_forward_matches_definition(self, rng):
        x = rng.normal(size=(2, 4, 8))
        gain = rng.normal(size=(8,))
        y = rmsnorm(Tensor(x), Tensor(gain))
        want = x / np.sqrt((x ** 2).mean(axis=-1, keepdims=True) + 1e-6) * gain
        assert np.allclose(y.data, want, atol=1e-12)
        assert np.array_equal(y.data, rmsnorm(x, gain))

    def test_forward_is_bitwise_the_written_out_formula(self, rng):
        x = rng.normal(size=(3, 5, 8))
        gain = rng.normal(size=(8,))
        want = x * (1.0 / np.sqrt((x * x).sum(axis=-1, keepdims=True) / 8 + 1e-6)) * gain
        assert np.array_equal(rmsnorm(x, gain), want)
        y = rmsnorm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True))
        assert np.array_equal(y.data, want)

    def test_grads_against_central_differences(self, rng):
        xv = rng.normal(size=(3, 6))
        gv = rng.normal(size=(6,))
        x = Tensor(xv, requires_grad=True)
        gain = Tensor(gv, requires_grad=True)
        w = rng.normal(size=(3, 6))
        (rmsnorm(x, gain) * w).sum().backward()
        def f(xx, gg):
            y = xx / np.sqrt((xx ** 2).mean(axis=-1, keepdims=True) + 1e-6) * gg
            return float((y * w).sum())
        assert rel(x.grad, numeric_grad(lambda v: f(v, gv), xv.copy())) < 1e-5
        assert rel(gain.grad, numeric_grad(lambda v: f(xv, v), gv.copy())) < 1e-5

    def test_backward_reuses_the_forward_inverse_rms(self, rng, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return _inv_rms(x)

        monkeypatch.setattr(parloop.tensor, "_inv_rms", counted)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=(6,)), requires_grad=True)
        rmsnorm(x, gain).sum().backward()
        assert calls == [(3, 6)]

    def test_gain_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            rmsnorm(Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
    def test_non_finite_mean_square_raises(self, rng, bad):
        x = rng.normal(size=(3, 8))
        x[1, 2] = bad
        with pytest.raises(NumericError):
            rmsnorm(x, np.ones(8))
        with pytest.raises(NumericError):
            rmsnorm(Tensor(x), Tensor(np.ones(8)))
        x[1, 2] = 1e150   # squares stay finite: a normal result
        assert np.isfinite(rmsnorm(x, np.ones(8))).all()


class TestEmbeddingAndGather:
    def test_repeated_ids_accumulate(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        ids = np.array([[1, 1], [3, 0]])
        out = embedding(table, ids)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        want = np.zeros((4, 3))
        want[1] = 2.0
        want[3] = 1.0
        want[0] = 1.0
        assert np.allclose(table.grad, want)


class TestCrossEntropy:
    def test_matches_logsumexp_oracle(self, rng):
        logits = rng.normal(size=(2, 5, 7))
        targets = rng.integers(0, 7, size=(2, 5))
        loss = cross_entropy(Tensor(logits), targets)
        m = logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
        picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
        want = float((logz - picked).mean())
        assert abs(loss.item() - want) < 1e-12

    def test_uniform_logits_give_log_vocab(self):
        v = 13
        loss = cross_entropy(Tensor(np.zeros((3, v))), np.array([0, 5, 12]))
        assert abs(loss.item() - np.log(v)) < 1e-12

    def test_mask_selects_rows(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        mask = np.array([True, False, True, False])
        loss = cross_entropy(Tensor(logits), targets, mask)
        m = logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
        picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
        want = float((logz - picked)[mask].mean())
        assert abs(loss.item() - want) < 1e-12

    def test_all_masked_raises(self):
        with pytest.raises(EmptyInputError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]),
                          np.array([False, False]))

    def test_target_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_grad_against_central_differences(self, rng):
        logits_v = rng.normal(size=(3, 4, 5))
        targets = rng.integers(0, 5, size=(3, 4))
        mask = rng.random(size=(3, 4)) > 0.3
        logits = Tensor(logits_v, requires_grad=True)
        cross_entropy(logits, targets, mask).backward()
        def f(v):
            m = v.max(axis=-1, keepdims=True)
            logz = np.log(np.exp(v - m).sum(axis=-1)) + m[..., 0]
            picked = np.take_along_axis(v, targets[..., None], axis=-1)[..., 0]
            return float((logz - picked)[mask].mean())
        assert rel(logits.grad, numeric_grad(f, logits_v.copy())) < 1e-6


# (id, input shapes, op): every tape op, for the tape-recording tests
TAPE_OPS = [
    ("neg", [(2, 3)], lambda x: -x),
    ("reshape", [(2, 3)], lambda x: x.reshape(3, 2)),
    ("swapaxes", [(2, 3)], lambda x: x.swapaxes(0, 1)),
    ("getitem-basic", [(2, 3)], lambda x: x[1, :2]),
    ("getitem-fancy", [(2, 3)], lambda x: x[np.array([0, 0, 1])]),
    ("sum", [(2, 3)], lambda x: x.sum(axis=0)),
    ("add", [(2, 3), (3,)], lambda a, b: a + b),
    ("sub", [(2, 3), (2, 3)], lambda a, b: a - b),
    ("rsub-scalar", [(2, 3)], lambda a: 1.0 - a),
    ("mul", [(2, 3), (2, 3)], lambda a, b: a * b),
    ("matmul", [(2, 3), (3, 4)], lambda a, b: a @ b),
    ("concat", [(2, 3), (1, 3)], lambda a, b: concat([a, b])),
    ("sigmoid", [(2, 3)], sigmoid),
    ("silu", [(2, 3)], silu),
    ("rmsnorm", [(2, 3), (3,)], rmsnorm),
    ("embedding", [(5, 3)], lambda t: embedding(t, np.array([[0, 4], [4, 1]]))),
    ("cross_entropy", [(2, 5)], lambda z: cross_entropy(z, np.array([1, 3]))),
    ("apply_rope", [(1, 2, 4)],
     lambda x: apply_rope(x, np.array([0, 3]), build_rope_tables(8, 4))),
    ("attention", [(1, 2, 3, 4), (1, 1, 3, 4), (1, 1, 3, 4)],
     lambda q, k, v: attention(q, k, v, np.arange(3))),
]


class TestTapeMechanics:
    @pytest.mark.parametrize("shapes, op", [c[1:] for c in TAPE_OPS if c[0] != "cross_entropy"],
                             ids=[c[0] for c in TAPE_OPS if c[0] != "cross_entropy"])
    def test_plain_arrays_give_the_same_plain_array(self, shapes, op, rng):
        # the model body runs these ops on the weights' arrays in prefill and
        # decode; the loss is the one op that only training calls
        data = [rng.normal(size=s) for s in shapes]
        out = op(*data)
        assert type(out) is np.ndarray
        assert np.array_equal(out, op(*(Tensor(d) for d in data)).data)

    @pytest.mark.parametrize("shapes, op", [c[1:] for c in TAPE_OPS],
                             ids=[c[0] for c in TAPE_OPS])
    def test_no_grad_builds_no_tape(self, shapes, op, rng):
        data = [rng.normal(size=s) for s in shapes]

        def call(requires):
            inputs = [Tensor(d, requires_grad=r) for d, r in zip(data, requires)]
            return inputs, op(*inputs)

        with no_grad():
            _, under_no_grad = call([True] * len(data))
        _, no_leaf = call([False] * len(data))
        for out in (under_no_grad, no_leaf):
            assert out._parents == () and out._backward is None
            assert not out.requires_grad
        for i in range(len(data)):   # one input requiring grad records every parent
            inputs, out = call([j == i for j in range(len(data))])
            assert out.requires_grad and out._backward is not None
            assert len(out._parents) == len(inputs)
            assert all(p is t for p, t in zip(out._parents, inputs))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            (x * 2.0).backward()

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        (y * y).sum().backward()
        assert np.allclose(x.grad, 2 * 3.0 * 3.0 * 2.0)

    def test_shared_and_viewed_gradients(self, rng):
        # x + x and a leaf reached through reshape / swapaxes views: grads
        # are bound as views or shared arrays, and each path must still count
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c = rng.normal(size=(3, 2))
        a = x.reshape(3, 2).swapaxes(0, 1).swapaxes(0, 1)
        ((a * c).sum() + (x + x).reshape(6).sum() + x.swapaxes(0, 1).sum()).backward()
        assert np.allclose(x.grad, c.reshape(2, 3) + 3.0, rtol=0, atol=1e-15)

    def test_reused_node_in_two_branches(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        out = (a + a * a).sum()
        out.backward()
        assert np.allclose(x.grad, 2.0 + 2 * 2.0 * x.data[0] * 2.0)


class TestGradCheckHarness:
    def test_quadratic_is_exact_to_fd_accuracy(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        res = grad_check(lambda: (p * p).sum(), {"p": p})
        assert res.passed
        assert res.max_err < 1e-9

    def test_zero_gradient_uses_absolute_fallback(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        res = grad_check(lambda: (p * p).sum(), {"p": p})
        assert res.passed  # analytic = numeric = 0, absolute comparison

    def test_detects_a_wrong_gradient(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def bad_loss():
            out = Tensor((p.data * p.data).sum(), requires_grad=True)
            out._parents = (p,)
            out._backward = lambda g: p._accum(g * 3.0 * p.data)  # true factor is 2
            return out

        res = grad_check(bad_loss, {"p": p})
        assert not res.passed
        assert "FAIL" in res.summary()

    def test_subset_of_coordinates(self):
        p = Tensor(np.linspace(0.1, 1.0, 50), requires_grad=True)
        res = grad_check(lambda: (p * p * p).sum(), {"p": p}, max_coords=10)
        assert res.reports[0].n_checked == 10
        assert res.passed


class TestRng:
    def test_same_seed_bit_identical(self):
        a = Rng(123).normal((4, 4))
        b = Rng(123).normal((4, 4))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal((8,)), Rng(2).normal((8,)))

    def test_fork_is_stable_and_independent(self):
        r = Rng(5)
        a = r.fork("weights").normal((3,))
        b = Rng(5).fork("weights").normal((3,))
        c = Rng(5).fork("data").normal((3,))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
