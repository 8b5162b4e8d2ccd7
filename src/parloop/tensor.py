"""Dense tensors with tape-based reverse-mode differentiation.

The op set is sized for a small transformer: batched matmul, broadcasting
elementwise arithmetic, reductions, shape ops, gather/embedding, and fused
rmsnorm / sigmoid / silu / cross-entropy ops. Data is float64 (the
reference precision). Tensors are immutable after construction. Gradients
are bound, never written in place: the first gradient a tensor receives
becomes its ``.grad`` as is (possibly a view, or an array another tensor
also holds), and each later one rebinds ``.grad`` to a new sum. Code that
scales a gradient must assign a new array.

Every op builds its output through ``node`` from its forward value, parents
and backward closure; ``node`` alone decides whether a tape node is recorded
(``needs_grad`` is the one reader of grad mode outside ``no_grad``).

The ops also take plain ndarrays: given no Tensor they return the plain
array of their forward formula and record nothing, so one model body runs
on the tape in training and on bare arrays in prefill and decode, with the
same arithmetic.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import zlib

import numpy as np

from .errors import ConfigError, DimensionError, EmptyInputError, NumericError

_GRAD_ENABLED = True
NORM_EPS = 1e-6   # added to rmsnorm's mean square


def is_int(x) -> bool:
    """An integer that is not a bool (``True`` would index as a mask)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def needs_grad(*parents) -> bool:
    """Whether an op on ``parents`` records a tape node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def node(data, parents: tuple, backward) -> Tensor:
    """An op's output: a tape node when ``needs_grad(*parents)``, else a plain tensor."""
    if needs_grad(*parents):
        return Tensor(data, True, parents, backward)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Tensor:
    """N-d float array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar, setting .grad on every tensor it
        reaches. Gradients are bound and rebound (see the module docstring),
        never written in place: treat .grad as read-only."""
        if self.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def _accum(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    # -- elementwise arithmetic ---------------------------------------

    def __add__(self, other):
        return _ew(self, other, lambda a, b: a + b,
                   lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _ew(self, other, lambda a, b: a - b,
                   lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return _ew(self, other, lambda a, b: b - a,
                   lambda g, a, b: -g, lambda g, a, b: g)

    def __mul__(self, other):
        return _ew(self, other, lambda a, b: a * b,
                   lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        return self * (1.0 / float(other))

    def __neg__(self):
        return node(-self.data, (self,), lambda g: self._accum(-g))

    # -- linear algebra -------------------------------------------------

    def __matmul__(self, w: "Tensor") -> "Tensor":
        """Batched matrix product over the last two axes; leading dims broadcast."""
        if self.ndim < 2 or w.ndim < 2:
            raise DimensionError("matmul operands must have ndim >= 2")
        if self.shape[-1] != w.shape[-2]:
            raise DimensionError(f"matmul inner extents differ: {self.shape} @ {w.shape}")

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(np.matmul(g, w.data.swapaxes(-1, -2)), self.shape))
            if w.requires_grad and w.size == w.shape[-2] * w.shape[-1]:
                # a weight ([k, m], or [1, k, m] broadcast): one GEMM over every
                # leading row; np.matmul would form one product per batch entry
                # and then sum them
                rows = self.data.reshape(-1, self.shape[-1])
                w._accum((rows.T @ g.reshape(-1, g.shape[-1])).reshape(w.shape))
            elif w.requires_grad:
                w._accum(_unbroadcast(np.matmul(self.data.swapaxes(-1, -2), g), w.shape))

        return node(np.matmul(self.data, w.data), (self, w), bwd)

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return node(self.data.reshape(shape), (self,),
                    lambda g: self._accum(g.reshape(self.shape)))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return node(self.data.swapaxes(a, b), (self,), lambda g: self._accum(g.swapaxes(a, b)))

    def __getitem__(self, idx) -> "Tensor":
        def bwd(g):
            buf = np.zeros(self.shape, dtype=g.dtype)
            if all(i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))
                   for i in (idx if isinstance(idx, tuple) else (idx,))):
                buf[idx] = g  # a basic index names each element at most once
            else:
                np.add.at(buf, idx, g)
            self._accum(buf)

        return node(self.data[idx], (self,), bwd)

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis if isinstance(axis, tuple) else (axis,))
            self._accum(np.broadcast_to(g, self.shape))

        return node(self.data.sum(axis=axis, keepdims=keepdims), (self,), bwd)


def _ew(a: Tensor, b, fwd, bwd_a, bwd_b) -> Tensor:
    """Broadcasting elementwise binary op; b may be a scalar or ndarray constant."""
    bt = b if isinstance(b, Tensor) else None
    bd = bt.data if bt is not None else np.asarray(b, dtype=a.data.dtype)

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(bwd_a(g, a.data, bd), a.shape))
        if bt is not None and bt.requires_grad:
            bt._accum(_unbroadcast(bwd_b(g, a.data, bd), bt.shape))

    return node(fwd(a.data, bd), (a,) if bt is None else (a, bt), bwd)


def _toposort(root: Tensor) -> list:
    """Iterative post-order over the tape."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        t, done = stack.pop()
        if done:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if p is not None and p._backward is not None and id(p) not in seen:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not isinstance(tensors[0], Tensor):
        return np.concatenate(tensors, axis=axis)

    def bwd(g):
        pieces = np.split(g, np.cumsum([t.shape[axis] for t in tensors])[:-1], axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)) without overflow; saturates to exactly 0 and 1."""
    plain = not isinstance(x, Tensor)
    xd = x if plain else x.data
    e = np.exp(-np.abs(xd))
    s = np.where(xd >= 0, 1.0, e) / (1.0 + e)
    if plain:
        return s
    return node(s, (x,), lambda g: x._accum(g * s * (1.0 - s)))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) with a single exp (it need not saturate exactly)."""
    plain = not isinstance(x, Tensor)
    xd = x if plain else x.data
    y = np.negative(xd)   # xd / (1 + exp(-xd)), built in one buffer
    np.exp(y, out=y)
    y += 1.0
    np.divide(xd, y, out=y)
    if plain:
        return y

    def bwd(g):
        # sigmoid(x) is silu(x) / x, and 1/2 at x = 0
        s = np.divide(y, xd, out=np.full_like(xd, 0.5), where=xd != 0)
        x._accum(g * (s + y * (1.0 - s)))

    return node(y, (x,), bwd)


def _inv_rms(x: np.ndarray) -> np.ndarray:
    # the mean as sum / d: the same arithmetic as .mean(), without its Python wrapper
    ms = (x * x).sum(axis=-1, keepdims=True) / x.shape[-1]
    if not ms.max() < math.inf:   # NaN fails the comparison too
        raise NumericError("rmsnorm input has a non-finite mean square (NaN or overflow)")
    return 1.0 / np.sqrt(ms + NORM_EPS)


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x^2, last) + NORM_EPS) * gain."""
    plain = not isinstance(x, Tensor)
    xd, gd = (x, gain) if plain else (x.data, gain.data)
    if gd.shape != xd.shape[-1:]:
        raise DimensionError(f"rmsnorm gain shape {gd.shape} != ({xd.shape[-1]},)")
    y = xd * _inv_rms(xd)
    y *= gd
    if plain:
        return y
    d = xd.shape[-1]

    def bwd(g):
        inv = _inv_rms(xd)
        if gain.requires_grad:
            gain._accum((g * xd * inv).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gw = g * gain.data
            dot = (gw * xd).sum(axis=-1, keepdims=True)
            x._accum(gw * inv - xd * (inv ** 3) * dot / d)

    return node(y, (x, gain), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer ids (any leading shape)."""
    ids = np.asarray(ids)
    if not isinstance(table, Tensor):
        return table[ids]

    def bwd(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        table._accum(buf)

    return node(table.data[ids], (table,), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood of `targets` under row-softmax of logits.

    logits: [..., V]; targets: integer array matching the leading shape;
    mask: optional boolean array over the leading shape selecting the rows
    that contribute to the mean.
    """
    targets = np.asarray(targets)
    lead = logits.shape[:-1]
    if targets.shape != lead:
        raise DimensionError(f"targets shape {targets.shape} != {lead}")
    if mask is None:
        mask = np.ones(lead, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise EmptyInputError("cross_entropy: every position is masked out")
    ld = logits.data
    m = ld.max(axis=-1, keepdims=True)
    e = np.exp(ld - m)
    z = e.sum(axis=-1, keepdims=True)
    logz = np.log(z) + m
    picked = np.take_along_axis(ld, targets[..., None], axis=-1)[..., 0]
    nll = (logz[..., 0] - picked)
    loss = float((nll * mask).sum() / count)

    def bwd(g):
        onehot_sub = e / z
        np.put_along_axis(
            onehot_sub,
            targets[..., None],
            np.take_along_axis(onehot_sub, targets[..., None], axis=-1) - 1.0,
            axis=-1,
        )
        w = (mask / count)[..., None]
        logits._accum(g * onehot_sub * w)

    return node(loss, (logits,), bwd)


def global_grad_norm(tensors) -> float:
    sq = 0.0
    for t in tensors:
        if t.grad is not None:
            sq += float((t.grad * t.grad).sum())
    return math.sqrt(sq)


# ---------------------------------------------------------------------------
# deterministic rng
# ---------------------------------------------------------------------------


class Rng:
    """Seed-derived random stream; identical seeds give identical draws."""

    def __init__(self, seed: int):
        if not is_int(seed) or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def random(self) -> float:
        return float(self._gen.random())

    def fork(self, tag: str) -> "Rng":
        """Independent child stream, stable in `tag`."""
        return Rng((self.seed * 0x9E3779B1 + zlib.crc32(tag.encode())) % (2 ** 63))
