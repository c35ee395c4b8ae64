"""Dense float64 tensors with reverse-mode automatic differentiation.

The whole model is built from the handful of differentiable kernels in this
module. Each op records a backward closure on the output tensor; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into every tensor that requires them. Ops accept
leading batch axes, so one graph covers a whole batch. Inside ``no_grad()``
ops record nothing, so an inference forward holds only its live values.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (DegenerateAxisError, DimensionError, LabelError,
                     OptimizerError)


class Tensor:
    """An n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def _accumulate(self, g: np.ndarray) -> None:
        # a constant (untracked, no parents) has no use for a gradient
        if not (self.requires_grad or self._parents):
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def backward(self) -> None:
        if self.values.size != 1:
            raise DimensionError(
                f"backward() needs a scalar, got shape {self.shape}")
        # iterative postorder; state 1 = expanded, 2 = emitted, so shared
        # subgraphs are emitted exactly once and always before any consumer
        topo: list[Tensor] = []
        state: dict[int, int] = {}
        stack: list[Tensor] = [self]
        while stack:
            node = stack[-1]
            st = state.get(id(node), 0)
            if st == 0:
                state[id(node)] = 1
                for p in node._parents:
                    if state.get(id(p), 0) == 0:
                        stack.append(p)
            else:
                stack.pop()
                if st == 1:
                    state[id(node)] = 2
                    topo.append(node)
        self._accumulate(np.ones_like(self.values))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- convenience operators; the real work lives in the module functions --
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward op."""
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


_grad_enabled = True


class no_grad:
    """Context manager: ops inside it build no graph (no parents, no
    backward closures). The previous mode is restored on exit, also when
    the block raises."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def _make(values: np.ndarray, parents: tuple, backward: Callable | None) -> Tensor:
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        return Tensor(values, _parents=parents, _backward=backward)
    return Tensor(values)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        values = a.values + b.values
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} "
                             "are not broadcastable") from None

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(values, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        values = a.values - b.values
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} "
                             "are not broadcastable") from None

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(-_unbroadcast(g, b.shape))

    return _make(values, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} "
                             "are not broadcastable") from None

    def backward(g):
        a._accumulate(_unbroadcast(g * b.values, a.shape))
        b._accumulate(_unbroadcast(g * a.values, b.shape))

    return _make(values, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Product over the last two axes; leading (batch) axes broadcast."""
    a, b = _coerce(a), _coerce(b)
    av, bv = a.values, b.values
    try:
        if av.ndim < 2 or bv.ndim < 2:
            raise ValueError
        values = np.matmul(av, bv)
    except ValueError:
        raise DimensionError(
            f"matmul: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        a._accumulate(_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
        b._accumulate(_unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    return _make(values, (a, b), backward)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes; ``None`` reverses them, as in numpy."""
    inverse = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        x._accumulate(np.transpose(g, inverse))
    return _make(np.transpose(x.values, axes), (x,), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    old = x.shape

    def backward(g):
        x._accumulate(g.reshape(old))
    return _make(x.values.reshape(shape), (x,), backward)


def index(x: Tensor, key) -> Tensor:
    """``x[key]`` for any numpy index; backward scatter-adds into the picks."""
    def backward(g):
        full = np.zeros_like(x.values)
        np.add.at(full, key, g)
        x._accumulate(full)
    return _make(x.values[key], (x,), backward)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table by an id array of any shape -> ids.shape +
    [width]; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(
            f"take_rows: index out of range for table with {table.shape[0]} rows")

    def backward(g):
        full = np.zeros_like(table.values)
        np.add.at(full, idx, g)
        table._accumulate(full)
    return _make(table.values[idx], (table,), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        x._accumulate(np.full_like(x.values, float(g)))
    return _make(np.asarray(x.values.sum()), (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size

    def backward(g):
        x._accumulate(np.full_like(x.values, float(g) / n))
    return _make(np.asarray(x.values.mean()), (x,), backward)


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969): erf on |x| <= 0.46875, erfc on (0.46875, 4] and
# on (4, inf), as in the CALERF routine
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _ratio(num, den, z, head):
    """Cody's rational function of ``z`` in CALERF's Horner order:
    ``num[-1]`` leads, ``num[head]`` and ``den[head]`` are the constant
    terms, and the denominator's leading coefficient is 1."""
    xnum, xden = num[-1] * z, z
    for i in range(head):
        xnum = (xnum + num[i]) * z
        xden = (xden + den[i]) * z
    return (xnum + num[head]) / (xden + den[head])


def _exp_neg_sq(y):
    """exp(-y*y) without the rounding error of forming y*y directly."""
    ysq = np.trunc(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def _erf(x) -> np.ndarray:
    """Elementwise float64 error function (not differentiable; an array op)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    big = ~(small | mid)   # also NaN, which propagates
    xs = x[small]
    z = xs * xs
    out[small] = xs * _ratio(_ERF_A, _ERF_B, z, 3)
    ym = y[mid]
    erfc_mid = _exp_neg_sq(ym) * _ratio(_ERFC_C, _ERFC_D, ym, 7)
    # erfc underflows to 0 past ~26.5; the clip keeps inf finite
    yb = np.minimum(y[big], 30.0)
    zb = 1.0 / (yb * yb)
    erfc_big = _exp_neg_sq(yb) * (
        (_INV_SQRT_PI - zb * _ratio(_ERFC_P, _ERFC_Q, zb, 4)) / yb)
    out[mid] = np.copysign((0.5 - erfc_mid) + 0.5, x[mid])
    out[big] = np.copysign((0.5 - erfc_big) + 0.5, x[big])
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt 2))."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    e = _erf(x.values * inv_sqrt2)
    values = 0.5 * x.values * (1.0 + e)

    def backward(g):
        pdf = np.exp(-0.5 * x.values ** 2) / math.sqrt(2.0 * math.pi)
        x._accumulate(g * (0.5 * (1.0 + e) + x.values * pdf))
    return _make(values, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)

    def backward(g):
        x._accumulate(g * (1.0 - t * t))
    return _make(t, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``; other axes are batch."""
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (g - dot))
    return _make(y, (x,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
              axis: int = -1) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then scale+shift.

    Other axes are batch axes; ``gain`` and ``bias`` broadcast over them."""
    n = x.shape[axis]
    if n < 2:
        raise DegenerateAxisError(
            f"layernorm: axis length {n} cannot be normalized")
    gain, bias = _coerce(gain), _coerce(bias)
    mu = x.values.mean(axis=axis, keepdims=True)
    xc = x.values - mu
    var = (xc ** 2).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    values = xhat * gain.values + bias.values

    def backward(g):
        gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        bias._accumulate(_unbroadcast(g, bias.shape))
        gx = g * gain.values
        x._accumulate(inv * (gx
                             - gx.mean(axis=axis, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=axis, keepdims=True)))
    return _make(values, (x, gain, bias), backward)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of the squared difference.

    ``target`` never receives gradient, matching its role as a fixed
    reconstruction target.
    """
    target = _coerce(target)
    if pred.shape != target.shape:
        raise DimensionError(
            f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.values - target.values
    n = diff.size

    def backward(g):
        pred._accumulate(float(g) * 2.0 * diff / n)
    return _make(np.asarray((diff ** 2).mean()), (pred,), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    ``logits`` is [..., C] and ``labels`` has its leading shape; the mean
    runs over every row. Uses a fused log-sum-exp for stability.
    """
    if logits.values.ndim < 2:
        raise DimensionError(
            f"cross_entropy: expected [..., C] logits, got {logits.shape}")
    c = logits.shape[-1]
    idx = np.asarray(labels, dtype=np.int64)
    if idx.shape != logits.shape[:-1]:
        raise DimensionError(
            f"cross_entropy: {logits.shape[:-1]} rows but {idx.shape} labels")
    if idx.size and (idx.min() < 0 or idx.max() >= c):
        raise LabelError(f"cross_entropy: label out of range [0, {c})")
    z = logits.values.reshape(-1, c)
    idx = idx.reshape(-1)
    n = idx.size
    rows = np.arange(n)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    nll = lse - z[rows, idx]
    probs = np.exp(z - lse[:, None])

    def backward(g):
        grad = probs.copy()
        grad[rows, idx] -= 1.0
        logits._accumulate((float(g) * grad / n).reshape(logits.shape))
    return _make(np.asarray(nll.mean()), (logits,), backward)


class Adam:
    """Adam with bias correction and decoupled weight decay.

    ``step()`` consumes the accumulated gradients and zeroes them.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise OptimizerError(
                f"step() with unpopulated gradients (params {missing})")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.values
            p.values -= self.lr * update
            p.grad = None


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: Sequence[Tensor],
                            h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the graph from ``params`` on every call.
    """
    loss = loss_fn()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                hi = float(loss_fn().values)
                flat[i] = orig - h
                lo = float(loss_fn().values)
            flat[i] = orig
            num = (hi - lo) / (2.0 * h)
            a = ana.reshape(-1)[i]
            # floor the denominator so double-precision FD noise on near-zero
            # gradients does not register as relative error
            scale = max(abs(num), abs(a), 1e-5)
            worst = max(worst, abs(num - a) / scale)
    return worst
