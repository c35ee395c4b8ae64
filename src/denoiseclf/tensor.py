"""Dense float64 tensors with reverse-mode automatic differentiation.

The whole model is built from the handful of differentiable kernels in this
module. Each op hands ``_make`` its output values plus, per operand, the
vector-Jacobian product (VJP) that maps the output's gradient to that
operand's. ``_make`` keeps only tracked operands, so constants never enter
the graph. Calling ``backward()`` on a scalar walks the graph in reverse
topological order, calls each VJP and accumulates the result: the engine
is the one place that routes gradients. Ops accept leading batch axes, so
one graph covers a whole batch. Inside ``no_grad()`` ops record nothing, so
an inference forward holds only its live values.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (DegenerateAxisError, DimensionError, LabelError,
                     NonFiniteError, OptimizerError)


class Tensor:
    """An n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjps",
                 "_owns_grad")

    def __init__(self, values, requires_grad: bool = False,
                 _parents: tuple = (), _vjps: tuple = ()):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjps = _vjps
        self._owns_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def _accumulate(self, g: np.ndarray) -> None:
        """Add one gradient contribution. The first is kept as it is when
        it already has the layout a fresh buffer would have (same shape,
        both C-contiguous), so the next matmul sees the same strides; any
        other first contribution lands in a ``zeros_like`` buffer. A kept
        array may be shared (``add`` hands one ``g`` to both operands), so
        a later contribution is never written into it in place."""
        if self.grad is None:
            if (g.shape == self.values.shape and g.flags.c_contiguous
                    and self.values.flags.c_contiguous):
                self.grad, self._owns_grad = g, False
                return
            self.grad, self._owns_grad = np.zeros_like(self.values), True
        elif not self._owns_grad:
            self.grad, self._owns_grad = self.grad.copy(), True
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
            for parent, vjp in zip(node._parents, node._vjps):
                parent._accumulate(vjp(node.grad))

    # -- convenience operators; the real work lives in the module functions --
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


_grad_enabled = True


class no_grad:
    """Context manager: ops inside it build no graph (no parents, no
    VJPs). The previous mode is restored on exit, also when the block
    raises."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def _make(values: np.ndarray, *edges: tuple[Tensor, Callable]) -> Tensor:
    """An op's output from its values and one ``(operand, vjp)`` pair per
    differentiable operand. Only tracked operands, parameters and op outputs
    built from them, become ``_parents`` (with their VJPs in ``_vjps``):
    backward never visits a constant. With none, or inside ``no_grad``, the
    output is itself a constant."""
    if _grad_enabled:
        kept = [e for e in edges if e[0].requires_grad or e[0]._parents]
        if kept:
            parents, vjps = zip(*kept)
            return Tensor(values, _parents=parents, _vjps=vjps)
    return Tensor(values)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        values = a.values + b.values
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} "
                             "are not broadcastable") from None
    return _make(values, (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} "
                             "are not broadcastable") from None
    return _make(values, (a, lambda g: _unbroadcast(g * b.values, a.shape)),
                 (b, lambda g: _unbroadcast(g * a.values, b.shape)))


def _product(a: Tensor, b: Tensor, op: str):
    """The product over the last two axes and the edges of both factors."""
    av, bv = a.values, b.values
    try:
        if av.ndim < 2 or bv.ndim < 2:
            raise ValueError
        values = np.matmul(av, bv)
    except ValueError:
        raise DimensionError(
            f"{op}: incompatible shapes {a.shape} and {b.shape}") from None
    return values, (
        (a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)))


def matmul(a, b) -> Tensor:
    """Product over the last two axes; leading (batch) axes broadcast."""
    values, edges = _product(_coerce(a), _coerce(b), "matmul")
    return _make(values, *edges)


def affine(a, b, bias) -> Tensor:
    """``matmul(a, b) + bias`` as one op: the bias is added into the
    product in place and must broadcast to the product's shape. The VJPs
    are those of ``matmul`` and ``add``. With the operands in the order
    ``(a, b, bias)``, backward visits them, and sums every gradient, in the
    same order as for ``add(matmul(a, b), bias)``."""
    bias = _coerce(bias)
    values, edges = _product(_coerce(a), _coerce(b), "affine")
    try:
        values += bias.values
    except ValueError:
        raise DimensionError(f"affine: bias shape {bias.shape} does not "
                             f"broadcast to {values.shape}") from None
    return _make(values, *edges,
                 (bias, lambda g: _unbroadcast(g, bias.shape)))


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes; ``None`` reverses them, as in numpy."""
    def vjp(g):
        return np.transpose(g, None if axes is None else np.argsort(axes))
    return _make(np.transpose(x.values, axes), (x, vjp))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    old = x.shape
    return _make(x.values.reshape(shape), (x, lambda g: g.reshape(old)))


def index(x: Tensor, key) -> Tensor:
    """``x[key]`` for any numpy index; backward scatter-adds into the picks."""
    def vjp(g):
        full = np.zeros_like(x.values)
        np.add.at(full, key, g)
        return full
    return _make(x.values[key], (x, vjp))


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table by an id array of any shape -> ids.shape +
    [width]; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    # numpy would wrap a negative id around instead of rejecting it
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(
            f"take_rows: index out of range for table with {table.shape[0]} rows")
    return index(table, idx)


def sum_all(x: Tensor) -> Tensor:
    return _make(np.asarray(x.values.sum()),
                 (x, lambda g: np.full_like(x.values, float(g))))


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
    """Cody's rational function of the array ``z`` in CALERF's Horner
    order: ``num[-1]`` leads, ``num[head]`` and ``den[head]`` are the
    constant terms, and the denominator's leading coefficient is 1. Each
    step is ``(acc + c) * z``, run in place on two buffers."""
    xnum = num[-1] * z
    xnum += num[0]
    xden = z + den[0]
    for i in range(1, head + 1):
        xnum *= z
        xnum += num[i]
        xden *= z
        xden += den[i]
    xnum /= xden
    return xnum


def _exp_neg_sq(y):
    """exp(-y*y) without the rounding error of forming y*y directly."""
    ysq = np.trunc(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def _erf(x) -> np.ndarray:
    """Elementwise float64 error function (not differentiable; an array op).

    Runs only the branches its input reaches: with every |x| <= 0.46875 it
    is one rational in x*x, and with none above 4 the big-|x| branch is
    skipped. Each element gets the same operations on every path."""
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(x)
    # NaN compares false, so a NaN anywhere, or an empty input, takes the
    # full path, whose last branch propagates it
    top = y.max() if y.size else math.nan
    if top <= 0.46875:
        out = _ratio(_ERF_A, _ERF_B, x * x, 3)
        out *= x
        return out
    # branches gather and scatter by flat index, which numpy does several
    # times faster than by boolean mask
    xf, yf = x.reshape(-1), y.reshape(-1)
    out = np.empty_like(yf)
    small = np.flatnonzero(yf <= 0.46875)
    xs = xf[small]
    out[small] = xs * _ratio(_ERF_A, _ERF_B, xs * xs, 3)
    reaches_big = not top <= 4.0
    above = yf > 0.46875
    if reaches_big:
        above &= yf <= 4.0
    mid = np.flatnonzero(above)
    ym = yf[mid]
    erfc_mid = _exp_neg_sq(ym) * _ratio(_ERFC_C, _ERFC_D, ym, 7)
    out[mid] = np.copysign((0.5 - erfc_mid) + 0.5, xf[mid])
    if reaches_big:
        big = np.flatnonzero(~(yf <= 4.0))   # also NaN, which propagates
        # erfc underflows to 0 past ~26.5; the clip keeps inf finite
        yb = np.minimum(yf[big], 30.0)
        zb = 1.0 / (yb * yb)
        erfc_big = _exp_neg_sq(yb) * (
            (_INV_SQRT_PI - zb * _ratio(_ERFC_P, _ERFC_Q, zb, 4)) / yb)
        out[big] = np.copysign((0.5 - erfc_big) + 0.5, xf[big])
    return out.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt 2))."""
    xv = x.values
    one_plus_e = _erf(xv * (1.0 / math.sqrt(2.0)))
    one_plus_e += 1.0
    values = 0.5 * xv
    values *= one_plus_e

    def vjp(g):
        pdf = np.exp(-0.5 * xv ** 2) / math.sqrt(2.0 * math.pi)
        return g * (0.5 * one_plus_e + xv * pdf)
    return _make(values, (x, vjp))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)
    return _make(t, (x, lambda g: g * (1.0 - t * t)))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``; other axes are batch."""
    y = x.values - x.values.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - dot)
    return _make(y, (x, vjp))


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
              axis: int = -1) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then scale+shift.

    Other axes are batch axes; ``gain`` and ``bias`` broadcast over them."""
    n = x.shape[axis]
    if n < 2:
        raise DegenerateAxisError(
            f"layernorm: axis length {n} cannot be normalized")
    gain, bias = _coerce(gain), _coerce(bias)

    def mean(v):
        # np.mean's own arithmetic: add.reduce, then divide by the count
        return v.sum(axis=axis, keepdims=True) / n
    xhat = x.values - mean(x.values)
    values = xhat * xhat
    inv = 1.0 / np.sqrt(mean(values) + eps)
    xhat *= inv
    np.multiply(xhat, gain.values, out=values)
    values += bias.values

    def x_vjp(g):
        gx = g * gain.values
        return inv * (gx - mean(gx) - xhat * mean(gx * xhat))
    return _make(values, (x, x_vjp),
                 (gain, lambda g: _unbroadcast(g * xhat, gain.shape)),
                 (bias, lambda g: _unbroadcast(g, bias.shape)))


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

    return _make(np.asarray((diff ** 2).mean()),
                 (pred, lambda g: float(g) * 2.0 * diff / n))


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

    def vjp(g):
        grad = probs.copy()
        grad[rows, idx] -= 1.0
        return (float(g) * grad / n).reshape(logits.shape)
    return _make(np.asarray(nll.mean()), (logits, vjp))


class Adam:
    """Adam with bias correction and decoupled weight decay.

    The parameters' values, the two moments and the gradients each live in
    one flat float64 vector, in ``params`` order: construction copies the
    values into the vector and rebinds every ``p.values`` to a view of it,
    so a step is a handful of numpy calls whatever the number of tensors.
    A later ``Adam`` over the same tensors rebinds them again, and the
    earlier one no longer moves them: build one per training run.
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
        self._flat = np.concatenate(
            [p.values.reshape(-1) for p in self.params] or [np.zeros(0)])
        start = 0
        for p in self.params:
            size = p.values.size
            p.values = self._flat[start:start + size].reshape(p.values.shape)
            start += size
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._g = np.empty_like(self._flat)

    def step(self) -> None:
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise OptimizerError(
                f"step() with unpopulated gradients (params {missing})")
        if self.params:
            np.concatenate([p.grad.reshape(-1) for p in self.params],
                           out=self._g)
        if not np.isfinite(self._g).all():
            bad = [i for i, p in enumerate(self.params)
                   if not np.isfinite(p.grad).all()]
            raise NonFiniteError(
                f"step() with non-finite gradients in {len(bad)} of "
                f"{len(self.params)} params, the first at index {bad[0]}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, m, v = self._g, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * self._flat
        self._flat -= self.lr * update
        for p in self.params:
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
