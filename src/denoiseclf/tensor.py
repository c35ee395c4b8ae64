"""Dense float64 tensors with reverse-mode automatic differentiation.

The whole model is built from the handful of differentiable kernels in this
module. Every op output is one kind of node: its tracked operands,
``_parents``, and one callable, ``_vjps``, that maps its gradient to theirs.
``_make`` builds that callable from one vector-Jacobian product (VJP) per
operand; the fused kernels, ``attention`` and ``mlp``, each run a whole
layer as one node and hand ``_make_joint`` one backward for all operands.
Both keep only tracked operands, so constants never enter the graph and no
constant's gradient is computed. ``backward()`` on a scalar collects the op
outputs it reads and runs them newest first: an output is made after its
operands, so its gradient is whole before its VJPs run. The engine is the
one place that routes gradients. Ops accept leading batch axes, so one
graph covers a whole batch. Inside ``no_grad()`` ops record nothing, so an
inference forward holds only its live values.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (ConfigError, DegenerateAxisError, DimensionError,
                     LabelError, NonFiniteError, OptimizerError)


class Tensor:
    """An n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjps",
                 "_order")

    def __init__(self, values, requires_grad: bool = False,
                 _parents: tuple = (), _vjps: Callable | tuple = ()):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjps = _vjps
        self._order = next(_created) if _parents else 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def _accumulate(self, g: np.ndarray) -> None:
        """Add one gradient contribution. The first is kept as it is when
        it already has the layout a fresh buffer would have (same shape,
        both C-contiguous), so the next matmul sees the same strides; any
        other first contribution lands in a ``zeros_like`` buffer. A kept
        array may be shared (``add`` hands one ``g`` to both operands), so
        a later contribution makes a new sum and never writes in place."""
        if self.grad is not None:
            self.grad = self.grad + g
        elif (g.shape == self.values.shape and g.flags.c_contiguous
                and self.values.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.zeros_like(self.values)
            self.grad += g

    def backward(self) -> None:
        if self.values.size != 1:
            raise DimensionError(
                f"backward() needs a scalar, got shape {self.shape}")
        # the op outputs the loss reads; leaves (no parents) only receive
        # gradients, so the walk skips them
        nodes, todo = set(), [self]
        while todo:
            node = todo.pop()
            if node._parents and node not in nodes:
                nodes.add(node)
                todo.extend(node._parents)
        # newest first, every consumer of a node runs before the node. An
        # op output's gradient lives only for this pass: it is dropped once
        # its VJPs have run, so only the leaves accumulate, and a second
        # backward over one graph adds exactly the same gradients
        self._accumulate(np.ones_like(self.values))
        for node in sorted(nodes, key=lambda t: t._order, reverse=True):
            g, node.grad = node.grad, None
            for parent, grad in zip(node._parents, node._vjps(g)):
                parent._accumulate(grad)

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
# numbers op outputs in creation order; backward runs them newest first
_created = itertools.count(1)


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
    built from them, become ``_parents``, and ``_vjps`` returns their
    gradients in that order: backward never visits a constant. With none,
    or inside ``no_grad``, the output is itself a constant."""
    if _grad_enabled:
        kept = [e for e in edges if e[0].requires_grad or e[0]._parents]
        if kept:
            parents, fns = zip(*kept)
            return Tensor(values, _parents=parents,
                          _vjps=lambda g: [fn(g) for fn in fns])
    return Tensor(values)


def _make_joint(values: np.ndarray, operands: Sequence[Tensor],
                backward: Callable) -> Tensor:
    """A fused op's output. ``backward(g, need)`` gets the output's
    gradient and one flag per operand, true for the tracked ones, and
    returns one entry per operand: the gradient where ``need`` is true,
    else ``None``, which it must not compute. The tracked operands become
    ``_parents``, and ``_vjps`` returns their gradients, as in ``_make``."""
    if _grad_enabled:
        need = [t.requires_grad or bool(t._parents) for t in operands]
        if any(need):
            parents = tuple(t for t, n in zip(operands, need) if n)

            def vjps(g):
                return [grad for grad, n in zip(backward(g, need), need) if n]
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


def _matmul(av: np.ndarray, bv: np.ndarray, op: str) -> np.ndarray:
    """``np.matmul`` over the last two axes; a mismatch is a
    ``DimensionError`` naming ``op``."""
    try:
        if av.ndim < 2 or bv.ndim < 2:
            raise ValueError
        return np.matmul(av, bv)
    except ValueError:
        raise DimensionError(
            f"{op}: incompatible shapes {av.shape} and {bv.shape}") from None


def _add_bias(values: np.ndarray, bias: np.ndarray, op: str) -> np.ndarray:
    """Add ``bias`` into a product in place; it must broadcast to it."""
    try:
        values += bias
    except ValueError:
        raise DimensionError(f"{op}: bias shape {bias.shape} does not "
                             f"broadcast to {values.shape}") from None
    return values


def _product(a: Tensor, b: Tensor, op: str):
    """The product over the last two axes and the edges of both factors."""
    av, bv = a.values, b.values
    values = _matmul(av, bv, op)
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
    return _make(_add_bias(values, bias.values, "affine"), *edges,
                 (bias, lambda g: _unbroadcast(g, bias.shape)))


def _rows(a: np.ndarray) -> np.ndarray:
    """[..., n] -> [rows, n]: every leading axis becomes one row axis."""
    return a.reshape(-1, a.shape[-1])


def _mask_bias(mask) -> np.ndarray:
    """Additive pre-softmax bias [..., 1, 1, L] from a [..., L] mask: 0 on
    real keys, -inf-ish on pads; broadcasts over heads and query positions.

    An all-masked row falls back to attending to position 0 only, so no
    softmax row can become NaN.
    """
    m = np.array(mask, dtype=np.float64)
    m[m.sum(axis=-1) == 0, 0] = 1.0
    return (1.0 - m)[..., None, None, :] * -1e9


def attention(x, mask, num_heads: int, wq, bq, wk, bk, wv, bv, wo,
              bo, queries=None) -> Tensor:
    """Masked multi-head scaled dot-product attention over [..., L, H]
    rows, as one op: the q/k/v projections, the split into ``num_heads``
    heads, the scaled scores plus the mask bias of ``_mask_bias`` (mask
    [..., L]), softmax over the keys, the context and the output
    projection. All heads of all rows run as one batched matmul over
    [..., heads, L, dh]. The forward does the IEEE operations of the
    composition of ``affine``, ``matmul``, ``mul``, ``add`` and ``softmax``;
    the backward is hand-written, with every weight gradient one 2-D
    product over all rows.

    ``queries`` ([..., Lq, H], e.g. the [CLS] rows of x) are the rows the
    queries and the output come from, so the output is [..., Lq, H]; keys
    and values still come from every row of x. The query path's gradient
    goes to ``queries`` and the key and value paths' to x.

    The key bias ``bk`` adds q.bk to all of a query's scores, which the
    softmax cancels: its gradient is exactly zero, handed back as zeros."""
    operands = [_coerce(t) for t in (x, wq, bq, wk, bk, wv, bv, wo, bo)]
    xv, wqv, bqv, wkv, bkv, wvv, bvv, wov, bov = (t.values for t in operands)
    # the rows the queries come from, and the operand their gradient goes to
    qv, q_in = xv, 0
    if queries is not None:
        operands.append(_coerce(queries))
        qv, q_in = operands[9].values, 9
    n = xv.ndim - 2
    dh = xv.shape[-1] // num_heads
    scale = 1.0 / math.sqrt(dh)
    # [.., L, nh, dh] -> [.., nh, L, dh] (self-inverse) and -> [.., nh, dh, L]
    heads_first = (*range(n), n + 1, n, n + 2)
    keys_last = (*range(n), n + 1, n + 2, n)

    def heads(rows, w, b, axes):
        projected = _add_bias(_matmul(rows, w, "attention"), b, "attention")
        return projected.reshape(*rows.shape[:-1], num_heads,
                                 dh).transpose(axes)

    q = heads(qv, wqv, bqv, heads_first)
    k = heads(xv, wkv, bkv, keys_last)
    v = heads(xv, wvv, bvv, heads_first)
    att = np.matmul(q, k)
    att *= scale
    bias = _mask_bias(mask)
    try:
        att += bias
    except ValueError:
        raise DimensionError(f"attention: mask bias {bias.shape} does not "
                             f"broadcast to scores {att.shape}") from None
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = np.matmul(att, v).transpose(heads_first).reshape(qv.shape)
    values = _add_bias(_matmul(ctx, wov, "attention"), bov, "attention")

    def backward(g, need):
        grads = [None] * len(operands)
        if need[7]:
            grads[7] = np.matmul(_rows(ctx).T, _rows(g))
        if need[8]:
            grads[8] = _unbroadcast(g, bov.shape)
        if need[4]:
            grads[4] = np.zeros_like(bkv)
        g_ctx = np.matmul(g, wov.T).reshape(
            *qv.shape[:-1], num_heads, dh).transpose(heads_first)
        g_v = np.matmul(np.swapaxes(att, -1, -2), g_ctx)
        # softmax, then the scale; the mask bias is a constant
        g_att = np.matmul(g_ctx, np.swapaxes(v, -1, -2))
        g_att -= (g_att * att).sum(axis=-1, keepdims=True)
        g_att *= att
        g_att *= scale
        g_q = np.matmul(g_att, np.swapaxes(k, -1, -2))
        # the key gradient is formed as [.., nh, L, dh], like the query's
        g_k = np.matmul(np.swapaxes(g_att, -1, -2), q)
        # (weight, bias, head gradient, input rows, input operand); the
        # key bias's zeros are set above
        for w, b, g_head, rows, to in ((1, 2, g_q, qv, q_in),
                                       (3, None, g_k, xv, 0),
                                       (5, 6, g_v, xv, 0)):
            g_proj = g_head.transpose(heads_first).reshape(rows.shape)
            if need[w]:
                grads[w] = np.matmul(_rows(rows).T, _rows(g_proj))
            if b is not None and need[b]:
                grads[b] = _unbroadcast(g_proj, operands[b].shape)
            if need[to]:
                g_in = np.matmul(g_proj, operands[w].values.T)
                grads[to] = g_in if grads[to] is None else grads[to] + g_in
        return grads
    return _make_joint(values, operands, backward)


def mlp(x, w1, b1, w2, b2, activation: str | None = None,
        columns: bool = False) -> Tensor:
    """Two affine maps with ``activation`` (None, "tanh" or "gelu")
    between them, as one op. By default x is [..., n] rows and each map is
    ``x @ w + b``, the layout of a transformer block's feed-forward. With
    ``columns`` x is [n, N] columns and each map is ``w @ x + b``, the
    layout of a denoise stage. The forward does the IEEE operations of
    ``affine``, the activation and ``affine``; the backward is
    hand-written, and in the row layout every weight gradient is one 2-D
    product over all rows."""
    operands = [_coerce(t) for t in (x, w1, b1, w2, b2)]
    xv, w1v, b1v, w2v, b2v = (t.values for t in operands)
    if columns:
        if xv.ndim != 2:
            raise DimensionError(
                f"mlp: columns must be [n, N], got shape {xv.shape}")

        def product(a, w):
            return _matmul(w, a, "mlp")

        def input_grad(g, w):
            return np.matmul(w.T, g)

        def weight_grad(a, g):
            return np.matmul(g, a.T)
    else:
        def product(a, w):
            return _matmul(a, w, "mlp")

        def input_grad(g, w):
            return np.matmul(g, w.T)

        def weight_grad(a, g):
            return np.matmul(_rows(a).T, _rows(g))

    hidden, activation_vjp = _activation(
        activation, _add_bias(product(xv, w1v), b1v, "mlp"))
    values = _add_bias(product(hidden, w2v), b2v, "mlp")

    def backward(g, need):
        grads = [None] * 5
        if need[3]:
            grads[3] = weight_grad(hidden, g)
        if need[4]:
            grads[4] = _unbroadcast(g, b2v.shape)
        if any(need[:3]):
            g_hidden = activation_vjp(input_grad(g, w2v))
            if need[1]:
                grads[1] = weight_grad(xv, g_hidden)
            if need[2]:
                grads[2] = _unbroadcast(g_hidden, b1v.shape)
            if need[0]:
                grads[0] = input_grad(g_hidden, w1v)
        return grads
    return _make_joint(values, operands, backward)


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


def _activation(kind: str | None, xv: np.ndarray):
    """The values of activation ``kind`` at ``xv`` and their VJP: None is
    the identity, "gelu" the exact 0.5 x (1 + erf(x / sqrt 2))."""
    if kind is None:
        return xv, lambda g: g
    if kind == "tanh":
        t = np.tanh(xv)
        return t, lambda g: g * (1.0 - t * t)
    if kind == "gelu":
        one_plus_e = _erf(xv * (1.0 / math.sqrt(2.0)))
        one_plus_e += 1.0
        values = 0.5 * xv
        values *= one_plus_e

        def vjp(g):
            pdf = np.exp(-0.5 * xv ** 2) / math.sqrt(2.0 * math.pi)
            return g * (0.5 * one_plus_e + xv * pdf)
        return values, vjp
    raise ConfigError(f"unknown activation {kind!r}")


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt 2))."""
    values, vjp = _activation("gelu", x.values)
    return _make(values, (x, vjp))


def tanh(x: Tensor) -> Tensor:
    values, vjp = _activation("tanh", x.values)
    return _make(values, (x, vjp))


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis; others are batch."""
    y = x.values - x.values.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot)
    return _make(y, (x, vjp))


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then
    scale+shift. Other axes are batch axes; ``gain`` and ``bias`` broadcast
    over them."""
    n = x.shape[-1]
    if n < 2:
        raise DegenerateAxisError(
            f"layernorm: axis length {n} cannot be normalized")
    gain, bias = _coerce(gain), _coerce(bias)

    def mean(v):
        # np.mean's own arithmetic: add.reduce, then divide by the count
        return v.sum(axis=-1, keepdims=True) / n
    xhat = x.values - mean(x.values)
    values = xhat * xhat
    inv = 1.0 / np.sqrt(mean(values) + 1e-5)   # eps
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


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and decoupled weight decay.

    The parameters' values, the two moments and the gradients each live in
    one flat float64 vector, in ``params`` order: construction copies the
    values into the vector and rebinds every ``p.values`` to a view of it,
    so a step is a handful of numpy calls whatever the number of tensors.
    A later ``Adam`` over the same tensors rebinds them again, and the
    earlier one no longer moves them: build one per training run.
    ``step()`` consumes the accumulated gradients and zeroes them. It
    raises ``NonFiniteError`` without writing any parameter when a gradient
    or a value it would write is NaN or infinite; a gradient is checked
    before the moments move, a new value after.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
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
            bad = self._non_finite_params(self._g)
            raise NonFiniteError(
                f"step() with non-finite gradients in {len(bad)} of "
                f"{len(self.params)} params, the first at index {bad[0]}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g, m, v = self._g, self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        # the new values are formed aside and written only if all are
        # finite; that check, not a numpy overflow warning, reports a step
        # that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * self._flat
            np.multiply(self.lr, update, out=update)
            new = np.subtract(self._flat, update, out=update)
        if not np.isfinite(new).all():
            bad = self._non_finite_params(new)
            raise NonFiniteError(
                f"step() at lr {self.lr} would write non-finite values to "
                f"{len(bad)} of {len(self.params)} params, the first at "
                f"index {bad[0]}")
        self._flat[...] = new
        for p in self.params:
            p.grad = None

    def _non_finite_params(self, flat: np.ndarray) -> list[int]:
        """Indices of the params whose slice of ``flat`` holds a NaN or an
        infinity."""
        ends = np.cumsum([p.values.size for p in self.params])
        bad = np.flatnonzero(~np.isfinite(flat))
        return np.unique(np.searchsorted(ends, bad, side="right")).tolist()
