"""Dense-tensor engine with reverse-mode automatic differentiation.

The primitive set is deliberately small: exactly the operations needed to
express and train the dual-head patch-transformer classifier, each with a
hand-written adjoint. The test suite checks every adjoint against central
finite differences in 64-bit mode.

Gradient policy: calling :func:`backward` twice on the same loss tensor is
an error. Distinct losses may be backpropagated before an optimizer step
(their contributions accumulate into the leaves' ``Tensor.grad``, also
through shared op outputs, whose own ``grad`` is released once used); the
optimizer clears grads after applying an update.

Every operation validates that its output is finite; NaN or Inf anywhere is
an error state, not a value.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


_grad_enabled = True
LAYER_NORM_EPS = 1e-5  # added to the variance in layer_norm
# attention exponentiates a head slice's scores unshifted, and normalises
# them after its product, when they are bounded by this (|q_i . k_j| <=
# |q_i| |k_j|); exp(16) is about 8.9e6
SCORE_BOUND = 16.0


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense n-d array of real scalars with optional gradient tracking.

    ``data`` is a numpy float32 or float64 array (row-major). When the
    tensor participates in a recorded computation, ``parents`` and ``_vjp``
    link it into the graph that :func:`backward` replays in reverse
    topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_vjp",
                 "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
            vjp: Callable | None) -> Tensor:
    """Wrap an op output, guarding finiteness and recording the node."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out._backward_done = False
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.parents = parents if out.requires_grad else ()
    out._vjp = vjp if out.requires_grad else None
    return out


def _accumulate(parent: Tensor, g: np.ndarray, op: str) -> None:
    if not np.isfinite(g).all():
        raise NonFiniteError(f"backward through {op} produced non-finite gradients")
    # no adjoint writes into its incoming gradient, but add hands one array to
    # both parents: keep the first gradient as given, sum later ones out of place
    total = g if parent.grad is None else parent.grad + g
    parent.grad = total.astype(parent.data.dtype, copy=False)


def trace(root: Tensor) -> list[Tensor]:
    """Topological order of the tracked subgraph below ``root``.

    Replaying adjoints over ``reversed(trace(loss))`` visits every tracked
    tensor exactly once.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked tensor the scalar loss depends on.

    Raises if the loss is not a tracked scalar, or if backward was already
    called on this loss (re-running the same graph is rejected rather than
    silently double-counting).
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not tracked: nothing upstream requires gradients")
    if loss._backward_done:
        raise RuntimeError("backward already called on this loss; grads are "
                           "reset by the optimizer step, not by re-running")
    loss._backward_done = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(trace(loss)):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        # an op output's gradient is spent once its adjoint has run: freeing
        # it keeps memory down, and a later loss sharing this node starts
        # from zero instead of re-sending this loss's gradient
        node.grad = None
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            _accumulate(parent, g, node.op)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (trailing-aligned broadcast reversal),
    keeping its leading task axis as it is."""
    # one axis at a time: a tuple-axis sum takes another pairwise order
    while g.ndim > len(shape):
        g = g.sum(axis=1)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d operands, or of two stacks of matrices with
    the same leading axes (one product per stacked pair)."""
    if a.ndim != b.ndim or a.ndim < 2 or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul requires two 2-d operands or two stacks with "
                         f"equal leading axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _result(ad @ bd, "matmul", (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a task stack, as one node.

    ``x`` is (K, B, T, Din), an ``np.broadcast_to`` view for an input shared
    by all K tasks; ``w`` is (K, Din, n), ``b`` is (K, 1, n), one row per
    task, and the output is (K, B, T, n). Each stacked (T, Din) slice gets
    its own product with its task's (Din, n) weight, so a slice's output
    does not depend on the rest of the stack, and each task's weight
    gradient is one 2-d product over all of its rows.
    """
    if w.ndim != 3 or x.ndim != 4 or x.shape[0] != w.shape[0] \
            or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear operands do not chain: {x.shape} x {w.shape}")
    if b.shape != (w.shape[0], 1, w.shape[2]):
        raise ShapeError(f"linear bias must be {(w.shape[0], 1, w.shape[2])}, "
                         f"got {b.shape}")
    # broadcast each task's weight over the images of the stack
    xd, wd, bd = x.data, w.data[:, None], b.data[:, None]

    def vjp(g):
        rows = g.reshape(w.shape[0], -1, g.shape[-1])
        x_rows = xd.reshape(w.shape[0], -1, xd.shape[-1])
        # an untracked input (the image patches) needs no (N x 3P^2) product
        dx = g @ wd.swapaxes(-1, -2) if x.requires_grad else None
        return dx, x_rows.swapaxes(-1, -2) @ rows, rows.sum(axis=-2, keepdims=True)

    return _result(xd @ wd + bd, "linear", (x, w, b), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head attention ``softmax(q_h k_h^T) v_h`` over column blocks.

    The (N, D) inputs, or stacks of them such as (B, N, D) or a task stack's
    (K, B, N, D), are split into ``heads`` blocks of D / heads columns, all
    heads of all stacked slices run as one batched product, and the
    per-head outputs are merged back into (..., N, D) in head order.
    Scaling the scores is left to the caller (scale ``q``, N x D entries,
    rather than the N x N scores).

    Each head slice takes one of two paths on its own, so its bytes do not
    depend on the rest of the stack. On the bounded path, where
    ``SCORE_BOUND`` bounds its scores ``S = q_h k_h^T`` and v's squared row
    norms are finite, it forms ``E = exp(S)`` with no N x N finiteness scan,
    shift or row sum, and normalises late (Milakov & Gimelshein 2018): one
    product ``E [v_h | 1] = [O l | l]`` gives ``O = (E v_h) / l``, an N x dh
    divide. Every other slice takes the former path: its scores are
    scanned, shifted by their row maxima and normalised before the product,
    ``E = P`` with ``l = 1``. With no more tokens than head columns (N <=
    dh) every slice takes the former path and the product is ``P v_h``:
    there the bound would cost what it saves.

    The adjoint keeps ``E`` and ``l`` (not ``P = E / l``), the three input
    head stacks and the output stack ``O``. With ``g`` divided by ``l``
    first, it forms ``dV = E^T (g / l)``, ``dS = E * ((g / l) v^T -
    rowsum(g * O) / l)``, the subtraction folded into that product as one
    more column where N > dh, ``dQ = dS k`` and ``dK = dS^T q``;
    ``rowsum(g v^T * P)`` is taken as ``rowsum(g * O)`` (Dao et al. 2022),
    an N x dh product instead of an N x N one.
    """
    if q.ndim < 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"attention needs equal q, k, v of at least 2 axes, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    *lead, n, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention width {d} not divisible by {heads} heads")
    dh = d // heads

    def split(a):  # (..., N, D) -> (..., H, N, dh)
        return a.reshape(*lead, n, heads, dh).swapaxes(-2, -3)

    def merge(a):  # (..., H, N, dh) -> (..., N, D)
        return a.swapaxes(-2, -3).reshape(*lead, n, d)

    def t(a):  # transpose each (N, dh) or (N, N) matrix of a head stack
        return a.swapaxes(-1, -2)

    def ones_column(a):  # [a | 1]
        return np.concatenate([a, np.ones_like(a[..., :1])], axis=-1)

    def max_norm(a):  # each head slice's largest row norm: (..., H)
        a = a.reshape(*lead, n, heads, dh)
        return np.sqrt(np.einsum("...i,...i->...", a, a).max(axis=-2))

    def each(mask, step):  # run an in-place step on the slices mask selects
        if mask.all():
            step(e)
        elif mask.any():
            s = e[mask]
            step(s)
            e[mask] = s

    def bounded_path(s):  # E = exp(S), normalised after the product
        np.exp(s, out=s)

    def former_path(s):  # E = P: scanned, shifted and normalised first
        if not np.isfinite(s).all():
            raise NonFiniteError("attention produced non-finite scores")
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    e = qh @ t(kh)
    if n <= dh:
        # the bound's N x dh row norms would cost as much as the N x N
        # passes they save: every slice takes the former path
        former_path(e)
        oh, l = e @ vh, 1.0
    else:
        # Cauchy-Schwarz bounds every score, and every partial sum of its
        # product, by max_i |q_i| * max_j |k_j|. Where that is at most B =
        # SCORE_BOUND, E = exp(S) <= e^B needs no shift. The row norms are
        # squared in the input dtype, so a finite one keeps every |v_j|
        # under sqrt(float max), and each partial sum of E [v | 1] under
        # N e^B sqrt(float max), finite for N < 7e11 tokens. NaN or Inf in
        # q or k leaves the bound NaN or Inf, and that slice unbounded.
        with np.errstate(over="ignore", invalid="ignore"):
            bounded = ((max_norm(q.data) * max_norm(k.data) <= SCORE_BOUND)
                       & np.isfinite(max_norm(v.data)))
        each(bounded, bounded_path)
        each(~bounded, former_path)
        ol = e @ ones_column(vh)
        l = ol[..., -1:].copy()  # a copy, so that the tape does not keep ol
        l[~bounded] = 1.0
        oh = ol[..., :-1] / l

    def vjp(g):
        gl = split(g) / l
        r = (gl * oh).sum(axis=-1, keepdims=True)
        if n <= dh:  # two concatenations cost more than one pass over few tokens
            ds = gl @ t(vh)
            ds -= r
        else:
            ds = np.concatenate([gl, -r], axis=-1) @ t(ones_column(vh))
        ds *= e
        return merge(ds @ kh), merge(t(ds) @ qh), merge(t(e) @ gl)

    return _result(merge(oh), "attention", (q, k, v), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. The one broadcast allowed is over ``a``'s axis 1,
    the images of a task stack: ``b`` equals ``a``'s shape or leaves axis 1
    out, as a task stack's (K, T, D) position table on (K, B, T, D)
    activations or its (K, 1, D) class token on (K, B, 1, D).
    """
    bd = b.data
    if a.shape == b.shape:
        def vjp(g):
            return g, g
    else:
        if b.shape != a.shape[:1] + a.shape[2:]:
            raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")
        bd = bd[:, None]

        def vjp(g):
            return g, g.sum(axis=1)
    return _result(a.data + bd, "add", (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a same-shape tensor or a python scalar."""
    if isinstance(b, (int, float)):
        s = float(b)

        def vjp(g):
            return (g * s,)

        return _result(a.data * s, "mul_scalar", (a,), vjp)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return _result(ad * bd, "mul", (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    # one pass with the bytes of np.where(mask, a.data, 0.0): -0.0 gives +0.0
    # here, where np.fmax or np.maximum(0, a) can keep -0.0; NaN stays NaN
    return _result(np.maximum(a.data, 0), "relu", (a,), vjp)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _result(out, "log", (a,), vjp)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    inside = (a.data > lo) & (a.data < hi)

    def vjp(g):
        return (g * inside,)

    return _result(np.clip(a.data, lo, hi), "clip", (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, subtracting its max before exponentiation."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _result(s, "softmax", (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    ``x`` is a task stack's (K, ..., D); ``gain`` and ``bias`` are (K, D)
    (per-channel) or (K, 1) (a scalar affine, shared across the normalized
    axis), one row per task.
    """
    if x.ndim < 2 or x.shape[-1] == 0:
        raise ShapeError(f"layer_norm needs a (K, ..., D) input with D > 0, got {x.shape}")
    d = x.shape[-1]
    for p in (gain, bias):
        if p.ndim != 2 or p.shape[0] != x.shape[0] or p.shape[1] not in (1, d):
            raise ShapeError(f"layer_norm affine shape {p.shape} does not fit {x.shape}")
    # np.add.reduce / d is what .mean does, less its Python wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    # each task's affine row, broadcast over the axes between task and channel
    spread = (x.shape[0], *(1,) * (x.ndim - 2))
    gd = gain.data.reshape(*spread, -1)
    out = gd * xhat + bias.data.reshape(*spread, -1)

    def vjp(g):
        dxhat = g * gd
        term = dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / d \
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        dx = term * inv
        return dx, _reduce_to(g * xhat, gain.shape), _reduce_to(g, bias.shape)

    return _result(out, "layer_norm", (x, gain, bias), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose requires at least 2 axes, got {a.shape}")

    def vjp(g):
        return (g.swapaxes(-1, -2),)

    return _result(a.data.swapaxes(-1, -2).copy(), "transpose", (a,), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    if not 0 <= axis < a.ndim:
        raise ShapeError(f"narrow axis {axis} invalid for shape {a.shape}")
    if start < 0 or length <= 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range on axis "
                         f"{axis} of shape {a.shape}")
    idx = (slice(None),) * axis + (slice(start, start + length),)
    full_shape = a.shape

    def vjp(g):
        out = np.zeros(full_shape, dtype=g.dtype)
        out[idx] = g
        return (out,)

    return _result(a.data[idx].copy(), "narrow", (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(np.split(g, offsets[1:-1], axis=axis))

    return _result(np.concatenate([p.data for p in parts], axis=axis),
                   "concat", tuple(parts), vjp)


def tsum(a: Tensor, lead: int = 0) -> Tensor:
    """Sum of every entry; with ``lead=1``, one sum per slice of the leading
    axis (a per-task loss of a task stack)."""
    shape, dtype = a.shape, a.data.dtype
    kept = (*shape[:lead], *(1,) * (len(shape) - lead))

    def vjp(g):
        return (np.broadcast_to(g.reshape(kept), shape).astype(dtype),)

    return _result(np.asarray(a.data.sum(axis=tuple(range(lead, len(shape))))),
                   "sum", (a,), vjp)
