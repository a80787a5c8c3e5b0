"""Dense tensors with reverse-mode automatic differentiation.

numpy ndarrays hold the data.  Every op whose inputs are tracked appends
one record to the tape, a module-level list: the op's output tensors plus
a backward function that takes those outputs and pushes their gradients
back to the inputs.  Records accumulate in execution order, so reverse
iteration is a valid backward schedule and `backward` needs no graph
search; it consumes the tape and clears it.

The recurrent hot spots (LSTM step, masked dot attention, cross-entropy)
are single fused records with hand-written backward passes; everything
else is composed from small elementwise and linear-algebra ops.

Training runs in float32 by default; gradient checks construct their
tensors as float64 and everything downstream inherits the dtype.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording, e.g. during decoding."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, np.ndarray) and dtype is None \
                and data.dtype in FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data)
            if dtype is not None:
                arr = arr.astype(dtype, copy=False)
            elif arr.dtype not in FLOAT_DTYPES:
                arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        """Constant copy, cut loose from the graph."""
        return Tensor(self.data.copy())

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add `g` into the gradient; `owned` marks arrays safe to adopt."""
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# (output tensors, backward function taking those outputs), in forward order.
# The tape and the tensors on it belong to one worker at a time.
_tape: list[tuple[tuple[Tensor, ...], Callable[..., None]]] = []


def active_graph() -> list:
    return _tape


def backward(loss: Tensor, params: Optional[Iterable[Tensor]] = None) -> None:
    """Backpropagate from a scalar loss through the tape.

    Consumes and clears the tape.  When `params` is given, any listed
    tensor the loss never touched gets an explicit zero gradient.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for outputs, fn in reversed(_tape):
        for out in outputs:
            if out.grad is not None:
                fn(*outputs)
                break
    _tape.clear()
    if params is not None:
        for p in params:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# op plumbing


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _make(parents: Sequence[Tensor], backward_fn: Callable[..., None],
          *outputs: np.ndarray):
    """Wrap the output arrays; tape them with `backward_fn` if any parent is
    tracked.  Returns one tensor, or a tuple for several outputs."""
    outs = tuple(map(Tensor, outputs))
    if _grad_enabled and any(p.requires_grad for p in parents):
        for out in outs:
            out.requires_grad = True
        _tape.append((outs, backward_fn))
    return outs[0] if len(outs) == 1 else outs


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)

    def bw(out):
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape), owned=g.shape != a.shape)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape), owned=g.shape != b.shape)

    return _make((a, b), bw, a.data + b.data)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)

    def bw(out):
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape), owned=True)

    return _make((a, b), bw, a.data * b.data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")

    def bw(out):
        g = out.grad
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape), owned=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape), owned=True)

    return _make((a, b), bw, np.matmul(a.data, b.data))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bw(out):
        x.accumulate_grad((1.0 - t * t) * out.grad, owned=True)

    return _make((x,), bw, t)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis; rows sum to 1."""
    if np.isnan(x.data).any():
        raise ValueError("softmax received NaN input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(out):
        g = out.grad
        dot = (g * s).sum(axis=-1, keepdims=True)
        x.accumulate_grad(s * (g - dot), owned=True)

    return _make((x,), bw, s)


def reduce_sum(x: Tensor) -> Tensor:
    def bw(out):
        x.accumulate_grad(np.broadcast_to(out.grad, x.shape).copy(),
                          owned=True)

    return _make((x,), bw, x.data.sum())


def mean(x: Tensor) -> Tensor:
    def bw(out):
        x.accumulate_grad(np.full(x.shape, out.grad / x.size, dtype=x.dtype),
                          owned=True)

    return _make((x,), bw, np.asarray(x.data.mean(), dtype=x.dtype))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)

    def bw(out):
        g = out.grad
        start = 0
        for t in tensors:
            width = t.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + width)
            if t.requires_grad:
                t.accumulate_grad(g[tuple(sl)])
            start += width

    return _make(tensors, bw, np.concatenate([t.data for t in tensors], axis=axis))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)

    def bw(out):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate_grad(np.take(out.grad, i, axis=axis), owned=True)

    return _make(tensors, bw, np.stack([t.data for t in tensors], axis=axis))


def select(x: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along `axis`, dropping that axis."""

    def bw(out):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        sl = [slice(None)] * x.ndim
        sl[axis] = index
        x.grad[tuple(sl)] += out.grad

    return _make((x,), bw, np.take(x.data, index, axis=axis))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    def bw(out):
        x.accumulate_grad(out.grad.reshape(x.shape))

    return _make((x,), bw, x.data.reshape(shape))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape -> ids.shape + (E,)."""
    ids = np.asarray(ids)

    def bw(out):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        flat = out.grad.reshape(-1, table.shape[1])
        np.add.at(table.grad, ids.ravel(), flat)

    return _make((table,), bw, table.data[ids])


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); draws nothing at p=0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def bw(out):
        x.accumulate_grad(mask * out.grad, owned=True)

    return _make((x,), bw, x.data * mask)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over unmasked rows.

    logits: (N, V); targets: (N,) int ids; mask: (N,) with 1 for rows that
    count.  Masked rows contribute exactly zero to the value and to the
    gradient.
    """
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-d logits")
    targets = np.asarray(targets)
    n = logits.shape[0]
    mask = np.asarray(mask, dtype=logits.dtype)
    denom = float(mask.sum())
    if denom <= 0.0:
        raise ValueError("cross_entropy: no unmasked positions")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    nll = -logp[np.arange(n), targets] * mask
    value = np.asarray(nll.sum() / denom, dtype=logits.dtype)

    def bw(out):
        probs = np.exp(logp)
        probs[np.arange(n), targets] -= 1.0
        probs *= (mask / denom)[:, None]
        logits.accumulate_grad(probs * out.grad, owned=True)

    return _make((logits,), bw, value)


# ---------------------------------------------------------------------------
# fused recurrent and attention steps


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              w_x: Tensor, w_h: Tensor, b: Tensor,
              mask: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor]:
    """One LSTM step with gates in i, f, g, o order; a single graph record.

    x: (B, In), h_prev/c_prev: (B, H), w_x: (In, 4H), w_h: (H, 4H), b: (4H,).
    `mask` (B, 1), when given, carries the previous state through padded
    rows: out = mask*new + (1-mask)*prev.
    """
    hidden = h_prev.shape[-1]
    if x.shape[-1] != w_x.shape[0] or w_x.shape[1] != 4 * hidden:
        raise ValueError(
            f"lstm_cell dimension mismatch: x {x.shape}, w_x {w_x.shape}, H={hidden}")
    z = x.data @ w_x.data + h_prev.data @ w_h.data + b.data
    i = 0.5 * (1.0 + np.tanh(0.5 * z[:, :hidden]))
    f = 0.5 * (1.0 + np.tanh(0.5 * z[:, hidden:2 * hidden]))
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o = 0.5 * (1.0 + np.tanh(0.5 * z[:, 3 * hidden:]))
    c_raw = f * c_prev.data + i * g
    tc = np.tanh(c_raw)
    h_raw = o * tc
    if mask is None:
        h_data, c_data = h_raw, c_raw
    else:
        h_data = mask * h_raw + (1.0 - mask) * h_prev.data
        c_data = mask * c_raw + (1.0 - mask) * c_prev.data

    def bw(h_out, c_out):
        zero = np.zeros_like(h_raw)
        gh = zero if h_out.grad is None else h_out.grad
        gc = zero if c_out.grad is None else c_out.grad
        if mask is None:
            gh_raw, gc_raw = gh, gc
        else:
            gh_raw, gc_raw = gh * mask, gc * mask
            if h_prev.requires_grad:
                h_prev.accumulate_grad(gh * (1.0 - mask), owned=True)
            if c_prev.requires_grad:
                c_prev.accumulate_grad(gc * (1.0 - mask), owned=True)
        go = gh_raw * tc
        gc_total = gc_raw + gh_raw * o * (1.0 - tc * tc)
        gz = np.empty_like(z)
        gz[:, :hidden] = gc_total * g * i * (1.0 - i)
        gz[:, hidden:2 * hidden] = gc_total * c_prev.data * f * (1.0 - f)
        gz[:, 2 * hidden:3 * hidden] = gc_total * i * (1.0 - g * g)
        gz[:, 3 * hidden:] = go * o * (1.0 - o)
        if x.requires_grad:
            x.accumulate_grad(gz @ w_x.data.T, owned=True)
        if h_prev.requires_grad:
            h_prev.accumulate_grad(gz @ w_h.data.T, owned=True)
        if c_prev.requires_grad:
            c_prev.accumulate_grad(gc_total * f, owned=True)
        if w_x.requires_grad:
            w_x.accumulate_grad(x.data.T @ gz, owned=True)
        if w_h.requires_grad:
            w_h.accumulate_grad(h_prev.data.T @ gz, owned=True)
        if b.requires_grad:
            b.accumulate_grad(gz.sum(axis=0), owned=True)

    return _make((x, h_prev, c_prev, w_x, w_h, b), bw, h_data, c_data)


def dot_attention(states: Tensor, mask: np.ndarray, query: Tensor
                  ) -> tuple[Tensor, Tensor]:
    """Masked dot-score attention of query (B,H) over states (B,M,H).

    Returns (mixture (B,H), weights (B,M)).  Weights are zero exactly on
    masked positions and sum to 1 over the unmasked ones.
    """
    scores = np.matmul(states.data, query.data[:, :, None])[:, :, 0]
    if np.isnan(scores).any():
        raise ValueError("attention scores contain NaN")
    shifted = scores + (mask - 1.0) * 1e9
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    w = e / e.sum(axis=1, keepdims=True)
    mixed = np.matmul(w[:, None, :], states.data)[:, 0, :]

    def bw(mix_out, w_out):
        gmix = mix_out.grad
        gw = np.matmul(states.data, gmix[:, :, None])[:, :, 0] \
            if gmix is not None else np.zeros_like(w)
        if w_out.grad is not None:
            gw = gw + w_out.grad
        gscores = w * (gw - (gw * w).sum(axis=1, keepdims=True))
        if states.requires_grad:
            gstates = gscores[:, :, None] * query.data[:, None, :]
            if gmix is not None:
                gstates += w[:, :, None] * gmix[:, None, :]
            states.accumulate_grad(gstates, owned=True)
        if query.requires_grad:
            gq = np.matmul(gscores[:, None, :], states.data)[:, 0, :]
            query.accumulate_grad(gq, owned=True)

    return _make((states, query), bw, mixed, w)


# ---------------------------------------------------------------------------
# optimization


class AdaGrad:
    """AdaGrad with per-parameter accumulated squared gradients."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.accum = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, acc in zip(self.params, self.accum):
            if p.grad is None:
                continue
            acc += p.grad * p.grad
            p.data -= self.lr * p.grad / (np.sqrt(acc) + 1e-8)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def make_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent, reproducible stream derived from a seed and stream tags."""
    return np.random.default_rng((int(seed),) + tuple(int(t) for t in tags))
