"""Dense tensors with reverse-mode automatic differentiation.

numpy ndarrays hold the data.  Every op whose inputs are tracked appends
one record to the tape, a module-level list: the op's output tensors plus
a backward function that takes those outputs and pushes their gradients
back to the inputs.  Records accumulate in execution order, so reverse
iteration is a valid backward schedule and `backward` needs no graph
search; it pops each record as it runs it, so what the record kept alive
is freed before the records before it run.

The recurrent hot spots (LSTM layer, masked dot attention, the output
layer with its cross-entropy) are single fused records with hand-written
backward passes; everything else is composed from small elementwise and
linear-algebra ops.

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

    __slots__ = ("data", "grad", "requires_grad", "__weakref__")

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

    Pops each record before running it, so a record's outputs and what
    its backward function holds are freed as soon as it has run, and
    leaves the tape empty however it exits.  When `params` is given, any
    listed tensor the loss never touched gets an explicit zero gradient.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    try:
        while _tape:
            outputs, fn = _tape.pop()
            if any(out.grad is not None for out in outputs):
                fn(*outputs)
    finally:
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


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            step_major: bool = False) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); draws nothing at p=0.
    `step_major` draws x (B, T, ...)'s mask as T draws of (B, ...) would.
    Only the boolean mask is kept for the backward pass."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    draw = rng.random(x.shape[1::-1] + x.shape[2:]).swapaxes(0, 1) \
        if step_major else rng.random(x.shape)
    kept = draw >= p
    scale = x.dtype.type(1.0) / x.dtype.type(1.0 - p)

    def bw(out):
        g = out.grad * scale
        g *= kept
        x.accumulate_grad(g, owned=True)

    out = x.data * scale
    out *= kept
    return _make((x,), bw, out)


def cross_entropy(x: Tensor, w: Tensor, targets: np.ndarray) -> Tensor:
    """The output layer and its loss as one record: the mean negative
    log-likelihood of `targets` (N,) under the softmax of x @ w, for x
    (N, H) and w (H, V).

    Callers pass only the rows that count.  The record keeps the (N, V)
    probabilities alone and turns them into the logits' gradient in place.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"cross_entropy needs x (N, H) and w (H, V), got "
                         f"{x.shape} and {w.shape}")
    targets = np.asarray(targets)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cross_entropy: no target rows")
    rows = np.arange(n)
    probs = np.matmul(x.data, w.data)
    probs -= probs.max(axis=1, keepdims=True)
    picked = probs[rows, targets]
    np.exp(probs, out=probs)
    total = probs.sum(axis=1, keepdims=True)
    nll = np.log(total[:, 0]) - picked
    probs /= total
    value = np.asarray(nll.sum() / n, dtype=x.dtype)

    def bw(out):
        probs[rows, targets] -= 1.0
        np.multiply(probs, out.grad / n, out=probs)
        if x.requires_grad:
            x.accumulate_grad(np.matmul(probs, w.data.T), owned=True)
        if w.requires_grad:
            w.accumulate_grad(np.matmul(x.data.T, probs), owned=True)

    return _make((x, w), bw, value)


# ---------------------------------------------------------------------------
# fused recurrent and attention steps


def _gates(z: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
           mask: np.ndarray, keep: np.ndarray):
    """The LSTM step's arithmetic from pre-activations z (..., 4H), gates in
    i, f, g, o order; the i, f and o sigmoids run in one pass over z.

    `mask` (..., 1) carries the previous state through padded rows, and
    `keep` is 1 - mask.  Returns the new h and c and the activated gates
    (..., 4H), tanh(g) in the g block: with the cell states, all that
    `_gates_backward` needs.
    """
    hidden = z.shape[-1] // 4
    gates = 0.5 * z
    np.tanh(gates, out=gates)
    gates += 1.0
    gates *= 0.5
    g = gates[..., 2 * hidden:3 * hidden]
    np.tanh(z[..., 2 * hidden:3 * hidden], out=g)
    c_new = gates[..., hidden:2 * hidden] * c_prev
    c_new += gates[..., :hidden] * g
    h_new = gates[..., 3 * hidden:] * np.tanh(c_new)
    h_new *= mask
    h_new += keep * h_prev
    c_new = mask * c_new + keep * c_prev
    return h_new, c_new, gates


def _gates_backward(gh: np.ndarray, gc: np.ndarray, c_prev: np.ndarray,
                    c_new: np.ndarray, mask: np.ndarray, gates: np.ndarray):
    """Gradients of the pre-activations z and of the unmasked new cell,
    from the gradients of a step's outputs h and c.  `c_new` is the step's
    masked new cell, whose tanh is recomputed: where `mask` is 0 it is not
    the unmasked cell's, but the masked gradients are zero there.  The
    caller passes the masked carries, `gh * keep` and `gc * keep`, back
    to the previous state itself."""
    hidden = gh.shape[-1]
    g = gates[..., 2 * hidden:3 * hidden]
    tc = np.tanh(c_new)
    gh, gc = gh * mask, gc * mask
    gc_total = gh * gates[..., 3 * hidden:]
    gc_total *= 1.0 - tc * tc
    gc_total += gc
    # each sigmoid gate's block of gz is (first factor * s) * (1 - s) for
    # its sigmoid s; the g block is (gc_total * i) * (1 - g * g)
    gz = np.empty(gh.shape[:-1] + (4 * hidden,), dtype=gh.dtype)
    np.multiply(gc_total, g, out=gz[..., :hidden])
    np.multiply(gc_total, c_prev, out=gz[..., hidden:2 * hidden])
    g_block = gc_total * gates[..., :hidden]
    gz[..., 2 * hidden:3 * hidden] = g_block
    np.multiply(gh, tc, out=gz[..., 3 * hidden:])
    gz *= gates
    gz *= 1.0 - gates
    np.multiply(g_block, 1.0 - g * g, out=gz[..., 2 * hidden:3 * hidden])
    return gz, gc_total


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              w_x: Tensor, w_h: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step with gates in i, f, g, o order: `lstm_scan` over one
    unmasked position, started from (h_prev, c_prev).

    x: (B, In), h_prev/c_prev: (B, H), w_x: (In, 4H), w_h: (H, 4H), b: (4H,).
    """
    x = reshape(x, (x.shape[0], 1, x.shape[-1]))
    mask = np.ones((x.shape[0], 1), dtype=x.dtype)
    return lstm_scan(x, mask, [(w_x, w_h, b)], initial=(h_prev, c_prev))[1:]


def lstm_scan(x: Tensor, mask: np.ndarray,
              cells: Sequence[tuple[Tensor, Tensor, Tensor]],
              initial: Optional[tuple[Tensor, Tensor]] = None
              ) -> tuple[Tensor, Tensor, Tensor]:
    """A whole LSTM layer over x (B, M, In) as a single graph record.

    `cells` holds one (w_x, w_h, b) per direction, shaped as for
    `lstm_cell`: the first reads left to right, a second, if given, right
    to left.  Each starts from zero states, or from `initial`, an (h, c)
    pair shaped like the finals, and takes one LSTM step per position;
    where `mask` (B, M) is 0 a row carries its state through.
    Returns the states (B, M, D*H) and the final h and c (B, D*H),
    directions concatenated in `cells` order.  For the backward pass the
    record keeps each step's cell and activated gates; it reads each
    step's hidden state back from the returned states and recomputes the
    tanh of each cell.

    The directions advance together: each step makes one stacked matmul
    for the input projections of all directions and one for the
    recurrent ones, and runs the gate arithmetic once over the stacked
    pre-activations.  Each product is the BLAS call a chain of masked
    one-step records per direction makes (picking each position,
    stacking the outputs, concatenating the directions), and the
    backward pass sums every gradient, those of `initial` included, in
    that chain's order, so states, finals and gradients are bit for bit
    the chain's, at every shape.  Hoisting a product out of the loop
    would not be: with OpenBLAS, one GEMM over all B*M rows differs from
    the per-step products for a batch of one row (which takes gemv) and
    at some widths, and so does one input gradient GEMM over all steps,
    whose operand is transposed.
    """
    if x.ndim != 3 or not 1 <= len(cells) <= 2:
        raise ValueError(f"lstm_scan needs x (B, M, In) and one or two "
                         f"cells, got x {x.shape} and {len(cells)} cells")
    batch, steps, width = x.shape
    hidden = cells[0][1].shape[0]
    for cell in cells:
        shapes = [p.shape for p in cell]
        if shapes != [(width, 4 * hidden), (hidden, 4 * hidden),
                      (4 * hidden,)]:
            raise ValueError(
                f"lstm_scan dimension mismatch: x {x.shape}, w_x {shapes[0]}, "
                f"w_h {shapes[1]}, b {shapes[2]}")
    mask = np.asarray(mask)
    if mask.shape != (batch, steps):
        raise ValueError(f"lstm_scan mask {mask.shape} does not fit "
                         f"x {x.shape}")
    initial = tuple(initial or ())
    for name, state in zip("hc", initial):
        if state.shape != (batch, len(cells) * hidden):
            raise ValueError(f"lstm_scan initial {name} {state.shape} does "
                             f"not fit ({batch}, {len(cells) * hidden})")

    def per_step(g):
        """(B, D*H) -> (direction, B, H)."""
        return g.reshape(batch, len(cells), hidden).transpose(1, 0, 2)

    # step s of direction d reads position s, or steps-1-s right to left;
    # the per-step arrays are (step, direction, B, ...), the weights
    # (direction, ...)
    order = (slice(None), slice(None, None, -1))[:len(cells)]
    # one direction reads x as a view, two stack their reading orders
    x_steps = x.data.transpose(1, 0, 2)
    xs = x_steps[:, None] if len(cells) == 1 \
        else np.stack([x_steps[o] for o in order], axis=1)
    m_steps = mask.astype(x.dtype).T[:, :, None]
    ms = np.stack([m_steps[o] for o in order], axis=1)
    keeps = 1.0 - ms
    # one direction reads its weights as views: a decoding step copies none
    w_x, w_h, bias = (cells[0][k].data[None] if len(cells) == 1 else
                      np.stack([cell[k].data for cell in cells])
                      for k in range(3))
    bias = bias[:, None, :]
    # cs[s] holds the cell before step s; the hidden state after each
    # step goes only into `states`, whose slices the backward pass reads
    cs = np.zeros((steps + 1, len(cells), batch, hidden), dtype=x.dtype)
    h_first = np.zeros_like(cs[0])
    for carried, state in zip((h_first, cs[0]), initial):
        carried[...] = per_step(state.data)
    # the (position, block) of `states` each direction writes at step s
    slots = [[(p, slice(d * hidden, (d + 1) * hidden))
              for d, p in enumerate((s, steps - 1 - s)[:len(cells)])]
             for s in range(steps)]
    states = np.empty((batch, steps, len(cells) * hidden), dtype=x.dtype)
    h, gates = h_first, []
    for s in range(steps):
        z = np.matmul(xs[s], w_x) + np.matmul(h, w_h) + bias
        h, cs[s + 1], gates_s = _gates(z, h, cs[s], ms[s], keeps[s])
        gates.append(gates_s)
        for d, (p, block) in enumerate(slots[s]):
            states[:, p, block] = h[d]
    h_last = np.concatenate(list(h), axis=-1)
    c_last = np.concatenate(list(cs[steps]), axis=-1)

    def h_before(s):
        """The hidden state before step s, (direction, B, H)."""
        return h_first if s == 0 else \
            np.stack([states[:, p, block] for p, block in slots[s - 1]])

    def bw(states_out, h_out, c_out):
        zero = np.zeros_like(h_first)
        g_states = None
        if states_out.grad is not None:
            g = states_out.grad.reshape(batch, steps, len(cells), hidden)
            g_states = np.stack([g[:, o, d].transpose(1, 0, 2)
                                 for d, o in enumerate(order)], axis=1)
        gh = None if h_out.grad is None else per_step(h_out.grad)
        gc = None if c_out.grad is None else per_step(c_out.grad)
        if g_states is not None:
            gh = g_states[-1] if gh is None else gh + g_states[-1]
        w_x_t, w_h_t = w_x.swapaxes(-1, -2), w_h.swapaxes(-1, -2)
        if x.requires_grad and x.grad is None:
            x.grad = np.zeros_like(x.data)
        for s in range(steps - 1, -1, -1):
            gh_s = zero if gh is None else gh
            gc_s = zero if gc is None else gc
            gz, gc_total = _gates_backward(gh_s, gc_s, cs[s], cs[s + 1],
                                           ms[s], gates[s])
            if x.requires_grad:
                gx = np.matmul(gz, w_x_t)
                for d in range(len(cells)):
                    x.grad[:, (s, steps - 1 - s)[d]] += gx[d]
            grads = (np.matmul(xs[s].swapaxes(-1, -2), gz),
                     np.matmul(h_before(s).swapaxes(-1, -2), gz),
                     gz.sum(axis=1))
            for d, cell in enumerate(cells):
                for p, gp in zip(cell, grads):
                    if p.requires_grad:
                        p.accumulate_grad(gp[d], owned=True)
            if s > 0 or initial:
                # (output term + masked carry) + recurrent term, as the
                # chain of cell records sums them
                carry = gh_s * keeps[s]
                gh = carry if g_states is None or s == 0 \
                    else g_states[s - 1] + carry
                gh += np.matmul(gz, w_h_t)
                gc = gc_s * keeps[s]
                gc += gc_total * gates[s][..., hidden:2 * hidden]
        for state, g in zip(initial, (gh, gc)):
            if state.requires_grad and g is not None:
                state.accumulate_grad(np.concatenate(list(g), axis=-1),
                                      owned=True)

    return _make((x,) + tuple(p for cell in cells for p in cell) + initial,
                 bw, states, h_last, c_last)


def dot_attention(states: Tensor, mask: np.ndarray, query: Tensor
                  ) -> tuple[Tensor, Tensor]:
    """Masked dot-score attention of queries (B, T, H), or of one query
    (B, H), over states (B, M, H).

    Returns (mixtures (B, T, H), weights (B, T, M)), or (B, H) and (B, M)
    for one query.  Weights are zero exactly on masked positions and sum
    to 1 over the unmasked ones; a row with no unmasked position gets
    zero weights, so its mixture is an exact zero vector and no gradient
    flows through it.  Each query's scores and mixture are the
    matrix-vector products a one-query call makes, so the forward pass
    over T queries is bit for bit T one-query calls; one GEMM over all
    queries would round differently under OpenBLAS.
    """
    queries = query.data[:, None, :] if query.ndim == 2 else query.data
    scores = np.matmul(states.data[:, None], queries[..., None])[..., 0]
    if np.isnan(scores).any():
        raise ValueError("attention scores contain NaN")
    shifted = scores + (mask[:, None, :] - 1.0) * 1e9
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    w = e / e.sum(axis=-1, keepdims=True)
    empty = ~mask.any(axis=-1)
    if empty.any():
        w[empty] = 0.0
    mixed = np.matmul(w[:, :, None, :], states.data[:, None])[:, :, 0]

    def bw(mix_out, w_out):
        gmix = None if mix_out.grad is None \
            else mix_out.grad.reshape(mixed.shape)
        gw = np.zeros_like(w) if gmix is None \
            else np.matmul(gmix, states.data.swapaxes(-1, -2))
        if w_out.grad is not None:
            gw = gw + w_out.grad.reshape(w.shape)
        gscores = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        if states.requires_grad:
            gstates = np.matmul(gscores.swapaxes(-1, -2), queries)
            if gmix is not None:
                gstates += np.matmul(w.swapaxes(-1, -2), gmix)
            states.accumulate_grad(gstates, owned=True)
        if query.requires_grad:
            gq = np.matmul(gscores, states.data)
            query.accumulate_grad(gq.reshape(query.shape), owned=True)

    if query.ndim == 2:
        return _make((states, query), bw, mixed[:, 0], w[:, 0])
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
