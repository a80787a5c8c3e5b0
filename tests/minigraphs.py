"""Random op compositions for gradient checking.

`reduce_sum` and `mean` reduce a graph to a scalar loss; the library has
no use for them, so they live here.

Each family wires several engine ops into a scalar loss.  `build_minigraph`
returns the parameter tensors plus a forward closure that recomputes the
loss from the parameters' current contents, which is exactly what the
finite-difference oracle needs.
"""

import numpy as np

from docnmt import tensor as T


def reduce_sum(x):
    """The sum of all entries, one tape record."""
    def bw(out):
        x.accumulate_grad(np.broadcast_to(out.grad, x.shape).copy(),
                          owned=True)

    return T._make((x,), bw, x.data.sum())


def mean(x):
    """The mean of all entries, one tape record."""
    def bw(out):
        x.accumulate_grad(np.full(x.shape, out.grad / x.size, dtype=x.dtype),
                          owned=True)

    return T._make((x,), bw, np.asarray(x.data.mean(), dtype=x.dtype))


def _param(rng, *shape):
    return T.Tensor(rng.uniform(-0.9, 0.9, size=shape), requires_grad=True,
                    dtype=np.float64)


def _affine_tanh(rng):
    w = _param(rng, 4, 5)
    b = _param(rng, 5)
    x = T.Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    c = T.Tensor(rng.normal(size=(3, 5)), dtype=np.float64)

    def forward():
        y = T.tanh(T.add(T.matmul(x, w), b))
        return mean(T.mul(y, c))

    return [w, b], forward


def _softmax_pipeline(rng):
    w = _param(rng, 3, 6)
    x = T.Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
    c = T.Tensor(rng.normal(size=(2, 6)), dtype=np.float64)

    def forward():
        p = T.softmax(T.matmul(x, w))
        return reduce_sum(T.mul(p, c))

    return [w], forward


def _embedding_loss(rng):
    table = _param(rng, 7, 4)
    proj = _param(rng, 4, 3)
    ids = rng.integers(0, 7, size=5)
    targets = rng.integers(0, 3, size=5)

    def forward():
        return T.cross_entropy(T.embedding(table, ids), proj, targets)

    return [table, proj], forward


def _lstm_chain(rng):
    hidden, emb = 3, 2
    w_x = _param(rng, emb, 4 * hidden)
    w_h = _param(rng, hidden, 4 * hidden)
    b = _param(rng, 4 * hidden)
    xs = [T.Tensor(rng.normal(size=(2, emb)), dtype=np.float64) for _ in range(3)]

    def forward():
        h = T.Tensor(np.zeros((2, hidden)), dtype=np.float64)
        c = T.Tensor(np.zeros((2, hidden)), dtype=np.float64)
        for x in xs:
            h, c = T.lstm_cell(x, h, c, w_x, w_h, b)
        return mean(h)

    return [w_x, w_h, b], forward


def _attention_readout(rng):
    states = _param(rng, 2, 4, 3)
    queries = _param(rng, 2, 3, 3)
    w = _param(rng, 6, 2)
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    c = T.Tensor(rng.normal(size=(6, 2)), dtype=np.float64)
    d = T.Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

    def forward():
        # three queries per row at once; the loss reads every query's
        # mixture, through [query; mixture] rows, and its weights
        mixed, weights = T.dot_attention(states, mask, queries)
        rows = T.reshape(T.concat([queries, mixed], axis=-1), (6, 6))
        loss = mean(T.mul(T.tanh(T.matmul(rows, w)), c))
        return T.add(loss, reduce_sum(T.mul(weights, d)))

    return [states, queries, w], forward


def _masked_attention(rng):
    states = _param(rng, 2, 4, 3)
    query = _param(rng, 2, 3)
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    c = T.Tensor(rng.normal(size=(2, 4)), dtype=np.float64)

    def forward():
        # the first attention's loss reads its mixture and its weights, the
        # second's only its weights
        mixed, weights = T.dot_attention(states, mask, query)
        _, weights_only = T.dot_attention(states, mask, T.tanh(query))
        loss = T.add(reduce_sum(T.tanh(mixed)),
                     reduce_sum(T.mul(weights, c)))
        return T.add(loss, reduce_sum(T.mul(weights_only, weights_only)))

    return [states, query], forward


def _lstm_scan(rng):
    width, hidden = 3, 2
    x = _param(rng, 2, 4, width)
    cells = [(_param(rng, width, 4 * hidden), _param(rng, hidden, 4 * hidden),
              _param(rng, 4 * hidden)) for _ in range(2)]
    initial = (_param(rng, 2, 2 * hidden), _param(rng, 2, 2 * hidden))
    # the second row is padded after two tokens, so both directions carry
    # their state through padding
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    probes = [T.Tensor(rng.normal(size=shape), dtype=np.float64)
              for shape in ((2, 4, 2 * hidden), (2, 2 * hidden),
                            (2, 2 * hidden))]

    def forward():
        # the states and both finals reach the loss, and each direction
        # starts from its half of the initial states
        outs = T.lstm_scan(x, mask, cells, initial)
        loss = reduce_sum(T.mul(outs[0], probes[0]))
        for out, probe in zip(outs[1:], probes[1:]):
            loss = T.add(loss, reduce_sum(T.mul(T.tanh(out), probe)))
        return loss

    return [x, *initial] + [p for cell in cells for p in cell], forward


FAMILIES = [_affine_tanh, _softmax_pipeline, _embedding_loss, _lstm_chain,
            _attention_readout, _masked_attention, _lstm_scan]


def build_minigraph(seed):
    """Deterministic random mini-graph; returns (params, forward)."""
    rng = np.random.default_rng(seed)
    family = FAMILIES[seed % len(FAMILIES)]
    return family(rng)
