import functools
import re
import sys
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docnmt import tensor as T

from minigraphs import FAMILIES, build_minigraph, reduce_sum
from model_helpers import all_on_worker
from oracles import (cell_chain, finite_difference_grads, max_relative_error,
                     scalar_lstm_step)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_stability_large_logits(self):
        out = T.softmax(T.Tensor([1000.0, 1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)
        assert np.isfinite(out.data).all()

    def test_known_values(self):
        # expected values from direct high-precision evaluation of exp/sum
        out = T.softmax(T.Tensor([1.0, 2.0, 3.0], dtype=np.float64))
        np.testing.assert_allclose(
            out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError):
            T.softmax(T.Tensor([0.0, float("nan")]))

    @pytest.mark.parametrize("row", [[-np.inf, -np.inf], [np.inf, 0.0]])
    def test_infinite_maximum_rejected(self, row):
        # its probabilities would be NaN, and beam search could rank no
        # candidate of the row
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="infinite maximum"):
            T.softmax(T.Tensor(row))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=(4, 9)).astype(np.float32)
            out = T.softmax(T.Tensor(x))
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
            assert (out.data >= 0).all()

    def test_shift_invariance(self):
        # float64 so adding the constant is itself exact
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=(4, 9))
            out = T.softmax(T.Tensor(x, dtype=np.float64))
            shifted = T.softmax(T.Tensor(x + 123.0, dtype=np.float64))
            np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


class TestLstmCell:
    def _zero_weights(self, emb, hidden, dtype=np.float64):
        w_x = T.Tensor(np.zeros((emb, 4 * hidden)), dtype=dtype)
        w_h = T.Tensor(np.zeros((hidden, 4 * hidden)), dtype=dtype)
        b = T.Tensor(np.zeros(4 * hidden), dtype=dtype)
        return w_x, w_h, b

    def test_all_zero(self):
        w_x, w_h, b = self._zero_weights(2, 3)
        x = T.Tensor(np.zeros((1, 2)), dtype=np.float64)
        h0 = T.Tensor(np.zeros((1, 3)), dtype=np.float64)
        c0 = T.Tensor(np.zeros((1, 3)), dtype=np.float64)
        h, c = T.lstm_cell(x, h0, c0, w_x, w_h, b)
        assert (h.data == 0).all() and (c.data == 0).all()

    def test_zero_weights_carry_cell(self):
        # all gates sit at sigmoid(0)=0.5, so c = 0.5*c_prev and h = 0.5*tanh(c)
        w_x, w_h, b = self._zero_weights(2, 3)
        v = np.array([[0.3, -1.2, 2.0]])
        x = T.Tensor(np.zeros((1, 2)), dtype=np.float64)
        h0 = T.Tensor(np.zeros((1, 3)), dtype=np.float64)
        c0 = T.Tensor(v, dtype=np.float64)
        h, c = T.lstm_cell(x, h0, c0, w_x, w_h, b)
        np.testing.assert_allclose(c.data, 0.5 * v, atol=1e-12)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * v), atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        emb, hidden = 4, 3
        w_x = rng.normal(size=(emb, 4 * hidden))
        w_h = rng.normal(size=(hidden, 4 * hidden))
        b = rng.normal(size=4 * hidden)
        x = rng.normal(size=emb)
        h_prev = rng.normal(size=hidden)
        c_prev = rng.normal(size=hidden)
        h, c = T.lstm_cell(
            T.Tensor(x[None, :], dtype=np.float64),
            T.Tensor(h_prev[None, :], dtype=np.float64),
            T.Tensor(c_prev[None, :], dtype=np.float64),
            T.Tensor(w_x, dtype=np.float64), T.Tensor(w_h, dtype=np.float64),
            T.Tensor(b, dtype=np.float64))
        h_ref, c_ref = scalar_lstm_step(
            x.tolist(), h_prev.tolist(), c_prev.tolist(),
            w_x.tolist(), w_h.tolist(), b.tolist())
        np.testing.assert_allclose(h.data[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c.data[0], c_ref, atol=1e-12)

    def test_dimension_mismatch(self):
        w_x, w_h, b = self._zero_weights(2, 3)
        bad_x = T.Tensor(np.zeros((1, 5)), dtype=np.float64)
        h0 = T.Tensor(np.zeros((1, 3)), dtype=np.float64)
        with pytest.raises(ValueError):
            T.lstm_cell(bad_x, h0, h0, w_x, w_h, b)


def one_step(x, mask, cells, initial):
    """`lstm_cell` as a layer over x (B, 1, In): states, final h, final c."""
    batch, _, width = x.shape
    h, c = T.lstm_cell(T.reshape(x, (batch, width)), *initial, *cells[0])
    return T.reshape(h, (batch, 1, h.shape[-1])), h, c


class TestLstmScan:
    @settings(max_examples=60, deadline=None)
    @given(layer=st.sampled_from([T.lstm_scan, one_step]),
           batch=st.sampled_from([1, 2, 5, 16]),
           steps=st.integers(1, 7),
           width=st.integers(1, 64),
           hidden=st.integers(1, 64),
           directions=st.sampled_from([1, 2]),
           start=st.booleans(),
           reads=st.sets(st.sampled_from([0, 1, 2]), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_cell_chain_bit_for_bit(self, layer, batch, steps, width,
                                           hidden, directions, start, reads,
                                           seed):
        # a one-direction layer may start from tracked random (h, c);
        # lstm_cell is one such layer over one unmasked position.  The
        # loss reads the subset `reads` of (states, h, c): training reads
        # a decoder's states and never its finals
        if layer is one_step:
            steps, directions, start = 1, 1, True
        start = start and directions == 1
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, steps + 1, size=batch)
        lengths[0] = 1                      # a length-1 row, padded after
        mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(
            np.float32)
        x_data = rng.normal(size=(batch, steps, width)).astype(np.float32)
        cells_data = [
            tuple(rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)
                  for shape in ((width, 4 * hidden), (hidden, 4 * hidden),
                                (4 * hidden,)))
            for _ in range(directions)]
        initial_data = [rng.normal(size=(batch, hidden)).astype(np.float32)
                        for _ in range(2 if start else 0)]
        probes = [rng.normal(size=shape).astype(np.float32)
                  for shape in ((batch, steps, directions * hidden),
                                (batch, directions * hidden),
                                (batch, directions * hidden))]

        def run(layer):
            x = T.Tensor(x_data.copy(), requires_grad=True)
            cells = [tuple(T.Tensor(a.copy(), requires_grad=True)
                           for a in cell) for cell in cells_data]
            initial = tuple(T.Tensor(a.copy(), requires_grad=True)
                            for a in initial_data) or None
            outs = layer(x, mask, cells, initial)
            T.backward(functools.reduce(T.add, [
                reduce_sum(T.mul(outs[k], probes[k])) for k in sorted(reads)]))
            return [out.data for out in outs] + [x.grad] + [
                p.grad for cell in cells for p in cell] + [
                s.grad for s in initial or ()]

        got, want = run(layer), run(cell_chain)
        # the size rule at 0 sends every product to the worker thread
        with mock.patch.object(T, "WORKER_MIN_MACS", 0):
            on_worker = run(layer)
        assert len(got) == len(want) == 4 + 3 * directions + 2 * start
        for g, o, w in zip(got, on_worker, want):
            # bit patterns: assert_array_equal would take -0.0 for 0.0
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == o.tobytes() == w.tobytes()

    @pytest.mark.parametrize("x_shape,mask_shape,cell_shapes,named", [
        ((2, 3, 4), (2, 3), [((5, 8), (2, 8), (8,))], "w_x (5, 8)"),
        ((2, 3, 4), (2, 3), [((4, 8), (2, 8), (8,)), ((4, 8), (3, 12), (12,))],
         "w_h (3, 12)"),
        ((2, 3, 4), (2, 3), [((4, 8), (2, 8), (6,))], "b (6,)"),
        ((2, 3, 4), (3, 2), [((4, 8), (2, 8), (8,))], "mask (3, 2)"),
        ((2, 4), (2, 3), [((4, 8), (2, 8), (8,))], "x (2, 4)"),
        ((2, 3, 4), (2, 3), [((4, 8), (2, 8), (8,))] * 3, "3 cells"),
        ((2, 3, 4), (2, 3), [((4, 8), (2, 8), (8,))] * 2,
         "initial h (2, 2) does not fit (2, 4)")])
    def test_mismatched_shapes_rejected(self, x_shape, mask_shape,
                                        cell_shapes, named):
        x = T.Tensor(np.zeros(x_shape), requires_grad=True)
        cells = [tuple(T.Tensor(np.zeros(s), requires_grad=True)
                       for s in shapes) for shapes in cell_shapes]
        # a start state that fits one direction, given to two
        initial = (T.Tensor(np.zeros((2, 2)), requires_grad=True),) * 2
        with pytest.raises(ValueError, match=re.escape(named)):
            T.lstm_scan(x, np.ones(mask_shape), cells, initial)
        assert T.active_graph() == []


class TestDotAttention:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.sampled_from([1, 2, 16]), steps=st.integers(1, 9),
           queries=st.integers(1, 9), hidden=st.integers(1, 64),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_queries_equal_one_query_calls_bit_for_bit(
            self, batch, steps, queries, hidden, dtype, seed):
        rng = np.random.default_rng(seed)
        states = T.Tensor(rng.normal(size=(batch, steps, hidden)), dtype=dtype)
        query = T.Tensor(rng.normal(size=(batch, queries, hidden)),
                         dtype=dtype)
        mask = (rng.random((batch, steps)) < 0.7).astype(np.float32)
        mask[:, 0] = 1.0
        mixed, weights = T.dot_attention(states, mask, query)
        for t in range(queries):
            one = T.Tensor(np.ascontiguousarray(query.data[:, t]))
            mixed_t, weights_t = T.dot_attention(states, mask, one)
            assert mixed_t.shape == (batch, hidden)
            assert weights_t.shape == (batch, steps)
            np.testing.assert_array_equal(mixed.data[:, t], mixed_t.data)
            np.testing.assert_array_equal(weights.data[:, t], weights_t.data)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.sampled_from([2, 3, 16]), steps=st.integers(1, 9),
           queries=st.sampled_from([None, 1, 2, 5, 9]),
           hidden=st.integers(1, 64), unread=st.sampled_from([0, 1]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_unread_output_equals_zero_probe_bit_for_bit(
            self, batch, steps, queries, hidden, unread, dtype, seed):
        # training never reads the weights: leaving an output unread
        # gives the input gradients, bit for bit, of reading it with an
        # all-zero probe; row 0 is fully masked
        rng = np.random.default_rng(seed)
        states_data = rng.normal(size=(batch, steps, hidden)).astype(dtype)
        query_data = rng.normal(size=(batch, hidden) if queries is None
                                else (batch, queries, hidden)).astype(dtype)
        mask = (rng.random((batch, steps)) < 0.7).astype(np.float32)
        mask[:, 0], mask[0] = 1.0, 0.0
        probes = [rng.normal(size=shape).astype(dtype) for shape in
                  (query_data.shape, query_data.shape[:-1] + (steps,))]
        probes[unread][...] = 0.0

        def grads(zero_probe):
            states = T.Tensor(states_data.copy(), requires_grad=True)
            query = T.Tensor(query_data.copy(), requires_grad=True)
            outs = T.dot_attention(states, mask, query)
            read = [0, 1] if zero_probe else [1 - unread]
            T.backward(functools.reduce(T.add, [
                reduce_sum(T.mul(outs[k], probes[k])) for k in read]))
            return states.grad, query.grad

        for got, want in zip(grads(False), grads(True)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_fully_masked_row_reads_zero(self):
        # a document's first sentence has a fully masked context row: it
        # reads an exact zero vector, and nothing flows back through it
        rng = np.random.default_rng(4)
        states = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True,
                          dtype=np.float64)
        query = T.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True,
                         dtype=np.float64)
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        mixed, weights = T.dot_attention(states, mask, query)
        assert (weights.data[1] == 0.0).all() and (mixed.data[1] == 0.0).all()
        np.testing.assert_allclose(weights.data[0].sum(axis=-1), 1.0)
        T.backward(T.add(reduce_sum(T.tanh(mixed)), reduce_sum(weights)))
        assert (states.grad[1] == 0.0).all() and (query.grad[1] == 0.0).all()
        assert (query.grad[0] != 0.0).any()


class TestBackward:
    def test_sum_gives_ones(self):
        w = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        reduce_sum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3), dtype=np.float32))

    def test_dot_gradients(self):
        a = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = T.Tensor([4.0, 5.0, 6.0], requires_grad=True)
        reduce_sum(T.mul(a, b)).backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_non_scalar_loss_rejected(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(T.mul(a, a))

    def test_unreached_params_get_zero(self):
        a = T.Tensor([1.0], requires_grad=True)
        unused = T.Tensor([5.0, 6.0], requires_grad=True)
        loss = reduce_sum(T.mul(a, a))
        T.backward(loss, params=[a, unused])
        np.testing.assert_array_equal(unused.grad, [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(len(FAMILIES)))
    def test_minigraph_matches_finite_differences(self, seed):
        params, forward = build_minigraph(seed)
        T.backward(forward(), params=params)
        analytic = [p.grad.copy() for p in params]

        def loss_value():
            with T.no_grad():
                return float(forward().data)

        numeric = finite_difference_grads(loss_value, [p.data for p in params])
        assert max_relative_error(analytic, numeric) < 1e-5

    # every family but masked attention, which has no product the worker
    # takes
    @pytest.mark.parametrize("seed", [
        seed for seed, family in enumerate(FAMILIES)
        if family.__name__ != "_masked_attention"])
    def test_minigraph_on_worker_equals_inline_bit_for_bit(self, seed,
                                                           monkeypatch):
        def run():
            params, forward = build_minigraph(seed)
            loss = forward()
            T.backward(loss, params=params)
            return [loss.data.tobytes()] + [p.grad.tobytes() for p in params]

        inline = run()
        handed = all_on_worker(monkeypatch)
        assert run() == inline and handed

    def test_worker_adds_into_existing_gradients_bit_for_bit(self,
                                                             monkeypatch):
        # w feeds two matmuls and v a cross-entropy and a matmul, so the
        # second record of each to run adds into a gradient it did not make
        rng = np.random.default_rng(4)
        data = [rng.normal(size=shape) for shape in ((5, 4), (4, 4), (4, 3))]
        targets = rng.integers(0, 3, size=5)

        def run():
            x, w, v = (T.Tensor(a, requires_grad=True) for a in data)
            h = T.tanh(T.matmul(T.tanh(T.matmul(x, w)), w))
            T.backward(T.add(T.cross_entropy(h, v, targets),
                             reduce_sum(T.matmul(h, v))))
            return [t.grad.tobytes() for t in (x, w, v)]

        inline = run()
        handed = all_on_worker(monkeypatch)
        # a short switch interval lets the threads interleave often, so a
        # write racing another would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert run() == inline
        finally:
            sys.setswitchinterval(interval)
        assert len(handed) == 20 * 4

    def test_failing_record_leaves_no_job_behind(self, monkeypatch):
        # the scan's third backward step fails; the two jobs queued before
        # it are slow, so a record that did not wait for them would return
        # before they ran
        all_on_worker(monkeypatch)
        steps_run, jobs_done = [], []
        gates_backward, cell_grads = T._gates_backward, T._cell_grads

        def failing_gates_backward(*args):
            steps_run.append(len(steps_run))
            if len(steps_run) == 3:
                raise RuntimeError("step failed")
            return gates_backward(*args)

        def slow_cell_grads(*args):
            time.sleep(0.05)
            cell_grads(*args)
            jobs_done.append(threading.current_thread())

        monkeypatch.setattr(T, "_gates_backward", failing_gates_backward)
        monkeypatch.setattr(T, "_cell_grads", slow_cell_grads)
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        cell = tuple(T.Tensor(rng.normal(size=shape), requires_grad=True)
                     for shape in ((3, 8), (2, 8), (8,)))
        states, _, _ = T.lstm_scan(x, np.ones((2, 4)), [cell])
        with pytest.raises(RuntimeError, match="step failed"):
            T.backward(reduce_sum(states))
        done_at_return = len(jobs_done)
        assert T.active_graph() == []
        assert done_at_return == 2
        assert threading.current_thread() not in jobs_done
        # the worker runs jobs in order: once this one has run, so has
        # every job queued before it
        T._worker.submit(lambda: None).result(timeout=10)
        assert len(jobs_done) == done_at_return

    def test_grad_accumulates_across_reuse(self):
        a = T.Tensor([2.0], requires_grad=True)
        loss = T.add(T.mul(a, a), T.mul(a, 3.0))  # a^2 + 3a -> 2a + 3 = 7
        loss = reduce_sum(loss)
        loss.backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_raising_backward_leaves_the_tape_empty(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)

        def fail(out):
            raise RuntimeError("backward failed")

        broken = T._make((a,), fail, a.data * 2.0)
        with pytest.raises(RuntimeError, match="backward failed"):
            T.backward(reduce_sum(T.tanh(broken)))
        assert T.active_graph() == []
        # a fresh graph runs none of the failed graph's records
        b = T.Tensor([3.0], requires_grad=True)
        T.backward(reduce_sum(T.mul(b, b)))
        np.testing.assert_array_equal(b.grad, [6.0])

    def test_consumed_records_are_freed_before_earlier_ones_run(self):
        # the outputs of records that already ran, and what those records
        # held, are gone by the time the first record runs; a tensor
        # holds its data, so freed data means a freed tensor
        x = T.Tensor(np.ones(3), requires_grad=True)
        seen = []

        def first(out):
            seen.append([ref() for ref in refs])
            x.accumulate_grad(out.grad)

        y = T._make((x,), first, x.data.copy())
        z = T.tanh(y)
        w = T.tanh(z)
        refs = [weakref.ref(z.data), weakref.ref(w.data)]
        loss = reduce_sum(w)
        del z, w
        T.backward(loss)
        assert seen == [[None, None]]
        assert x.grad is not None

    def test_no_grad_suppresses_taping(self):
        a = T.Tensor([1.0], requires_grad=True)
        before = len(T.active_graph())
        with T.no_grad():
            out = T.mul(a, a)
        assert len(T.active_graph()) == before and not out.requires_grad


class TestAdaGrad:
    def test_zero_gradient_leaves_params(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        opt = T.AdaGrad([p], lr=0.01)
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_unit_gradient(self):
        p = T.Tensor([0.0], requires_grad=True, dtype=np.float64)
        opt = T.AdaGrad([p], lr=0.01)
        p.grad = np.ones(1)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01 / (1.0 + 1e-8)], rtol=1e-12)

    def test_second_step_scales_by_sqrt_two(self):
        p = T.Tensor([0.0], requires_grad=True, dtype=np.float64)
        opt = T.AdaGrad([p], lr=0.01)
        p.grad = np.ones(1)
        opt.step()
        first = p.data.copy()
        p.grad = np.ones(1)
        opt.step()
        second_delta = p.data - first
        np.testing.assert_allclose(second_delta, [-0.01 / np.sqrt(2.0)], atol=1e-8)

    def test_accumulator_never_decreases(self):
        rng = np.random.default_rng(3)
        p = T.Tensor(rng.normal(size=8), requires_grad=True)
        opt = T.AdaGrad([p], lr=0.01)
        prev = opt.accum[0].copy()
        for _ in range(25):
            p.grad = rng.normal(size=8).astype(np.float32)
            opt.step()
            assert (opt.accum[0] >= prev).all()
            prev = opt.accum[0].copy()


class TestDropout:
    def test_p_zero_is_identity(self):
        x = T.Tensor([1.0, 2.0])
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_invalid_probability(self):
        x = T.Tensor([1.0])
        with pytest.raises(ValueError):
            T.dropout(x, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_scaled_mask_bit_for_bit(self, dtype):
        # kept as a boolean mask, dropout still multiplies by the mask
        # (draw >= p) / (1 - p) in x's dtype, forward and backward
        x = T.Tensor(np.random.default_rng(6).normal(size=(5, 7)),
                     requires_grad=True, dtype=dtype)
        mask = (np.random.default_rng(8).random(x.shape) >= 0.3).astype(
            dtype) / (1.0 - 0.3)
        out = T.dropout(x, 0.3, np.random.default_rng(8))
        probe = np.random.default_rng(9).normal(size=x.shape).astype(dtype)
        T.backward(reduce_sum(T.mul(out, probe)))
        assert out.data.tobytes() == (x.data * mask).tobytes()
        assert x.grad.tobytes() == (mask * probe).tobytes()

    def test_mean_preserved(self):
        x = T.Tensor(np.ones(100_000))
        out = T.dropout(x, 0.2, np.random.default_rng(42))
        assert abs(float(out.data.mean()) - 1.0) < 0.02


class TestDeterminism:
    def _run(self):
        rng = np.random.default_rng(11)
        params, forward = build_minigraph(3)
        loss = forward()
        T.backward(loss, params=params)
        drop = T.dropout(T.Tensor(rng.normal(size=50)), 0.3,
                         np.random.default_rng(5))
        return float(loss.data), [p.grad.copy() for p in params], drop.data.copy()

    def test_bit_identical_across_runs(self):
        l1, g1, d1 = self._run()
        l2, g2, d2 = self._run()
        assert l1 == l2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(d1, d2)


class TestClip:
    def test_norm_bounded_after_clip(self):
        rng = np.random.default_rng(9)
        params = [T.Tensor(np.zeros(4), requires_grad=True) for _ in range(3)]
        for p in params:
            p.grad = rng.normal(scale=10.0, size=4).astype(np.float32)
        before = T.clip_global_norm(params, 5.0)
        assert before > 5.0
        after = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert after <= 5.0 + 1e-5
