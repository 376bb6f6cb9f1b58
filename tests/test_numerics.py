import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr import numerics
from adctr.numerics import (ADAGRAD_EPS, CheckpointError, ContractViolation, adagrad_step,
                            adagrad_step_rows, dropout_mask, load_tensors, make_rng, relu,
                            save_tensors, segment_sum, sigmoid)
from oracles import dropout, linear, masked_sigmoid, sequential_segment_sum


class TestLinear:
    def test_identity(self):
        x = np.array([3.0, -1.0])
        np.testing.assert_array_equal(linear(np.eye(2), np.zeros(2), x), x)

    def test_hand_multiply(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(linear(w, np.zeros(2), np.ones(2)), [3.0, 7.0])

    def test_zero_map(self):
        out = linear(np.zeros((2, 3)), np.full(2, 5.0), np.array([9.0, -2.0, 4.0]))
        np.testing.assert_array_equal(out, [5.0, 5.0])

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            linear(np.eye(2), np.zeros(2), np.ones(3))
        with pytest.raises(ContractViolation):
            linear(np.eye(2), np.zeros(3), np.ones(2))


def test_relu_and_sigmoid():
    assert relu(np.array([-2.5]))[0] == 0.0
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert sigmoid(0.0) == 0.5
    assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-12)
    # stable in both tails
    assert 0.0 <= sigmoid(-800.0) < 1e-300 or sigmoid(-800.0) == 0.0
    assert sigmoid(800.0) == 1.0


def test_sigmoid_equals_the_masked_form_bit_for_bit():
    rng = make_rng(8)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 745.2, -745.2,
                         746.0, -746.0, 1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7])
    with np.errstate(over="ignore"):  # +-1e308 become +-inf in float32
        specials32 = specials.astype(np.float32)
    grid = [specials, rng.normal(0.0, 10.0, 100_000), rng.normal(0.0, 800.0, 10_000),
            rng.normal(0.0, 10.0, 10_000).astype(np.float32), specials32,
            specials.reshape(1, -1, 1)]
    for s in grid:
        got, want = sigmoid(s), masked_sigmoid(s)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == s.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)  # NaN stays NaN, whatever its sign bit
        assert got[~nan].tobytes() == want[~nan].tobytes()
    for x in (0.0, -0.0, 2.5, -2.5, 745.5, -745.5, np.float32(-3.25), np.float64(40.0)):
        got = sigmoid(x)  # a scalar gives a 0-d float64 array
        assert got.shape == () and got.dtype == np.float64 and got == masked_sigmoid(x)
        assert got.tobytes() == np.float64(masked_sigmoid(x)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sum_forms_equal_a_sequential_float64_sum_bit_for_bit(dtype, monkeypatch):
    rng = make_rng(12)
    widest, shortest = numerics._PER_COLUMN_MAX_COLS, numerics._PER_COLUMN_MIN_ROWS
    cases = []
    for rows, n in ((0, 0), (0, 4), (1, 1), (7, 12), (shortest - 1, 40), (shortest, 600),
                    (2000, 128)):
        # unsorted segments, as finalize's slots are, and segments with no row
        segment = rng.integers(0, max(n // 2, 1), rows) * 2 if n else np.zeros(0, np.intp)
        for shape in ((rows,), (rows, 1), (rows, 10), (rows, widest), (rows, widest + 1),
                      (rows, 40), (rows, 128)):
            values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-8, 8, shape)
            cases.append((values.astype(dtype), segment, n))
    # each block in the form its shape picks, then every block flattened,
    # then every 2-D block one column at a time
    for limits in ((widest, shortest), (0, shortest), (10 ** 6, 0)):
        monkeypatch.setattr(numerics, "_PER_COLUMN_MAX_COLS", limits[0])
        monkeypatch.setattr(numerics, "_PER_COLUMN_MIN_ROWS", limits[1])
        for values, segment, n in cases:
            want = sequential_segment_sum(values, segment, n)
            got = segment_sum(values, segment, n)
            assert got.dtype == want.dtype and got.shape == want.shape == (n,) + values.shape[1:]
            assert got.tobytes() == want.tobytes(), (values.shape, n, limits)


class TestWideSegmentSum:
    """A block wider than ``_FLAT_MAX_COLS`` is summed in slices of that
    many columns, with the bits of one flattened sum over the whole block."""

    @staticmethod
    def flattened(values, segment, n):
        """The whole block as one bincount over its (row, column) cells."""
        d = values.shape[1]
        cells = (segment * d)[:, None] + np.arange(d)
        out = np.bincount(cells.ravel(), weights=values.ravel(), minlength=n * d)
        return out.astype(values.dtype).reshape(n, d)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(0, 60), n=st.integers(0, 12), extra=st.integers(1, 120),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_flattened_and_sequential_sums(self, rows, n, extra, dtype, seed):
        rng = make_rng(seed)
        d = numerics._FLAT_MAX_COLS + extra
        # only even segments get rows, so half the segments (at least) are empty
        segment = (rng.integers(0, (n + 1) // 2, rows) * 2 if n else np.zeros(0, np.intp))
        values = (rng.normal(0.0, 1.0, (len(segment), d))
                  * 10.0 ** rng.integers(-8, 8, (len(segment), d))).astype(dtype)
        got = segment_sum(values, segment, n)
        want = self.flattened(values, segment, n)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape == (n, d)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == sequential_segment_sum(values, segment, n).tobytes()

    def test_holds_one_slice_of_cells_at_a_time(self):
        rng = make_rng(8)
        values = rng.normal(0.0, 1.0, (900, 128)).astype(np.float32)
        segment = np.sort(rng.integers(0, 128, 900))
        segment_sum(values[:4], segment[:4], 128)  # a first call's one-time allocations
        peak = _traced_peak(lambda: segment_sum(values, segment, 128))
        # flattened whole, the block took an int64 cell array and a float64
        # copy, 16 bytes per cell; a 16-column slice takes an eighth of that
        assert peak < 4 * values.size


class TestDropout:
    def test_eval_is_identity(self):
        x = np.arange(5.0)
        out = dropout(x, 0.9, "eval")
        np.testing.assert_array_equal(out, x)

    def test_p_zero_is_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(dropout(x, 0.0, "train", make_rng(0)), x)

    def test_p_out_of_range(self):
        with pytest.raises(ContractViolation):
            dropout(np.ones(3), 1.0, "train", make_rng(0))
        with pytest.raises(ContractViolation):
            dropout(np.ones(3), -0.1, "train", make_rng(0))

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_mask_takes_the_requested_dtype_and_drops_the_same_units(self, p):
        m64 = dropout_mask((3, 7), p, make_rng(4), np.float64)
        m32 = dropout_mask((3, 7), p, make_rng(4), np.float32)
        assert m64.dtype == np.float64 and m32.dtype == np.float32
        np.testing.assert_array_equal(m32, m64)

    def test_inverted_dropout_preserves_mean(self):
        # Monte Carlo: mean over 1e5 trials of each unit stays within 2% of x.
        rng = make_rng(123)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        trials = 100_000
        total = np.zeros_like(x)
        for _ in range(trials):
            total += dropout(x, 0.5, "train", rng)
        mean = total / trials
        np.testing.assert_allclose(mean, x, rtol=0.02)


def _traced_peak(fn) -> int:
    """Bytes ``fn()`` held at its peak above what was held when it began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestDropoutDraw:
    """The mask is drawn as raw words against an integer threshold, with the
    bits and the generator state of the float64 uniforms it replaced."""

    CHUNK = numerics._DRAW_CHUNK

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(0,), (0, 5), (), (3, 7), (CHUNK + 1,),
                                       (3, CHUNK // 2 + 5)],
                             ids=["empty", "empty-2d", "scalar", "under-a-chunk",
                                  "a-chunk-and-one", "three-chunks"])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_equals_the_float64_uniform_rule_and_leaves_the_same_state(self, p, shape, dtype):
        drawn, reference = make_rng(21), make_rng(21)
        mask = dropout_mask(shape, p, drawn, dtype)
        want = (reference.random(shape) >= p).astype(dtype) * (1 / (1 - p))
        assert mask.dtype == want.dtype and mask.shape == want.shape
        assert mask.tobytes() == want.tobytes()
        assert drawn.random(9).tobytes() == reference.random(9).tobytes()

    def test_threshold_sits_on_the_exact_uniform(self):
        # u = k * 2**-53 is kept exactly when k >= ceil(p * 2**53): p one
        # step either side of a representable uniform flips that one unit
        k = int(make_rng(3).bit_generator.random_raw(1)[0]) >> 11
        u = k * 2.0**-53
        for p, kept in ((u, True), (np.nextafter(u, 1.0), False),
                        (np.nextafter(u, 0.0), True)):
            assert dropout_mask((1,), p, make_rng(3), np.float64)[0] == (kept / (1 - p))

    def test_traced_peak_is_under_twice_the_mask(self):
        rng = make_rng(5)
        dropout_mask((2, 3), 0.5, rng, np.float32)  # a first call's one-time allocations
        peak = _traced_peak(lambda: dropout_mask((128, 512), 0.5, rng, np.float32))
        assert peak < 2 * 128 * 512 * 4


class TestAdagrad:
    def test_first_step(self):
        accum = np.zeros(1)
        out = adagrad_step(np.array([1.0]), np.array([3.0]), accum, 0.1)
        np.testing.assert_allclose(accum, [9.0])
        np.testing.assert_allclose(out, [1.0 - 0.1])

    def test_zero_grad_is_noop(self):
        accum = np.zeros(2)
        param = np.array([2.0, -1.0])
        out = adagrad_step(param, np.zeros(2), accum, 0.1)
        np.testing.assert_array_equal(out, [2.0, -1.0])
        np.testing.assert_array_equal(accum, np.zeros(2))

    def test_accumulation_shrinks_steps(self):
        accum = np.zeros(1)
        p = adagrad_step(np.array([0.0]), np.array([1.0]), accum, 1.0)
        np.testing.assert_allclose(p, [-1.0])
        p = adagrad_step(p, np.array([1.0]), accum, 1.0)
        np.testing.assert_allclose(p, [-1.0 - 1.0 / math.sqrt(2)])

    def test_step_bounded_by_learning_rate(self):
        rng = make_rng(7)
        lr, accum = 0.05, np.zeros(20)
        param = rng.normal(size=20)
        for _ in range(10):
            grad = rng.normal(size=20) * 10
            before = param.copy()
            adagrad_step(param, grad, accum, lr)
            assert np.all(np.abs(param - before) <= lr + 1e-12)

    def test_step_is_in_place_and_equals_the_formula_bitwise(self):
        rng = make_rng(8)
        lr, state = 0.03, rng.random((4, 5))
        param, grad = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        accum = state + grad * grad
        expected = param - lr * grad / (np.sqrt(accum) + ADAGRAD_EPS)
        out = adagrad_step(param, grad, state, lr)
        assert out is param
        assert param.tobytes() == expected.tobytes()
        assert state.tobytes() == accum.tobytes()

    def test_repeated_steps_keep_the_formula_bitwise(self):
        rng = make_rng(10)
        lr, state = 0.03, np.zeros((3, 4))
        param = rng.normal(size=(3, 4))
        expected, accum = param.copy(), np.zeros((3, 4))
        for _ in range(3):
            grad = rng.normal(size=(3, 4))
            accum = accum + grad * grad
            expected = expected - lr * grad / (np.sqrt(accum) + ADAGRAD_EPS)
            adagrad_step(param, grad, state, lr)
        assert param.tobytes() == expected.tobytes()
        assert state.tobytes() == accum.tobytes()

    @pytest.mark.parametrize("shape", [(256, 512), (7,), (3000, 30)])
    def test_grad_is_only_read(self, shape):
        rng = make_rng(13)
        param, grad = rng.normal(size=shape), rng.normal(size=shape)
        before = grad.tobytes()
        adagrad_step(param, grad, np.zeros(shape), 0.1)
        assert grad.tobytes() == before

    def test_traced_peak_is_at_most_twice_the_tensor(self):
        rng = make_rng(14)
        param, grad = (rng.normal(size=(256, 512)).astype(np.float32) for _ in range(2))
        accum = rng.random((256, 512)).astype(np.float32)
        adagrad_step(param[:2], grad[:2], accum[:2], 0.03)  # a first call's one-time allocations
        assert _traced_peak(lambda: adagrad_step(param, grad, accum, 0.03)) <= 2 * param.nbytes

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_steps_over_many_blocks_equal_the_formula_bitwise(self, dtype):
        rng = make_rng(15)
        rows = 3 * numerics._ADAGRAD_BLOCK_BYTES // (40 * np.dtype(dtype).itemsize) + 7
        param = rng.normal(size=(rows, 40)).astype(dtype)
        grad = rng.normal(size=(rows, 40)).astype(dtype)
        state = rng.random((rows, 40)).astype(dtype)
        accum = state + grad * grad
        expected = param - 0.03 * grad / (np.sqrt(accum) + ADAGRAD_EPS)
        adagrad_step(param, grad, state, 0.03)
        assert param.tobytes() == expected.tobytes()
        assert state.tobytes() == accum.tobytes()

    def test_float32_steps_stay_float32(self):
        rng = make_rng(11)
        param = rng.normal(size=(4, 3)).astype(np.float32)
        table = param.copy()
        dense, rowwise = np.zeros_like(param), np.zeros_like(table)
        for _ in range(2):
            grad = rng.normal(size=(4, 3)).astype(np.float32)
            adagrad_step(param, grad, dense, 0.03)
            adagrad_step_rows(table, np.array([0, 2]), grad[[0, 2]], rowwise, 0.03)
        for arr in (param, dense, table, rowwise):
            assert arr.dtype == np.float32

    def test_row_update_matches_dense(self):
        rng = make_rng(9)
        param_a = rng.normal(size=(6, 3))
        param_b = param_a.copy()
        grad = np.zeros_like(param_a)
        rows = np.array([1, 4])
        row_grads = rng.normal(size=(2, 3))
        grad[rows] = row_grads
        sa, sb = np.zeros_like(param_a), np.zeros_like(param_b)
        dense = adagrad_step(param_a, grad, sa, 0.2)
        adagrad_step_rows(param_b, rows, row_grads, sb, 0.2)
        np.testing.assert_allclose(param_b, dense)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_steps_equal_the_formula_bitwise(self, dtype):
        rng = make_rng(12)
        lr = 0.07
        start = rng.normal(size=(6, 3)).astype(dtype)
        start_accum = rng.random((6, 3)).astype(dtype)
        param, accum = start.copy(), start_accum.copy()
        expected, expected_accum = start.copy(), start_accum.copy()
        for rows in (np.array([1, 4]), np.array([0, 4, 5])):
            row_grads = rng.normal(size=(len(rows), 3)).astype(dtype)
            g = expected_accum[rows] + row_grads * row_grads
            expected_accum[rows] = g
            expected[rows] = expected[rows] - lr * row_grads / (np.sqrt(g) + ADAGRAD_EPS)
            adagrad_step_rows(param, rows, row_grads, accum, lr)
        assert param.dtype == accum.dtype == dtype
        assert param.tobytes() == expected.tobytes()
        assert accum.tobytes() == expected_accum.tobytes()
        untouched = [2, 3]  # neither step names these rows
        assert param[untouched].tobytes() == start[untouched].tobytes()
        assert accum[untouched].tobytes() == start_accum[untouched].tobytes()


def test_rng_is_deterministic_counter_based():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, make_rng(43).random(8))


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        rng = make_rng(1)
        tensors = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,)),
                   "scalar": np.array([2.5])}
        header = {"variant": "DSTN-P", "k": "10"}
        path = tmp_path / "model.ckpt"
        save_tensors(path, header, tensors)
        h, t = load_tensors(path)
        assert h == header
        assert set(t) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(t[name], tensors[name])

    def test_write_is_byte_deterministic(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_tensors(p1, {"k": "1"}, tensors)
        save_tensors(p2, {"k": "1"}, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_tensors(path, {"k": "1"}, {"w": np.arange(2.0)})
        good = path.read_bytes()
        with pytest.raises(ValueError, match="illegal header"):
            save_tensors(path, {"a=b": "1"}, {"w": np.arange(3.0)})
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_save_syncs_the_file_before_the_rename_and_the_directory_after(
            self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def syncing(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            fsync(fd)

        def replacing(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", syncing)
        monkeypatch.setattr(os, "replace", replacing)
        path = tmp_path / "model.ckpt"
        save_tensors(path, {"k": "1"}, {"w": np.arange(2.0)})
        assert calls == ["file", "replace", "dir"]
        assert load_tensors(path)[0] == {"k": "1"}

    @pytest.mark.parametrize("name", ["", "a b", "a\nb", " ", "w\n"])
    def test_a_tensor_name_no_record_line_can_hold_is_refused(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        save_tensors(path, {"k": "1"}, {"w": np.arange(2.0)})
        good = path.read_bytes()
        with pytest.raises(ValueError, match="illegal tensor name"):
            save_tensors(path, {"k": "1"}, {"w": np.arange(3.0), name: np.zeros(2)})
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_every_truncation_is_an_error_or_a_shorter_checkpoint(self, tmp_path):
        # Only a cut at a record boundary parses, and then as exactly the
        # checkpoint of the records before it; every other cut is a ValueError.
        path = tmp_path / "model.ckpt"
        save_tensors(path, {"k": "1", "variant": "DNN"},
                     {"a": np.arange(3.0), "b": np.ones((2, 2)), "c": np.array([7.0])})
        data = path.read_bytes()
        cut_path, resaved = tmp_path / "cut.ckpt", tmp_path / "resaved.ckpt"
        parsed = []
        for cut in range(len(data)):
            cut_path.write_bytes(data[:cut])
            try:
                header, tensors = load_tensors(cut_path)
            except ValueError:
                continue
            save_tensors(resaved, header, tensors)
            assert resaved.read_bytes() == data[:cut]
            parsed.append(sorted(tensors))
        assert parsed == [[], ["a"], ["a", "b"]]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_tensors(path)

    @pytest.mark.parametrize("body, named", [
        (b"k\n\n", "bad header line 'k'"),
        (b"k=1\nk=2\n\n", "bad header line 'k=2'"),
        (b"k=1", "unexpected end of checkpoint file"),
        (b"\nemb.E x 3\n" + bytes(24), "bad tensor record 'emb.E x 3'"),
        (b"\nemb.E\n", "bad tensor record 'emb.E'"),
        (b"\nemb.E 2 3\n" + bytes(24), "bad tensor record 'emb.E 2 3'"),
        (b"\nemb.E 1 3 4\n" + bytes(24), "bad tensor record 'emb.E 1 3 4'"),
        (b"\nemb.E 1 -3\n", "bad tensor record 'emb.E 1 -3'"),
        (b"\nemb.E 1 9999999999999\n" + bytes(24), "truncated tensor 'emb.E'"),
        (b"\nemb.\xff 1 3\n" + bytes(24), "line b'emb.\\xff 1 3' is not UTF-8"),
        (b"\nemb.E 1 3\n" + bytes(24) + b"emb.E 1 2\n" + bytes(16), "repeated tensor 'emb.E'"),
    ], ids=["header-without-equals", "repeated-header-key", "cut-header", "dimension-not-a-number",
            "no-ndim", "fewer-dimensions-than-ndim", "more-dimensions-than-ndim",
            "negative-dimension", "size-past-the-end", "name-not-utf8", "repeated-tensor"])
    def test_malformed_line_is_a_value_error_naming_the_file(self, tmp_path, body, named):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"TNSR1\n" + body)
        with pytest.raises(ValueError) as info:
            load_tensors(path)
        assert type(info.value) is CheckpointError and str(info.value) == f"{path}: {named}"
