import math

import numpy as np
import pytest

from adctr.numerics import (AdagradState, ContractViolation, adagrad_step, adagrad_step_rows,
                            load_tensors, make_rng, relu, save_tensors, sigmoid)
from oracles import dropout, linear


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


class TestAdagrad:
    def test_first_step(self):
        state = AdagradState(lr=0.1, eps=0.0)
        out = adagrad_step(np.array([1.0]), np.array([3.0]), state)
        np.testing.assert_allclose(state.accum, [9.0])
        np.testing.assert_allclose(out, [1.0 - 0.1])

    def test_zero_grad_is_noop(self):
        state = AdagradState(lr=0.1, eps=1e-8)
        param = np.array([2.0, -1.0])
        out = adagrad_step(param, np.zeros(2), state)
        np.testing.assert_array_equal(out, [2.0, -1.0])
        np.testing.assert_array_equal(state.accum, np.zeros(2))

    def test_accumulation_shrinks_steps(self):
        state = AdagradState(lr=1.0, eps=0.0)
        p = adagrad_step(np.array([0.0]), np.array([1.0]), state)
        np.testing.assert_allclose(p, [-1.0])
        p = adagrad_step(p, np.array([1.0]), state)
        np.testing.assert_allclose(p, [-1.0 - 1.0 / math.sqrt(2)])

    def test_step_bounded_by_learning_rate(self):
        rng = make_rng(7)
        state = AdagradState(lr=0.05, eps=1e-8)
        param = rng.normal(size=20)
        for _ in range(10):
            grad = rng.normal(size=20) * 10
            before = param.copy()
            adagrad_step(param, grad, state)
            assert np.all(np.abs(param - before) <= state.lr + 1e-12)

    def test_step_is_in_place_and_equals_the_formula_bitwise(self):
        rng = make_rng(8)
        state = AdagradState(lr=0.03, eps=1e-8, accum=rng.random((4, 5)))
        param, grad = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        accum = state.accum + grad * grad
        expected = param - state.lr * grad / (np.sqrt(accum) + state.eps)
        out = adagrad_step(param, grad, state)
        assert out is param
        assert param.tobytes() == expected.tobytes()
        assert state.accum.tobytes() == accum.tobytes()

    def test_repeated_steps_reuse_scratch_and_keep_the_formula_bitwise(self):
        rng = make_rng(10)
        state = AdagradState(lr=0.03, eps=1e-8)
        param = rng.normal(size=(3, 4))
        expected, accum = param.copy(), np.zeros((3, 4))
        scratch: tuple = ()
        for _ in range(3):
            grad = rng.normal(size=(3, 4))
            accum = accum + grad * grad
            expected = expected - state.lr * grad / (np.sqrt(accum) + state.eps)
            adagrad_step(param, grad, state)
            scratch = scratch or (state._step, state._scratch)
            assert state._step is scratch[0] and state._scratch is scratch[1]
        assert param.tobytes() == expected.tobytes()
        assert state.accum.tobytes() == accum.tobytes()

    def test_row_update_matches_dense(self):
        rng = make_rng(9)
        param_a = rng.normal(size=(6, 3))
        param_b = param_a.copy()
        grad = np.zeros_like(param_a)
        rows = np.array([1, 4])
        row_grads = rng.normal(size=(2, 3))
        grad[rows] = row_grads
        sa, sb = AdagradState(lr=0.2), AdagradState(lr=0.2)
        dense = adagrad_step(param_a, grad, sa)
        adagrad_step_rows(param_b, rows, row_grads, sb)
        np.testing.assert_allclose(param_b, dense)


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
