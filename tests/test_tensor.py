import gc
import weakref

import numpy as np
import pytest

from gram import tensor as T
from gram.optim import Parameter, adam_step, clip_global_norm
from gram.tensor import (ShapeError, Tape, Tensor, finite_difference_check,
                         MASK_NEG)


def test_softmax_uniform():
    out = T.softmax(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25)
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_masked_rows_sum_to_one_masked_exactly_zero(rng):
    x = Tensor(rng.normal(size=(6, 5)))
    mask = np.where(rng.random((6, 5)) < 0.6, 0.0, MASK_NEG)
    mask[:, 0] = 0.0  # keep one column open
    out = T.softmax(x, additive_mask=mask)
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12
    assert out.data[mask < 0].max() == 0.0


def test_matmul_identity(rng):
    m = rng.normal(size=(3, 5))
    assert np.array_equal(T.matmul(Tensor(np.eye(3)), Tensor(m)).data, m)


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_cross_entropy_uniform_logits():
    nll = T.cross_entropy_logits(Tensor(np.zeros((1, 2))), np.array([[1.0, 0.0]]))
    assert nll.data[0] == pytest.approx(np.log(2), abs=1e-12)


def test_backward_rejects_non_scalar(rng):
    with Tape() as tape:
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def test_backward_rejects_foreign_tensor():
    with Tape() as tape:
        with pytest.raises(ValueError, match="tape"):
            tape.backward(Tensor(0.0))


def test_linear_gradient_matches_outer_product(rng):
    w = Parameter("w", rng.normal(size=(4, 3)))
    x = rng.normal(size=(3,))

    def f():
        col = T.matmul(w.tensor, Tensor(x[:, None]))
        return T.sum_along(T.reshape(col, (4,)), 0)

    with Tape() as tape:
        tape.backward(f())
    # d/dW of sum(Wx) is the row-replicated x
    assert np.allclose(w.tensor.grad, np.tile(x, (4, 1)))
    w.tensor.grad = None
    report = finite_difference_check(f, [w], eps=1e-4)
    assert report.max_rel_error <= 1e-10


def test_unused_parameter_gets_zero_gradient(rng):
    used = Parameter("used", rng.normal(size=(2, 2)))
    unused = Parameter("unused", rng.normal(size=(2, 2)))
    with Tape() as tape:
        y = T.sum_along(T.reshape(T.mul(used.tensor, used.tensor), (4,)), 0)
        tape.backward(y)
    assert unused.tensor.grad is None
    assert not unused.grad_array().any()


PRIMITIVE_CASES = {}


def _case(name):
    def deco(fn):
        PRIMITIVE_CASES[name] = fn
        return fn
    return deco


@_case("matmul")
def _c_matmul(p, q, c1, c2):
    return T.matmul(p, T.transpose(q))


@_case("add_broadcast_rowvec")
def _c_add(p, q, c1, c2):
    return T.add(p, T.reshape(T.sum_along(q, 0), (1, q.data.shape[1])))


@_case("mul_broadcast")
def _c_mul(p, q, c1, c2):
    return T.mul(T.reshape(p, (p.data.shape[0], 1, p.data.shape[1])),
                 T.reshape(q, (1, q.data.shape[0], q.data.shape[1])))


@_case("concat")
def _c_concat(p, q, c1, c2):
    return T.concat([p, T.mul(p, p), p], axis=-1)


@_case("softmax_masked")
def _c_softmax(p, q, c1, c2):
    return T.softmax(T.matmul(p, T.transpose(q)), additive_mask=c1)


@_case("sigmoid")
def _c_sigmoid(p, q, c1, c2):
    return T.sigmoid(p)


@_case("relu")
def _c_relu(p, q, c1, c2):
    return T.relu(p)


@_case("sum_axis0")
def _c_sum(p, q, c1, c2):
    return T.sum_along(p, 0, keepdims=True)


@_case("rows_lookup")
def _c_rows(p, q, c1, c2):
    return T.rows(p, [3, 0, 1, 1, 2])


@_case("gather_last")
def _c_gather(p, q, c1, c2):
    return T.gather_last(p, np.arange(20).reshape(4, 5) * 7 % 6)


@_case("bucket_sums")
def _c_bucket_sums(p, q, c1, c2):
    return T.bucket_sums(p, np.arange(24).reshape(4, 6) * 5 % 3, 4)


@_case("matmul_batched")
def _c_matmul_batched(p, q, c1, c2):
    return T.matmul(q, T.transpose(T.reshape(p, (2, 2, 6))))


@_case("transpose_batched")
def _c_transpose_batched(p, q, c1, c2):
    return T.transpose(T.reshape(p, (2, 2, 6)))


@_case("stack")
def _c_stack(p, q, c1, c2):
    return T.matmul(T.stack([p, T.mul(p, p)]), T.transpose(T.stack([q, q])))


@_case("slice_along")
def _c_slice(p, q, c1, c2):
    return T.slice_along(T.slice_along(q, 0, 1, 4), -1, 2, 6)


@_case("gather_last_heads")
def _c_gather_heads(p, q, c1, c2):
    return T.gather_last(T.reshape(p, (2, 2, 6)), np.arange(10).reshape(2, 5) * 7 % 6)


@_case("bucket_sums_heads")
def _c_bucket_sums_heads(p, q, c1, c2):
    return T.bucket_sums(T.reshape(p, (2, 2, 6)), np.arange(12).reshape(2, 6) * 5 % 3, 4)


@_case("layer_norm")
def _c_ln(p, q, c1, c2):
    return T.layer_norm(p, c2[0], c2[1])


@_case("cross_entropy")
def _c_ce(p, q, c1, c2):
    onehot = np.zeros(p.data.shape)
    onehot[np.arange(p.data.shape[0]), np.arange(p.data.shape[0]) % p.data.shape[1]] = 1
    return T.cross_entropy_logits(p, onehot)


def test_gather_last_and_bucket_sums_are_adjoint(rng):
    """<gather_last(A, idx), W> == <A, bucket_sums(W, idx)> for any A, W,
    with or without a leading (head) axis sharing the index."""
    for lead in ((), (2,)):
        idx = rng.integers(0, 4, size=(3, 7))
        idx[0, :2] = (0, 3)  # both ends of the range, for the error checks
        a = rng.normal(size=lead + (3, 4))
        w = rng.normal(size=lead + (3, 7))
        gathered = T.gather_last(Tensor(a), idx).data
        assert np.array_equal(gathered, a[..., np.arange(3)[:, None], idx])
        sums = T.bucket_sums(Tensor(w), idx, 4).data
        assert abs((gathered * w).sum() - (a * sums).sum()) < 1e-12
        with pytest.raises(ShapeError, match="out of range"):
            T.gather_last(Tensor(a), idx + 1)
        with pytest.raises(ShapeError, match="out of range"):
            T.bucket_sums(Tensor(w), idx - 1, 4)


def test_batched_shape_errors():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ShapeError, match="slice"):
        T.slice_along(Tensor(np.zeros((2, 3))), -1, 2, 4)
    with pytest.raises(ShapeError, match="stack"):
        T.stack([Tensor(np.zeros(2)), Tensor(np.zeros(3))])


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_vs_finite_differences(name, rng):
    """Central-difference check per primitive, tolerance 1e-6 relative."""
    p = Parameter("p", rng.normal(size=(4, 6)) * 0.7 + 0.2)
    q = Parameter("q", rng.normal(size=(5, 6)) * 0.7)
    mask = np.where(rng.random((4, 5)) < 0.75, 0.0, MASK_NEG)
    mask[:, 0] = 0.0
    gain = Parameter("gain", np.ones(6) + rng.normal(size=6) * 0.1)
    bias = Parameter("bias", rng.normal(size=6) * 0.1)
    weight = rng.normal(size=(1000,))  # projects any output shape to a scalar
    fn = PRIMITIVE_CASES[name]

    def f():
        out = fn(p.tensor, q.tensor, mask, (gain.tensor, bias.tensor))
        flat = T.reshape(out, (out.data.size,))
        return T.sum_along(T.mul(flat, T.const(weight[:out.data.size])), 0)

    params = [p, q, gain, bias]
    report = finite_difference_check(f, params, eps=1e-6)
    assert report.max_rel_error <= 1e-6, (name, report)


def test_tape_determinism(rng):
    w = rng.normal(size=(8, 8))
    x = rng.normal(size=(8, 8))

    def run():
        pw = Parameter("w", w.copy())
        with Tape() as tape:
            y = T.relu(T.matmul(Tensor(x), pw.tensor))
            s = T.sum_along(T.reshape(T.softmax(y), (64,)), 0)
            tape.backward(s)
        return s.data.copy(), pw.tensor.grad.copy()

    s1, g1 = run()
    s2, g2 = run()
    assert np.array_equal(s1, s2) and np.array_equal(g1, g2)


def test_adam_first_step_magnitude_and_zero_grad():
    p = Parameter("p", np.zeros(3))
    p.tensor.grad = np.full(3, 0.7)
    adam_step([p], lr=1e-3)
    assert np.allclose(np.abs(p.data), 1e-3, rtol=1e-4)
    assert p.tensor.grad is None
    q = Parameter("q", np.ones(3))
    adam_step([q], lr=1e-3)  # no gradient -> unchanged
    assert np.array_equal(q.data, np.ones(3))


def test_adam_converges_on_square():
    w = Parameter("w", np.array([1.0]))
    for _ in range(100):
        with Tape() as tape:
            loss = T.sum_along(T.mul(w.tensor, w.tensor), 0)
            tape.backward(loss)
        adam_step([w], lr=0.1)
    assert abs(float(w.data[0])) < 0.1


def test_finished_tape_is_freed_by_reference_counting(rng):
    """A tape and its records die with their last reference, without
    waiting for the cyclic collector (training frees each step's tape)."""
    p = Parameter("p", rng.normal(size=(3,)))
    gc.disable()
    try:
        with Tape() as tape:
            loss = T.sum_along(T.mul(p.tensor, p.tensor), 0)
            tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None
    finally:
        gc.enable()


def test_grad_accumulates_across_backwards(rng):
    p = Parameter("p", rng.normal(size=(3,)))
    with Tape() as tape:
        l1 = T.sum_along(p.tensor, 0)
        tape.backward(l1)
    with Tape() as tape:
        l2 = T.sum_along(p.tensor, 0)
        tape.backward(l2)
    assert np.allclose(p.tensor.grad, 2.0)


def test_clip_global_norm():
    p = Parameter("p", np.zeros(4))
    p.tensor.grad = np.full(4, 10.0)
    norm = clip_global_norm([p], 1.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.tensor.grad) == pytest.approx(1.0)
