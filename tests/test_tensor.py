import gc
import inspect
import weakref

import numpy as np
import pytest

from gram import attention as A
from gram import tensor as T
from gram.optim import Parameter, adam_step, clip_global_norm
from gram.tensor import MASK_NEG, ShapeError, Tape, Tensor

from conftest import FUSED_CHAINS, finite_difference_check, gather_last


def test_softmax_uniform():
    out = T.softmax(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25)
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_masked_rows_sum_to_one_masked_exactly_zero(rng):
    x = Tensor(rng.normal(size=(6, 5)))
    mask = np.where(rng.random((6, 5)) < 0.6, 0.0, MASK_NEG)
    mask[:, 0] = 0.0  # keep one column open
    out = T.softmax(T.add(x, T.const(mask)))
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12
    assert out.data[mask < 0].max() == 0.0


def test_matmul_identity(rng):
    m = rng.normal(size=(3, 5))
    assert np.array_equal(T.matmul(Tensor(np.eye(3)), Tensor(m)).data, m)


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_cross_entropy_uniform_logits():
    nll = T.cross_entropy_logits(Tensor(np.zeros((1, 2))), [0])
    assert nll.data[0] == pytest.approx(np.log(2), abs=1e-12)


def onehot_cross_entropy(x, targets, g):
    """Reference: the one-hot formula of cross_entropy_logits before it took
    class indices.  Returns the NLLs of logits x and the gradient of
    sum(g * NLL) with respect to x."""
    onehot = np.zeros(x.shape)
    onehot[np.arange(len(targets)), targets] = 1.0
    z = x - x.max(axis=-1, keepdims=True)
    nll = np.log(np.exp(z).sum(axis=-1)) + x.max(axis=-1) - (x * onehot).sum(axis=-1)
    e = np.exp(z)
    return nll, (e / e.sum(axis=-1, keepdims=True) - onehot) * g[..., None]


def test_cross_entropy_matches_onehot_reference(rng):
    """Integer targets give the one-hot formula's NLLs and gradients bit for
    bit, under a random upstream gradient: K = 1 included, and zero,
    negative, small and large logits."""
    for trial in range(200):
        k, c = (1, int(rng.integers(1, 6))) if trial % 4 == 0 else rng.integers(1, 7, size=2)
        kind = trial % 5
        x = rng.normal(size=(k, c)) * (0.1, 1.0, 30.0, 1.0, 300.0)[kind]
        if kind == 1:
            x[:] = 0.0
        elif kind == 3:
            x = -np.abs(x) - 5.0
        targets = rng.integers(0, c, size=k)
        g = rng.normal(size=k)
        leaf = Tensor(x, requires_grad=True)
        with Tape() as tape:
            nll = T.cross_entropy_logits(leaf, targets)
            tape.backward(T.sum_along(T.mul(nll, T.const(g)), 0))
        want_nll, want_grad = onehot_cross_entropy(x, targets, g)
        assert np.array_equal(nll.data, want_nll), trial
        assert np.array_equal(leaf.grad, want_grad), trial


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 3)))
    for targets in ([0, 3], [-1, 0], [0], [[0], [1]]):
        with pytest.raises(ShapeError):
            T.cross_entropy_logits(logits, targets)
    with pytest.raises(ShapeError):
        T.cross_entropy_logits(Tensor(np.zeros(3)), [0, 1, 2])


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
    return T.softmax(T.add(T.matmul(p, T.transpose(q)), T.const(c1)))


@_case("sigmoid")
def _c_sigmoid(p, q, c1, c2):
    return T.sigmoid(p)


@_case("relu")
def _c_relu(p, q, c1, c2):
    return T.relu(p)


@_case("sum_axis0")
def _c_sum(p, q, c1, c2):
    return T.sum_along(p, 0)


@_case("rows_lookup")
def _c_rows(p, q, c1, c2):
    return T.rows(p, [3, 0, 1, 1, 2])


@_case("gather_last")
def _c_gather(p, q, c1, c2):
    return gather_last(p, np.arange(20).reshape(4, 5) * 7 % 6)


@_case("bucket_sums")
def _c_bucket_sums(p, q, c1, c2):
    return T.bucket_sums(p, np.arange(24).reshape(4, 6) * 5 % 3, 4)


@_case("matmul_batched")
def _c_matmul_batched(p, q, c1, c2):
    return T.matmul(q, T.transpose(T.reshape(p, (2, 2, 6))))


@_case("transpose_batched")
def _c_transpose_batched(p, q, c1, c2):
    return T.transpose(T.reshape(p, (2, 2, 6)))


@_case("slice_along")
def _c_slice(p, q, c1, c2):
    return T.slice_along(T.slice_along(q, 0, 1, 4), -1, 2, 6)


@_case("slice_intermediate")
def _c_slice_intermediate(p, q, c1, c2):
    # overlapping slices of a recorded result that is also used whole, so
    # its gradient gathers a borrowed piece and two full-size slice arrays
    x = T.sigmoid(p)
    return T.concat([T.slice_along(x, 0, 1, 3), T.slice_along(x, 0, 0, 2), x], axis=0)


@_case("gather_last_heads")
def _c_gather_heads(p, q, c1, c2):
    return gather_last(T.reshape(p, (2, 2, 6)), np.arange(10).reshape(2, 5) * 7 % 6)


@_case("bucket_sums_heads")
def _c_bucket_sums_heads(p, q, c1, c2):
    return T.bucket_sums(T.reshape(p, (2, 2, 6)), np.arange(12).reshape(2, 6) * 5 % 3, 4)


@_case("gather_last_steps")
def _c_gather_steps(p, q, c1, c2):
    # (H, K, n, C) = (2, 2, 2, 3) with one (n, m) index per step
    return gather_last(T.reshape(p, (2, 2, 2, 3)), np.arange(20).reshape(2, 2, 5) * 7 % 3)


@_case("bucket_sums_steps")
def _c_bucket_sums_steps(p, q, c1, c2):
    return T.bucket_sums(T.reshape(p, (2, 2, 2, 3)), np.arange(12).reshape(2, 2, 3) * 5 % 4, 4)


@_case("scatter_rows")
def _c_scatter_rows(p, q, c1, c2):
    return T.scatter_rows(p, [3, 0, 3, 5], 6)


@_case("scatter_rows_distinct")
def _c_scatter_rows_distinct(p, q, c1, c2):
    return T.scatter_rows(q, [6, 1, 0, 3, 4], 7)


@_case("rows_distinct")
def _c_rows_distinct(p, q, c1, c2):
    return T.rows(q, [4, 1, 2])


@_case("transpose_axes")
def _c_transpose_axes(p, q, c1, c2):
    return T.transpose(T.reshape(p, (2, 3, 4)), 0, 2)


@_case("layer_norm")
def _c_ln(p, q, c1, c2):
    return T.layer_norm(p, c2[0], c2[1])


@_case("cross_entropy")
def _c_ce(p, q, c1, c2):
    return T.cross_entropy_logits(p, np.arange(p.data.shape[0]) % p.data.shape[1])


@_case("reshape")
def _c_reshape(p, q, c1, c2):
    return T.reshape(T.mul(p, p), (3, 8))


@_case("linear")
def _c_linear(p, q, c1, c2):
    return T.linear(p, T.transpose(q), T.slice_along(c2[1], 0, 0, 5))


@_case("linear_relu_batched")
def _c_linear_relu(p, q, c1, c2):
    # (2, 4, 3) rows through (2, 1, 3, 5) weights plus a (2, 1, 1, 5) bias
    w = T.reshape(T.slice_along(q, -1, 0, 3), (1, 5, 3))
    return T.linear(T.reshape(p, (2, 4, 3)), T.transpose(T.concat([w, T.mul(w, w)], axis=0)),
                    T.reshape(T.slice_along(c2[1], 0, 0, 2), (2, 1, 1)), relu=True)


@_case("edge_hidden")
def _c_edge_hidden(p, q, c1, c2):
    # t = 2 edges (0, 3) and (1, 3) over 4 node rows; mid is two rows of q
    return T.edge_hidden(p, T.sigmoid(p), T.slice_along(q, 0, 1, 3), [0, 1, 3, 3], [3, 3, 0, 1])


@_case("attention_weights")
def _c_attention_weights(p, q, c1, c2):
    # one head, one problem: 4 queries, 5 keys, 3 distance buckets
    qh, kh = T.reshape(p, (1, 1, 4, 6)), T.reshape(q, (1, 1, 5, 6))
    q_table = T.reshape(T.matmul(p, T.transpose(T.slice_along(q, 0, 0, 3))), (1, 1, 4, 3))
    k_table = T.reshape(T.matmul(q, T.transpose(T.slice_along(p, 0, 1, 4))), (1, 1, 5, 3))
    dist = np.arange(20).reshape(1, 4, 5) * 7 % 3
    return T.attention_weights(qh, kh, q_table, k_table, dist, 0.4, c1)


@_case("attention_weights_unbiased")
def _c_attention_weights_unbiased(p, q, c1, c2):
    return T.attention_weights(p, q, None, None, None, 0.4, None)


def test_every_public_primitive_has_a_finite_difference_case(monkeypatch):
    """Each public function of gram.tensor that returns a Tensor, except
    const, is the outermost primitive of some PRIMITIVE_CASES case: the
    function that computes the case's output.  The cases of the reference
    primitive gather_last (tests/conftest.py) have none."""
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_") and name != "const"
              and inspect.signature(fn).return_annotation in ("Tensor", Tensor)}
    assert {"linear", "edge_hidden", "attention_weights", "matmul"} <= public
    made_by = {}

    def recording(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            made_by[id(out)] = name
            return out
        return call

    for name in public:
        monkeypatch.setattr(T, name, recording(name, getattr(T, name)))
    rng = np.random.default_rng(0)
    p, q = Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(5, 6)))
    covered = set()
    for case in PRIMITIVE_CASES.values():
        made_by.clear()
        out = case(p, q, np.zeros((4, 5)), (Tensor(np.ones(6)), Tensor(np.zeros(6))))
        covered.add(made_by.get(id(out)))
    assert sorted(public - covered) == []


def _run_fused(impl, arrays, call, through_sigmoid):
    """Output bytes and every leaf's gradient bytes of call(impl, operands)
    under a random upstream gradient.  Leaves start from a prior gradient,
    so the order of accumulation shows; through_sigmoid makes each operand
    an intermediate that the loss also reads directly, so it gathers two
    contributions."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    for leaf in leaves:
        leaf.grad = np.random.default_rng(len(leaf.data.shape)).normal(size=leaf.data.shape)
    with Tape() as tape:
        ops = [T.sigmoid(leaf) for leaf in leaves] if through_sigmoid else leaves
        out = call(impl, ops)
        terms = [out] + (ops if through_sigmoid else [])
        loss = None
        for k, term in enumerate(terms):
            weight = np.random.default_rng(k).normal(size=term.data.shape)
            part = T.sum_along(T.reshape(T.mul(term, T.const(weight)), (term.data.size,)), 0)
            loss = part if loss is None else T.add(loss, part)
        tape.backward(loss)
    return out.data.dtype, out.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves]


def _fused_calls(rng):
    """(primitive, label, operand arrays, call(impl, operands)): t = 0 edges,
    node rows that no edge reads, no rows, padded multi-problem attention
    with an all-masked query row, and non-zero bias tables."""
    n = rng.normal
    yield "linear", "bias row", [n(size=(5, 4)), n(size=(4, 3)), n(size=3)], \
        lambda f, o: f(o[0], o[1], o[2])
    yield "linear", "relu", [n(size=(5, 4)), n(size=(4, 3)), n(size=3)], \
        lambda f, o: f(o[0], o[1], o[2], relu=True)
    yield "linear", "no rows", [n(size=(0, 4)), n(size=(4, 3)), n(size=3)], \
        lambda f, o: f(o[0], o[1], o[2], relu=True)
    yield "linear", "full-shape addend", [n(size=(5, 4)), n(size=(4, 3)), n(size=(5, 3))], \
        lambda f, o: f(o[0], o[1], o[2], relu=True)
    yield "linear", "head-batched", [n(size=(2, 3, 5, 4)), n(size=(2, 1, 4, 3)),
                                      n(size=(2, 1, 1, 3))], \
        lambda f, o: f(o[0], o[1], o[2])
    ends = (np.array([0, 2, 2, 4, 4, 0]), np.array([4, 4, 0, 0, 2, 2]))  # rows 1, 3 read by no edge
    yield "edge_hidden", "isolated rows", [n(size=(5, 6)), n(size=(5, 6)), n(size=(3, 6))], \
        lambda f, o: f(o[0], o[1], o[2], *ends)
    empty = np.zeros(0, np.int64)
    yield "edge_hidden", "t = 0", [n(size=(5, 6)), n(size=(5, 6)), n(size=(0, 6))], \
        lambda f, o: f(o[0], o[1], o[2], empty, empty)
    # three problems of 3, 1 and 2 rows padded to 3: row 1 of problem 0 admits no key
    rows = A.Segments([3, 1, 2])
    allowed = rows.real[:, :, None] & rows.real[:, None, :]
    allowed[0, 1] = False
    dist = rng.integers(0, 4, size=(3, 3, 3))
    ctx = A.AttentionContext(dist, allowed, rows, rows)
    heads = [n(size=(2, 3, 3, 5)), n(size=(2, 3, 3, 5)), n(size=(2, 3, 3, 4)),
             n(size=(2, 3, 3, 4))]
    yield "attention_weights", "biased, padded, masked row", heads, \
        lambda f, o: f(o[0], o[1], o[2], o[3], ctx.dist, 0.3, ctx.addmask)
    yield "attention_weights", "unbiased, no mask", heads[:2], \
        lambda f, o: f(o[0], o[1], None, None, ctx.dist, 0.3, None)


def test_fused_primitives_match_their_chains_bit_for_bit(rng):
    """Each fused primitive gives its chain's output and every operand's
    gradient bit for bit, in float64, with leaf and intermediate operands."""
    for name, label, arrays, call in _fused_calls(rng):
        for through_sigmoid in (False, True):
            fused = _run_fused(getattr(T, name), arrays, call, through_sigmoid)
            chain = _run_fused(FUSED_CHAINS[name], arrays, call, through_sigmoid)
            assert fused == chain, (name, label, through_sigmoid)


def test_fused_primitives_keep_the_operand_dtype(rng):
    """float32 operands give a float32 output, within float32 rounding of
    the float64 result."""
    for name, label, arrays, call in _fused_calls(rng):
        single = call(getattr(T, name), [T._result(a.astype(np.float32)) for a in arrays])
        double = call(getattr(T, name), [Tensor(a) for a in arrays])
        assert single.data.dtype == np.float32, (name, label)
        assert np.allclose(single.data, double.data, rtol=1e-4, atol=1e-5), (name, label)


def test_fused_primitive_shape_errors():
    x, w = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match="linear"):
        T.linear(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match="linear"):
        T.linear(x, w, Tensor(np.zeros((2, 3, 2))))  # would enlarge the product
    rows, mid = Tensor(np.zeros((4, 5))), Tensor(np.zeros((2, 5)))
    with pytest.raises(ShapeError, match="edge_hidden"):
        T.edge_hidden(rows, rows, mid, [0, 1, 2], [1, 2, 3])
    with pytest.raises(ShapeError, match="out of range"):
        T.edge_hidden(rows, rows, mid, [0, 1, 2, 4], [1, 2, 3, 0])
    q, k = Tensor(np.zeros((1, 1, 2, 3))), Tensor(np.zeros((1, 1, 4, 3)))
    tq, tk = Tensor(np.zeros((1, 1, 2, 3))), Tensor(np.zeros((1, 1, 4, 3)))
    dist = np.zeros((1, 2, 4), np.int64)
    with pytest.raises(ShapeError, match="attention_weights"):
        T.attention_weights(q, Tensor(np.zeros((1, 1, 4, 2))), None, None, None, 1.0, None)
    with pytest.raises(ShapeError, match="out of range"):
        T.attention_weights(q, k, tq, tk, dist + 3, 1.0, None)
    with pytest.raises(ShapeError, match="bucket index"):
        T.attention_weights(q, k, tq, tk, dist[:, :1], 1.0, None)
    with pytest.raises(ShapeError, match="attention_weights"):
        T.attention_weights(q, k, tq, tk, dist, 1.0, np.zeros((2, 2, 4)))


def test_gather_last_and_bucket_sums_are_adjoint(rng):
    """<gather_last(A, idx), W> == <A, bucket_sums(W, idx)> for any A, W,
    with or without a leading (head) axis sharing the index."""
    for lead in ((), (2,)):
        idx = rng.integers(0, 4, size=(3, 7))
        idx[0, :2] = (0, 3)  # both ends of the range, for the error checks
        a = rng.normal(size=lead + (3, 4))
        w = rng.normal(size=lead + (3, 7))
        gathered = gather_last(Tensor(a), idx).data
        assert np.array_equal(gathered, a[..., np.arange(3)[:, None], idx])
        sums = T.bucket_sums(Tensor(w), idx, 4).data
        assert abs((gathered * w).sum() - (a * sums).sum()) < 1e-12
        with pytest.raises(ShapeError, match="out of range"):
            gather_last(Tensor(a), idx + 1)
        with pytest.raises(ShapeError, match="out of range"):
            T.bucket_sums(Tensor(w), idx - 1, 4)


def test_step_indexed_gather_and_bucket_sums(rng):
    """A per-step index (K, n, m) over an (H, K, n, C) table picks, for every
    head, the entries that step's (n, m) index picks from its own (n, C)
    table, and bucket_sums stays the adjoint."""
    heads, steps, n, buckets, m = 3, 4, 5, 4, 6
    idx = rng.integers(0, buckets, size=(steps, n, m))
    table = rng.normal(size=(heads, steps, n, buckets))
    w = rng.normal(size=(heads, steps, n, m))
    gathered = gather_last(Tensor(table), idx).data
    sums = T.bucket_sums(Tensor(w), idx, buckets).data
    for k in range(steps):
        assert np.array_equal(gathered[:, k], gather_last(Tensor(table[:, k]), idx[k]).data)
        assert np.array_equal(sums[:, k], T.bucket_sums(Tensor(w[:, k]), idx[k], buckets).data)
    assert abs((gathered * w).sum() - (table * sums).sum()) < 1e-12
    with pytest.raises(ShapeError, match="bucket index"):
        gather_last(Tensor(table), idx[:2])
    with pytest.raises(ShapeError, match="bucket_sums"):
        T.bucket_sums(Tensor(w), idx[:, :, :2], buckets)


def test_scatter_rows_is_the_adjoint_of_rows(rng):
    """<rows(A, idx), X> == <A, scatter_rows(X, idx, n)>, with repeated and
    with distinct indices, for a few and for many output rows, and distinct
    indices place rows exactly."""
    for n, idx in ((100, rng.integers(0, 100, size=300)), (6, [4, 0, 4, 4, 2, 0, 5]),
                   (6, [5, 2, 0, 3])):
        a = rng.normal(size=(n, 3))
        x = rng.normal(size=(len(idx), 3))
        gathered = T.rows(Tensor(a), idx).data
        scattered = T.scatter_rows(Tensor(x), idx, n).data
        assert abs((gathered * x).sum() - (a * scattered).sum()) < 1e-12
    assert np.array_equal(scattered[[5, 2, 0, 3]], x)
    assert not scattered[[1, 4]].any()
    with pytest.raises(ShapeError, match="out of range"):
        T.scatter_rows(Tensor(x), [5, 2, 0, 6], 6)


def _scatter_rows_reference(x, idx, n, onehot_rows=64):
    """tensor._scatter_rows as it was before the index table: distinct
    indices are a plain assignment; repeated ones an (n, k) one-hot product
    up to onehot_rows output rows, above them one np.bincount over (row,
    column) cells, which adds each row's terms in ascending k."""
    k = len(idx)
    if k == 0:
        return np.zeros((n,) + x.shape[1:])
    if np.bincount(idx, minlength=n).max() == 1:
        out = np.zeros((n,) + x.shape[1:])
        out[idx] = x
        return out
    width = x.size // k
    if n <= onehot_rows:
        onehot = np.zeros((n, k))
        onehot[idx, np.arange(k)] = 1.0
        return (onehot @ x.reshape(k, width)).reshape((n,) + x.shape[1:])
    cells = (idx[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(cells, weights=x.reshape(-1),
                       minlength=n * width).reshape((n,) + x.shape[1:])


def _scatter_rows_loop(x, idx, n):
    """The definition, one term at a time in ascending k, in x's dtype."""
    out = np.zeros((n,) + x.shape[1:], x.dtype)
    for k, i in enumerate(idx):
        out[i] += x[k]
    return out


def _scatter_cases(rng):
    """(label, idx, n): empty, distinct and repeated indices, a few and many
    output rows, and one row that takes most of 500 terms."""
    yield "empty", np.zeros(0, np.int64), 6
    yield "empty", np.zeros(0, np.int64), 100
    for n in (6, 64, 65, 300):
        yield "distinct", rng.permutation(n)[: (2 * n) // 3], n
        yield "repeated", rng.integers(0, n, size=3 * n + 1), n
    yield "skewed", rng.choice(3, size=500, p=[0.9, 0.08, 0.02]), 3
    yield "one row", np.full(40, 2), 5


def test_scatter_rows_matches_the_reference_bit_for_bit(rng):
    """The index table adds each row's terms in ascending k, as the old
    np.bincount path did: bit for bit equal to the reference in that order
    for every case, width 1 and 384, rank 2 and 3.  The old one-hot product
    summed in BLAS order, which matches only to rounding."""
    for label, idx, n in _scatter_cases(rng):
        for rest in ((1,), (384,), (2, 192), (3, 1, 4)):
            x = rng.normal(size=(len(idx),) + rest)
            got = T._scatter_rows(x, idx, n)
            want = _scatter_rows_reference(x, idx, n, onehot_rows=0)
            assert got.dtype == want.dtype and got.shape == want.shape, (label, n, rest)
            assert got.tobytes() == want.tobytes(), (label, n, rest)
            assert got.tobytes() == _scatter_rows_loop(x, idx, n).tobytes(), (label, n, rest)
            dispatched = _scatter_rows_reference(x, idx, n)
            if n > 64 or label in ("empty", "distinct"):
                assert got.tobytes() == dispatched.tobytes(), (label, n, rest)
            assert np.allclose(got, dispatched, rtol=1e-12, atol=1e-12), (label, n, rest)


def test_scatter_rows_keeps_the_dtype_and_sums_from_zero(rng):
    """A float32 scatter stays float32 and adds in float32, in ascending k;
    every row is 0 + its terms, so a row of -0.0 terms comes out +0.0."""
    for label, idx, n in _scatter_cases(rng):
        x = rng.normal(size=(len(idx), 5)).astype(np.float32)
        got = T._scatter_rows(x, idx, n)
        assert got.dtype == np.float32
        assert got.tobytes() == _scatter_rows_loop(x, idx, n).tobytes(), (label, n)
    for idx in ([1, 1, 0, 3], [2, 0, 3, 1]):  # repeated and distinct indices
        zeros = T._scatter_rows(np.full((4, 2), -0.0), np.array(idx), 4)
        assert not np.signbit(zeros).any()


def _gather_last_reference(table, idx):
    """The gather as it was written before the flat take."""
    return np.take_along_axis(table, idx.reshape((1,) * (table.ndim - 2) + idx.shape), axis=-1)


def test_gather_last_matches_take_along_axis(rng):
    """The flat take picks the same elements as np.take_along_axis: tables
    of rank 2 to 4, transposed (non-contiguous) tables, random indices."""
    for shape in ((5, 4), (3, 6, 4), (2, 3, 5, 7), (1, 1)):
        for transposed in (False, True):
            n, buckets = shape[-2:]
            table = rng.normal(size=shape)
            if transposed:
                table = np.swapaxes(rng.normal(size=shape[:-2] + (buckets, n)), -1, -2)
            for m in (1, 3, 9):
                idx = rng.integers(0, buckets, size=(n, m))
                for index in (idx, np.ascontiguousarray(idx.T).T):
                    got = T._gather_last(table, index)
                    assert np.array_equal(got, _gather_last_reference(table, index))
                    assert np.array_equal(gather_last(Tensor(table), index).data, got)


def test_leaves_summed_by_add_own_their_gradients(rng):
    """add hands one array to both operands; each leaf copies it, so
    clipping scales each gradient exactly once."""
    w = rng.normal(size=(3, 4))
    a = Parameter("a", rng.normal(size=(3, 4)))
    b = Parameter("b", rng.normal(size=(3, 4)))
    with Tape() as tape:
        out = T.mul(T.add(a.tensor, b.tensor), T.const(w))
        tape.backward(T.sum_along(T.reshape(out, (12,)), 0))
    assert not np.shares_memory(a.tensor.grad, b.tensor.grad)
    assert np.array_equal(a.tensor.grad, w) and np.array_equal(b.tensor.grad, w)
    norm = clip_global_norm([a, b], 0.5)
    scale = 0.5 / norm
    assert np.array_equal(a.tensor.grad, w * scale)
    assert np.array_equal(b.tensor.grad, w * scale)


def test_backward_frees_intermediate_gradients(rng):
    """After backward every recorded result's gradient is dropped, while a
    leaf keeps its gradient, added onto the one it already held."""
    x = Tensor(rng.normal(size=(3, 2)))  # a constant input: no gradient

    def loss_of(leaf):
        h = T.matmul(leaf, x)
        s = T.slice_along(T.sigmoid(T.relu(T.add(h, h))), 0, 1, 3)
        return T.sum_along(T.reshape(T.mul(s, s), (4,)), 0)

    p = Parameter("p", rng.normal(size=(4, 3)))
    fresh = Tensor(p.data.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(loss_of(fresh))
    prior = rng.normal(size=(4, 3))
    p.tensor.grad = prior.copy()
    with Tape() as tape:
        tape.backward(loss_of(p.tensor))
    assert len(tape._entries) == 8
    assert all(t.grad is None for t in tape._entries)
    assert x.grad is None
    assert np.array_equal(p.tensor.grad, prior + fresh.grad)


def test_rows_backward_matches_add_at(rng):
    """The one-hot GEMM scatter of rows' backward equals np.add.at, with
    repeated indices, rows never picked, a gradient already accumulated,
    tables of rank 1 to 3 and an empty index."""
    for shape, idx in (((6, 5), [4, 0, 4, 4, 2, 0, 5]), ((4,), [1, 1, 3]),
                       ((5, 2, 3), [0, 3, 3, 0]), ((3, 4), [])):
        table = Tensor(rng.normal(size=shape), requires_grad=True)
        prior = rng.normal(size=shape)
        table.grad = prior.copy()
        g = rng.normal(size=(len(idx),) + shape[1:])
        with Tape() as tape:
            out = T.rows(table, idx)
            tape.backward(T.sum_along(T.reshape(T.mul(out, T.const(g)), (g.size,)), 0))
        want = prior.copy()
        np.add.at(want, np.asarray(idx, dtype=np.int64), g)
        assert np.abs(table.grad - want).max() <= 1e-14 * np.abs(want).max()


def test_batched_shape_errors():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ShapeError, match="slice"):
        T.slice_along(Tensor(np.zeros((2, 3))), -1, 2, 4)


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
