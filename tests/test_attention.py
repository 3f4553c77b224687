import numpy as np
import pytest

from gram import attention as A
from gram import tensor as T
from gram.optim import Parameter, glorot
from gram.tensor import Tensor

from conftest import finite_difference_check

H, D_S, D = 3, 4, 12
CAP = 2


def make_attn(seed, d_q=D, d_k=D, d_v=D, d_o=D, zero_bias=False, scale=0.3,
              requires_grad=False):
    rg = np.random.default_rng(seed)
    mk = lambda shape: Tensor(glorot(rg, shape), requires_grad=requires_grad)
    tb = lambda: Tensor(np.zeros((H, CAP + 2, D_S)) if zero_bias
                        else rg.normal(size=(H, CAP + 2, D_S)) * scale,
                        requires_grad=requires_grad)
    return A.GraphAttentionParams(
        wq=mk((H, D_S, d_q)), wk=mk((H, D_S, d_k)), wv=mk((H, D_S, d_v)),
        bq=tb(), bk=tb(), bv=tb(),
        wo=mk((H * D_S, d_o)))


def rand_ctx(rng, n):
    dist = rng.integers(0, CAP + 2, size=(n, n))
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0)
    rows = A.Segments([n])
    return A.AttentionContext(dist[None], dist[None] <= CAP + 1, rows, rows)


def one_problem(dist, allowed):
    """The context of one attention problem with (nq, nk) arrays."""
    nq, nk = dist.shape
    return A.AttentionContext(dist[None], allowed[None], A.Segments([nq]), A.Segments([nk]))


def permuted(ctx, perm):
    """A one-problem self-attention context with its rows permuted."""
    pick = np.ix_([0], perm, perm)
    return A.AttentionContext(ctx.dist[pick], ctx.allowed[pick], ctx.queries, ctx.keys)


def vanilla_multi_head(q, k, v, p, addmask):
    """Reference multi-head attention without biases."""
    scale = 1.0 / np.sqrt(k.shape[1])
    heads = []
    for h in range(p.heads):
        qh = q @ p.wq.data[h].T
        kh = k @ p.wk.data[h].T
        vh = v @ p.wv.data[h].T
        s = (qh @ kh.T) * scale + addmask
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        c = e / e.sum(axis=-1, keepdims=True)
        heads.append(c @ vh)
    return np.concatenate(heads, axis=-1) @ p.wo.data


def test_zero_bias_reduces_to_vanilla(rng):
    """With all bias tables zero the output is ordinary multi-head
    attention, to 1e-12."""
    for trial in range(20):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, D))
        ctx = rand_ctx(rng, n)
        p = make_attn(trial, zero_bias=True)
        ours = A.g_multi_head(Tensor(x), Tensor(x), Tensor(x), ctx, p).data
        ref = vanilla_multi_head(x, x, x, p, np.where(ctx.allowed[0], 0.0, T.MASK_NEG))
        assert np.abs(ours - ref).max() <= 1e-12


def test_single_key_weight_is_one(rng):
    p = make_attn(5)
    q = Tensor(rng.normal(size=(4, D)))
    k = Tensor(rng.normal(size=(1, D)))
    ctx = one_problem(np.ones((4, 1), dtype=np.int64), np.ones((4, 1), dtype=bool))
    out = A.g_multi_head(q, k, k, ctx, p).data
    # softmax over a singleton is exactly 1, so the output is the projected
    # value plus its distance bias, identical for all queries sharing d_ij
    expected_head = [k.data @ p.wv.data[h].T + p.bv.data[h, 1] for h in range(H)]
    expected = np.concatenate([e for e in expected_head], axis=-1) @ p.wo.data
    assert np.abs(out - expected).max() < 1e-12


def test_permutation_equivariance_100(rng):
    p = make_attn(9)
    n = 7
    x = rng.normal(size=(n, D))
    ctx = rand_ctx(rng, n)
    base = A.g_multi_head(Tensor(x), Tensor(x), Tensor(x), ctx, p).data
    for _ in range(100):
        perm = rng.permutation(n)
        ctx_p = permuted(ctx, perm)
        xp = Tensor(x[perm])
        out = A.g_multi_head(xp, xp, xp, ctx_p, p).data
        assert np.abs(out - base[perm]).max() <= 1e-9


def test_all_masked_row_gives_zero_row(rng):
    p = make_attn(1)
    q = Tensor(rng.normal(size=(2, D)))
    ctx = one_problem(np.zeros((2, 2), dtype=np.int64),
                      np.array([[True, True], [False, False]]))
    out = A.g_multi_head(q, q, q, ctx, p).data
    assert not out[1].any() and out[0].any()


def test_reused_context_keeps_the_empty_row_contract(rng):
    """A context builds its masks once; every later call over it still
    zeroes the empty query row and gives the same output as a fresh
    context."""
    p = make_attn(1)
    q = Tensor(rng.normal(size=(3, D)))
    dist = rng.integers(0, CAP + 2, size=(3, 3))
    allowed = np.array([[True, False, True], [False, False, False], [True, True, False]])
    fresh = lambda: one_problem(dist, allowed)
    ctx = fresh()
    for _ in range(3):
        out = A.g_multi_head(q, q, q, ctx, p).data
        assert not out[1].any() and out[0].any() and out[2].any()
        assert np.array_equal(out, A.g_multi_head(q, q, q, fresh(), p).data)


def test_mismatched_rows_rejected(rng):
    p = make_attn(2)
    q = Tensor(rng.normal(size=(3, D)))
    k = Tensor(rng.normal(size=(2, D)))
    v = Tensor(rng.normal(size=(4, D)))
    ctx = one_problem(np.zeros((3, 2), dtype=np.int64), np.ones((3, 2), dtype=bool))
    with pytest.raises(A.AttentionError, match="rows"):
        A.g_multi_head(q, k, v, ctx, p)


def test_bias_lookup_rows_and_errors(rng):
    """Each query's single key picks the value-bias row of its distance
    bucket, the last bucket included; the tensor layer rejects indices
    outside [0, cap + 1]."""
    p = make_attn(6)
    q = Tensor(rng.normal(size=(CAP + 2, D)))
    k = Tensor(rng.normal(size=(1, D)))
    dist = np.arange(CAP + 2)[:, None]
    ctx = one_problem(dist, np.ones((CAP + 2, 1), dtype=bool))
    out = A.g_multi_head(q, k, k, ctx, p).data
    for c in range(CAP + 2):
        heads = [k.data[0] @ p.wv.data[h].T + p.bv.data[h, c] for h in range(H)]
        assert np.abs(out[c] - np.concatenate(heads) @ p.wo.data).max() < 1e-12
    for bad in (CAP + 2, -1):
        dist_bad = dist.copy()
        dist_bad[1, 0] = bad
        with pytest.raises(T.ShapeError, match="out of range"):
            A.g_multi_head(q, k, k, one_problem(dist_bad, ctx.allowed[0]), p)


def lazy_derived(dist, allowed, queries, keys):
    """Reference: what attention read of a context when it derived it on
    first use (the former attention._Derived), as (dist, queries, keys,
    addmask, empty)."""
    has_key = allowed.any(axis=-1)
    empty = None
    if not has_key.all():
        real_has_key = has_key[queries.real]
        if not real_has_key.all():
            empty = real_has_key.astype(np.float64)[:, None]
        allowed = allowed.copy()
        allowed[~has_key, 0] = True
    addmask = None if allowed.all() else np.where(allowed, 0.0, T.MASK_NEG)
    return dist, queries, keys, addmask, empty


def test_context_fields_match_lazy_reference(rng):
    """The fields a context derives at construction equal those the lazy
    reference derived: one-problem contexts and padded ones, every pair
    allowed, some pairs masked, and empty real and padding query rows."""
    cases = []
    for nq, nk in ((3, 3), (1, 4), (4, 1)):
        for p in (1.0, 0.6, 0.0):
            cases.append((rng.integers(0, CAP + 2, size=(1, nq, nk)),
                          rng.random((1, nq, nk)) < p, A.Segments([nq]), A.Segments([nk])))
    for sizes, key_sizes in (([2, 3, 1], [2, 3, 1]), ([1, 2], [3, 1]), ([3], [2])):
        queries, keys = A.Segments(sizes), A.Segments(key_sizes)
        shape = (queries.count, queries.width, keys.width)
        for p in (1.0, 0.5, 0.0):
            allowed = (rng.random(shape) < p) & queries.real[:, :, None] & keys.real[:, None]
            allowed[0, 0] = False  # a real query row with no key
            cases.append((rng.integers(0, CAP + 2, size=shape), allowed, queries, keys))
    empties = 0
    for dist_idx, allowed, queries, keys in cases:
        ctx = A.AttentionContext(dist_idx, allowed, queries, keys)
        d, q_rows, k_rows, addmask, empty = lazy_derived(dist_idx, allowed, queries, keys)
        assert ctx.dist.shape == d.shape and np.array_equal(ctx.dist, d)
        for got, want in ((ctx.queries, q_rows), (ctx.keys, k_rows)):
            assert (got.count, got.width, got.total) == (want.count, want.width, want.total)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.real, want.real)
        for got, want in ((ctx.addmask, addmask), (ctx.empty, empty)):
            assert (got is None) == (want is None)
            assert want is None or (got.dtype == want.dtype and np.array_equal(got, want))
        empties += empty is not None
    assert 0 < empties < len(cases)


def test_context_rejects_mismatched_shapes():
    with pytest.raises(A.AttentionError, match="does not match"):
        A.AttentionContext(np.zeros((1, 2, 3), dtype=np.int64), np.ones((1, 3, 2), dtype=bool),
                           A.Segments([2]), A.Segments([3]))
    with pytest.raises(A.AttentionError, match="does not match"):
        A.AttentionContext(np.zeros((2, 2, 3), dtype=np.int64), np.ones((2, 2, 3), dtype=bool),
                           A.Segments([2, 1]), A.Segments([2, 2]))


def head(t, h):
    """Head h of a head-batched tensor, on the tape."""
    return T.reshape(T.slice_along(t, 0, h, h + 1), t.data.shape[1:])


def gathered_multi_head(q, k, v, ctx, p):
    """Reference graph attention of a one-problem context that looks up one
    bias vector per (query, key) pair, forming (nq, nk, d_S) arrays; query
    rows without a key give zero rows; tape-differentiable."""
    _, nq, nk = ctx.dist.shape
    has_key = ctx.allowed[0].any(axis=1)
    allowed = ctx.allowed[0].copy()
    allowed[~has_key, 0] = True
    addmask = np.where(allowed, 0.0, T.MASK_NEG)
    scale = 1.0 / np.sqrt(k.data.shape[1])
    flat = ctx.dist.reshape(-1)
    heads = []
    for h in range(p.heads):
        qh = T.matmul(q, T.transpose(head(p.wq, h)))
        kh = T.matmul(k, T.transpose(head(p.wk, h)))
        vh = T.matmul(v, T.transpose(head(p.wv, h)))
        bq, bk, bv = (T.reshape(T.rows(head(table, h), flat), (nq, nk, D_S))
                      for table in (p.bq, p.bk, p.bv))
        s2 = T.sum_along(T.mul(T.reshape(qh, (nq, 1, D_S)), bk), 2)
        s3 = T.sum_along(T.mul(bq, T.reshape(kh, (1, nk, D_S))), 2)
        s4 = T.sum_along(T.mul(bq, bk), 2)
        scores = T.add(T.add(T.matmul(qh, T.transpose(kh)), s2), T.add(s3, s4))
        weights = T.softmax(T.add(T.mul(scores, T.const(scale)), T.const(addmask)))
        heads.append(T.add(T.matmul(weights, vh),
                           T.sum_along(T.mul(T.reshape(weights, (nq, nk, 1)), bv), 1)))
    out = T.matmul(T.concat(heads, axis=-1), p.wo)
    return T.mul(out, T.const(has_key.astype(np.float64)[:, None]))


def _output_and_grads(fn, named, weight):
    for t in named.values():
        t.grad = None
    with T.Tape() as tape:
        out = fn()
        loss = T.sum_along(T.reshape(T.mul(out, T.const(weight)), (out.data.size,)), 0)
        tape.backward(loss)
    return out.data, {name: t.grad.copy() for name, t in named.items()}


@pytest.mark.parametrize("shape", ["square", "rectangular"])
def test_factorised_bias_matches_gathered(shape, rng):
    """The factorised bias terms equal the per-pair gathered ones: outputs
    to 1e-12 and every parameter gradient to 1e-10 relative, with random
    non-zero bias tables.  As in finite_difference_check, the relative error
    has a floor of 1e-3 in its denominator: some bias-table gradients are
    zero in exact arithmetic and carry only rounding noise."""
    for trial in range(10):
        if shape == "square":
            n = int(rng.integers(2, 9))
            x = Tensor(rng.normal(size=(n, D)))
            q = k = x
            ctx = rand_ctx(rng, n)
            p = make_attn(trial, scale=1.0, requires_grad=True)
        else:
            nq, nk = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            q = Tensor(rng.normal(size=(nq, 2 * D)))
            k = Tensor(rng.normal(size=(nk, 3 * D)))
            allowed = rng.random((nq, nk)) < 0.5
            allowed[0] = False  # at least one empty row
            ctx = one_problem(rng.integers(0, CAP + 2, size=(nq, nk)), allowed)
            p = make_attn(trial, d_q=2 * D, d_k=3 * D, d_v=3 * D, scale=1.0,
                          requires_grad=True)
        assert all(np.abs(t.data).min() > 0 for t in (p.bq, p.bk, p.bv))
        named = {name: getattr(p, name) for name in ("wq", "wk", "wv", "bq", "bk", "bv", "wo")}
        weight = rng.normal(size=(q.data.shape[0], D))
        ours, g_ours = _output_and_grads(
            lambda: A.g_multi_head(q, k, k, ctx, p), named, weight)
        ref, g_ref = _output_and_grads(
            lambda: gathered_multi_head(q, k, k, ctx, p), named, weight)
        assert np.abs(ours - ref).max() <= 1e-12
        for name in named:
            a, b = g_ours[name], g_ref[name]
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-3), name


def _sublayer_params(seed, zero_proj=False, zero_fnn=False):
    rg = np.random.default_rng(seed)
    params = []

    def reg(name, val):
        p = Parameter(name, val)
        params.append(p)
        return p.tensor

    attn = A.GraphAttentionParams(
        wq=reg("wq", glorot(rg, (H, D_S, D))),
        wk=reg("wk", glorot(rg, (H, D_S, D))),
        wv=reg("wv", glorot(rg, (H, D_S, D))),
        bq=reg("bq", rg.normal(size=(H, CAP + 2, D_S)) * 0.3),
        bk=reg("bk", rg.normal(size=(H, CAP + 2, D_S)) * 0.3),
        bv=reg("bv", rg.normal(size=(H, CAP + 2, D_S)) * 0.3),
        wo=reg("wo", np.zeros((H * D_S, D)) if zero_proj else glorot(rg, (H * D_S, D))))
    sub = A.SublayerParams(
        attn,
        reg("f1", np.zeros((D, 2 * D)) if zero_fnn else glorot(rg, (D, 2 * D))),
        reg("fb1", np.zeros(2 * D)),
        reg("f2", np.zeros((2 * D, D)) if zero_fnn else glorot(rg, (2 * D, D))),
        reg("fb2", np.zeros(D)),
        reg("g1", np.ones(D)), reg("o1", np.zeros(D)),
        reg("g2", np.ones(D)), reg("o2", np.zeros(D)))
    return sub, params


def _plain_layer_norm(x, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def test_sublayer_residual_path(rng):
    """Zero attention projection and zero FNN leave the normalized input."""
    sub, _ = _sublayer_params(3, zero_proj=True, zero_fnn=True)
    x = rng.normal(size=(5, D))
    ctx = rand_ctx(rng, 5)
    out = A.attention_sublayer(Tensor(x), ctx, sub).data
    assert np.abs(out - _plain_layer_norm(_plain_layer_norm(x))).max() < 1e-12


def test_sublayer_gradients(rng):
    sub, params = _sublayer_params(8)
    x = Tensor(rng.normal(size=(5, D)))
    ctx = rand_ctx(rng, 5)
    weight = rng.normal(size=(5 * D,))

    def f():
        out = A.attention_sublayer(x, ctx, sub)
        return T.sum_along(T.mul(T.reshape(out, (5 * D,)), T.const(weight)), 0)

    # each attention table holds H heads: sample 4 coordinates per head
    report = finite_difference_check(f, params, eps=1e-6, samples_per_param=4 * H, rng=rng)
    assert report.max_rel_error <= 1e-5, report


def test_sublayer_permutation_equivariance(rng):
    sub, _ = _sublayer_params(11)
    n = 6
    x = rng.normal(size=(n, D))
    ctx = rand_ctx(rng, n)
    base = A.attention_sublayer(Tensor(x), ctx, sub).data
    for _ in range(100):
        perm = rng.permutation(n)
        ctx_p = permuted(ctx, perm)
        out = A.attention_sublayer(Tensor(x[perm]), ctx_p, sub).data
        assert np.abs(out - base[perm]).max() <= 1e-9


def test_scale_factor_applied_once(rng):
    """Doubling the key width by zero padding changes scores only through
    the d_K^(-1/2) factor."""
    p = make_attn(4, zero_bias=True)
    n = 5
    x = rng.normal(size=(n, D))
    ctx = one_problem(np.zeros((n, n), dtype=np.int64), np.ones((n, n), dtype=bool))
    out = A.g_multi_head(Tensor(x), Tensor(x), Tensor(x), ctx, p).data
    # reference recomputation with explicit single scaling
    ref = vanilla_multi_head(x, x, x, p, np.zeros((n, n)))
    assert np.abs(out - ref).max() <= 1e-12


def broadcast_project(x, w):
    """attention.project before it was one 2-D product: the rows times every
    head's (d_S, d_in) weights by a broadcast product."""
    return T.matmul(x, T.transpose(w))


def test_project_matches_broadcast_reference(rng):
    """The 2-D product equals the broadcast one in its output and in the
    gradients of both inputs, to 1e-12 relative; with Segments it lays the
    same rows out on the (H, K, width, d_S) grid, zero in unused places."""
    for n in (1, 5, 49):
        x = Tensor(rng.normal(size=(n, D)), requires_grad=True)
        w = Tensor(glorot(rng, (H, D_S, D)), requires_grad=True)
        weight = rng.normal(size=(H, n, D_S))
        results = []
        for fn in (A.project, broadcast_project):
            x.grad = w.grad = None
            with T.Tape() as tape:
                out = fn(x, w)
                tape.backward(T.sum_along(T.reshape(T.mul(out, T.const(weight)),
                                                    (out.data.size,)), 0))
            results.append((out.data, x.grad.copy(), w.grad.copy()))
        for new, ref in zip(*results):
            assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    runs = A.Segments([2, 3])
    x = Tensor(rng.normal(size=(5, D)))
    grid = A.project(x, w, runs).data
    ref = broadcast_project(x, w).data
    assert grid.shape == (H, 2, 3, D_S)
    assert np.array_equal(grid[:, 0, :2], ref[:, :2]) and not grid[:, 0, 2].any()
    assert np.array_equal(grid[:, 1], ref[:, 2:])
