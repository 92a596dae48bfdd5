"""Tensor engine: forward semantics, gradient checks, invariants."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot import numerics as N
from fot.errors import DataError, ShapeError, UsageError


def t64(arr, grad=True):
    return N.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_tensor_keeps_floats_and_coerces_other_arrays_to_float64():
    assert N.Tensor(np.ones(2, np.float32)).dtype == np.float32
    ints = N.Tensor(np.arange(3))
    assert ints.dtype == np.float64 and ints.data.tolist() == [0.0, 1.0, 2.0]


def test_matmul_identity():
    a = t64(np.eye(2))
    b = t64([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(N.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_projector():
    a = t64([[1.0, 0.0], [0.0, 0.0]])
    b = t64([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(N.matmul(a, b).data, [[5, 6], [0, 0]])


def test_matmul_f32_vs_f64_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    got = N.matmul(N.Tensor(a.astype(np.float32)), N.Tensor(b.astype(np.float32))).data
    want = a.astype(np.float64) @ b.astype(np.float64)
    assert np.abs(got - want).max() < 1e-5


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        N.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


def test_add_and_concat():
    np.testing.assert_array_equal(N.add(t64([1.0, 2.0]), t64([3.0, 4.0])).data, [4.0, 6.0])
    out = N.concat_last_axis([t64(np.zeros((5, 2))), t64(np.ones((5, 3)))])
    assert out.shape == (5, 5)
    with pytest.raises(ShapeError):
        N.add(t64(np.ones((2, 3))), t64(np.ones((4, 5))))


def test_softmax_uniform_and_masking_limit():
    for c in (0.5, 2.0, 30.0):
        y = N.softmax_last_axis(t64([c, c, c])).data
        np.testing.assert_allclose(y, [1 / 3] * 3, atol=1e-12)
    y = N.softmax_last_axis(t64([0.0, N.MASK_VALUE])).data
    assert y[0] > 1 - 1e-9 and y[1] < 1e-9


def test_softmax_vs_f64_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    got = N.softmax_last_axis(N.Tensor(x.astype(np.float32))).data
    e = np.exp(x - np.max(x))
    assert np.abs(got - e / e.sum()).max() < 1e-6


def test_rms_norm_examples():
    g = t64(np.ones(4))
    np.testing.assert_allclose(N.rms_norm(t64([1.0, 1.0, 1.0, 1.0]), g).data, np.ones(4), atol=1e-6)
    g2 = t64(np.ones(2))
    np.testing.assert_allclose(N.rms_norm(t64([2.0, 2.0]), g2).data, np.ones(2), atol=1e-6)
    # zero vector is epsilon-guarded, not an error
    assert np.isfinite(N.rms_norm(t64([0.0, 0.0]), g2).data).all()


def test_rms_norm_vs_f64_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(16)
    gain = rng.standard_normal(16)
    got = N.rms_norm(N.Tensor(x.astype(np.float32)), N.Tensor(gain.astype(np.float32))).data
    want = x / np.sqrt(np.mean(x * x) + 1e-6) * gain
    assert np.abs(got - want).max() < 1e-6


def test_rotary_identity_at_position_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 1, 8))
    out = N.rotary_encode(t64(x), np.zeros(1, dtype=np.int64)).data
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_rotary_definition_headdim2():
    out = N.rotary_encode(t64([[1.0, 0.0]]), np.array([1]), base=1.0).data
    np.testing.assert_allclose(out[0], [np.cos(1.0), np.sin(1.0)], atol=1e-12)


def test_rotary_relative_shift_invariance():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((1, 8))
    k = rng.standard_normal((1, 8))
    def dot_at(pq, pk):
        qr = N.rotary_encode(t64(q), np.array([pq])).data
        kr = N.rotary_encode(t64(k), np.array([pk])).data
        return float((qr * kr).sum())
    assert abs(dot_at(5, 3) - dot_at(9, 7)) < 1e-9
    assert abs(dot_at(12, 12) - dot_at(0, 0)) < 1e-9


@pytest.mark.parametrize("positions", [np.array([3, -1]), np.array([0.0, 1.0])],
                         ids=["negative", "float"])
def test_rotary_rejects_positions_that_index_no_row(positions):
    """Positions index a table of rotations, and numpy would wrap -1 to its
    last row."""
    with pytest.raises(UsageError, match="non-negative integer positions"):
        N.rotary_encode(t64(np.ones((2, 4))), positions)


def test_rotary_table_grows_to_a_far_position():
    """After positions 0..15, position 4,000 must grow the table, and each pair
    (x_2j, x_2j+1) rotates by pos * base^(-2j/head_dim) as in float64."""
    rng = np.random.default_rng(6)
    head_dim, base = 10, 321.0
    key = (head_dim, np.dtype(np.float64), base)
    N._ROTATIONS.pop(key, None)
    x = rng.standard_normal((3, 16, head_dim))
    N.rotary_encode(t64(x), np.arange(16), base)
    assert len(N._ROTATIONS[key]) == 16
    pos = np.array([4000, 7, 3999])
    out = N.rotary_encode(t64(x[:, :3]), pos, base).data
    assert len(N._ROTATIONS[key]) >= 4001
    ang = pos[:, None] * base ** (-np.arange(head_dim // 2) * 2.0 / head_dim)
    xe, xo = x[:, :3, 0::2], x[:, :3, 1::2]
    np.testing.assert_allclose(out[..., 0::2], xe * np.cos(ang) - xo * np.sin(ang), rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[..., 1::2], xe * np.sin(ang) + xo * np.cos(ang), rtol=0, atol=1e-12)


def test_rotary_odd_head_dim_rejected():
    with pytest.raises(ShapeError):
        N.rotary_encode(t64(np.ones((2, 3))), np.arange(2))


def test_cross_entropy_examples():
    big = np.full((1, 1, 4), -1e4)
    big[0, 0, 2] = 1e4
    loss = N.cross_entropy_masked(t64(big), [[2]], [[1]])
    assert loss.item() < 1e-6
    uni = np.zeros((1, 3, 64))
    mask = [[1, 1, 0]]
    loss = N.cross_entropy_masked(t64(uni), [[5, 9, 0]], mask)
    assert abs(loss.item() - np.log(64.0)) < 1e-9
    with pytest.raises(UsageError):
        N.cross_entropy_masked(t64(uni), [[5, 9, 0]], [[0, 0, 0]])


@pytest.mark.parametrize("bad", [-1, 5])
def test_cross_entropy_rejects_a_target_outside_the_vocabulary(bad):
    """A target of -1 used to wrap to the last id, and one >= vocab died in an
    IndexError; both are DataErrors, whether or not the mask selects them."""
    logits = t64(np.zeros((1, 3, 5)))
    for mask in ([[1, 1, 1]], [[1, 1, 0]]):
        with pytest.raises(DataError, match=f"target {bad} is outside the vocabulary of 5 ids"):
            N.cross_entropy_masked(logits, [[0, 4, bad]], mask)


def test_cross_entropy_vs_f64_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((2, 5, 7))
    tgt = rng.integers(0, 7, size=(2, 5))
    mask = rng.integers(0, 2, size=(2, 5))
    mask[0, 0] = 1
    got = N.cross_entropy_masked(N.Tensor(logits.astype(np.float32)), tgt, mask).item()
    # independent recomputation
    want = 0.0
    for b in range(2):
        for i in range(5):
            if mask[b, i]:
                z = logits[b, i]
                want += np.log(np.exp(z).sum()) - z[tgt[b, i]]
    want /= mask.sum()
    assert abs(got - want) < 1e-6


def test_mask_zero_positions_get_zero_grad():
    rng = np.random.default_rng(6)
    logits = t64(rng.standard_normal((1, 4, 5)))
    mask = np.array([[1, 0, 1, 0]])
    with N.Tape() as tape:
        loss = N.cross_entropy_masked(logits, [[0, 1, 2, 3]], mask)
    N.backward(tape, loss)
    assert np.abs(logits.grad[0, 1]).max() == 0.0
    assert np.abs(logits.grad[0, 3]).max() == 0.0
    assert np.abs(logits.grad[0, 0]).max() > 0.0


def test_sum_all_grad_is_ones():
    x = t64(np.arange(6, dtype=np.float64).reshape(2, 3))
    with N.Tape() as tape:
        loss = N.sum_all(x)
    N.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_rejects_non_scalar():
    x = t64(np.ones(3))
    with N.Tape() as tape:
        y = N.mul(x, x)
    with pytest.raises(UsageError):
        N.backward(tape, y)


# ---------------------------------------------------------------------------
# finite-difference checks for every primitive
# ---------------------------------------------------------------------------

def _check(fn, params, tol=1e-5):
    err = N.finite_diff_check(fn, params, eps=1e-5)
    assert err < tol, f"finite-diff rel err {err}"


@pytest.mark.parametrize("seed", range(3))
def test_fd_matmul(seed):
    rng = np.random.default_rng(seed)
    a = t64(rng.standard_normal((3, 4)))
    b = t64(rng.standard_normal((4, 2)))
    w = rng.standard_normal((3, 2))
    _check(lambda: N.sum_all(N.mul(N.matmul(a, b), N.Tensor(w))), [a, b])


def test_fd_matmul_batched_broadcast():
    rng = np.random.default_rng(7)
    a = t64(rng.standard_normal((2, 3, 4, 5)))
    b = t64(rng.standard_normal((5, 3)))
    w = rng.standard_normal((2, 3, 4, 3))
    _check(lambda: N.sum_all(N.mul(N.matmul(a, b), N.Tensor(w))), [a, b])


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_fd_weight_grad_is_one_gemm_over_all_rows(layout):
    """linear's weight grad is one GEMM over x's rows flattened to [-1, K]; it
    equals the batched [2, 3, 5, 3] product summed over the batch at round-off."""
    rng = np.random.default_rng(16)
    a_arr = rng.standard_normal((2, 3, 4, 5))
    if layout == "strided":
        a_arr = np.swapaxes(rng.standard_normal((2, 3, 5, 4)), -1, -2)
    a, b, bias = t64(a_arr), t64(rng.standard_normal((5, 3))), t64(rng.standard_normal(3))
    w = rng.standard_normal((2, 3, 4, 3))
    _check(lambda: N.sum_all(N.mul(N.linear(a, b, bias), N.Tensor(w))), [b])
    with N.Tape() as tape:
        out = N.linear(a, b, bias)
    N.zero_grads((a, b, bias))
    N.backward_from(tape, [(out, w)])
    batched = np.matmul(np.swapaxes(a.data, -1, -2), w).sum(axis=(0, 1))
    np.testing.assert_allclose(b.grad, batched, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("x_shape", [(4, 5), (2, 4, 5)], ids=["2d", "3d"])
def test_fd_linear(x_shape):
    rng = np.random.default_rng(17)
    x, w, b = t64(rng.standard_normal(x_shape)), t64(rng.standard_normal((5, 3))), t64(rng.standard_normal(3))
    probe = N.Tensor(rng.standard_normal(x_shape[:-1] + (3,)))
    _check(lambda: N.sum_all(N.mul(N.linear(x, w, b), probe)), [x, w, b])
    np.testing.assert_allclose(N.linear(x, w, b).data, x.data @ w.data + b.data, rtol=1e-14, atol=1e-14)


def test_linear_shape_errors():
    x, w = t64(np.ones((2, 3, 4))), t64(np.ones((4, 5)))
    with pytest.raises(ShapeError):
        N.linear(x, t64(np.ones((3, 5))), t64(np.ones(5)))  # inner dims 4 vs 3
    for bias in (np.ones(4), np.ones((1, 5)), np.ones(())):
        with pytest.raises(ShapeError):
            N.linear(x, w, t64(bias))


def test_linear_keeps_only_its_input_rows_and_weight():
    """linear records one node, whose closure holds x (as rows) and w, not
    its output."""
    rng = np.random.default_rng(19)
    x, w, b = t64(rng.standard_normal((2, 3, 4))), t64(rng.standard_normal((4, 5))), t64(np.ones(5))
    with N.Tape() as tape:
        y = N.linear(x, w, b)
    assert len(tape) == 1
    kept = [c.cell_contents for c in tape._nodes[0].backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(kept) == 2 and any(k is w.data for k in kept)
    assert any(k.shape == (6, 4) and np.shares_memory(k, x.data) for k in kept)
    assert not any(np.shares_memory(k, y.data) for k in kept)


def test_fd_elementwise_and_shape_ops():
    rng = np.random.default_rng(8)
    a = t64(rng.standard_normal((2, 3)))
    b = t64(rng.standard_normal((2, 3)))
    c = t64(rng.standard_normal(3))
    w = rng.standard_normal((2, 3))

    w26 = N.Tensor(rng.standard_normal((2, 6)))
    w33 = N.Tensor(rng.standard_normal((3, 3)))
    w43 = N.Tensor(rng.standard_normal((4, 3)))

    _check(lambda: N.sum_all(N.mul(N.add(a, b), N.Tensor(w))), [a, b])
    _check(lambda: N.sum_all(N.mul(N.mul(a, c), N.Tensor(w))), [a, c])  # broadcast
    _check(lambda: N.sum_all(N.mul(N.scale(a, 2.5), N.Tensor(w))), [a])
    _check(lambda: N.sum_all(N.mul(N.reshape(a, (3, 2)), N.Tensor(w.reshape(3, 2)))), [a])
    _check(lambda: N.sum_all(N.mul(N.transpose(a, (1, 0)), N.Tensor(w.T))), [a])
    _check(lambda: N.sum_all(N.mul(N.concat_last_axis([a, b]), w26)), [a, b])
    _check(lambda: N.sum_all(N.mul(N.slice_last_axis(a, 1, 3), N.Tensor(w[:, 1:3]))), [a])
    _check(lambda: N.sum_all(N.mul(N.take_rows(a, [1, 0, 1]), w33)), [a])
    _check(lambda: N.sum_all(N.mul(N.concat_axis([a, b], 0), w43)), [a, b])


def test_fd_attention_logits_broadcast_keys_and_no_mask():
    rng = np.random.default_rng(12)
    q = t64(rng.standard_normal((2, 2, 3, 4)))
    k_own = t64(rng.standard_normal((2, 2, 3, 4)))
    k_shared = t64(rng.standard_normal((1, 2, 5, 4)))  # broadcast over the batch axis
    add = rng.standard_normal((1, 1, 3, 3))  # a MASK_VALUE entry would swamp the probe
    w = N.Tensor(rng.standard_normal((2, 2, 3, 8)))
    _check(lambda: N.sum_all(N.mul(N.attention_logits(q, [k_own, k_shared], [add, None]), w)),
           [q, k_own, k_shared])
    # the shared set's grad is one GEMM per slot summed into one buffer
    per_slot = np.matmul(np.swapaxes(w.data[..., 3:], -1, -2), q.data).sum(axis=0, keepdims=True)
    np.testing.assert_allclose(k_shared.grad, per_slot, rtol=1e-13, atol=1e-13)


def test_shared_key_backward_allocates_no_per_slot_key_grad():
    """At b=8, H=4, E·T=1024, Dh=16 a [b, ...] key grad is 2 MiB and the
    shared one 256 KiB; backward holds at most two key-sized buffers beside
    the logits grad, never the per-slot stack."""
    rng = np.random.default_rng(18)
    b, h, t, n, dh = 8, 4, 32, 1024, 16
    q = N.Tensor(rng.standard_normal((b, h, t, dh)).astype(np.float32))
    k = N.Tensor(rng.standard_normal((1, h, n, dh)).astype(np.float32), requires_grad=True)
    with N.Tape() as tape:
        logits = N.attention_logits(q, [k], [None])
    g = rng.standard_normal(logits.shape).astype(np.float32)
    tracemalloc.start()
    try:
        N.backward_from(tape, [(logits, g)])  # the seed's copy is the logits grad
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - g.nbytes < 4 * k.data.nbytes, (peak - g.nbytes) / k.data.nbytes
    assert k.grad.shape == k.shape


def test_attention_logits_equals_the_ops_it_replaces():
    rng = np.random.default_rng(13)

    def f32(*shape):
        return N.Tensor(rng.standard_normal(shape).astype(np.float32))

    q, k_loc, k_ext = f32(2, 3, 6, 8), f32(2, 3, 6, 8), f32(2, 3, 12, 8)
    causal = N.causal_mask(6)[None, None]
    pad = np.zeros((2, 1, 1, 12), np.float32)
    pad[1, ..., 7:] = N.MASK_VALUE
    composed = N.concat_last_axis([
        N.add(N.matmul(q, N.transpose(k, (0, 1, 3, 2))), N.Tensor(add))
        for k, add in ((k_loc, causal), (k_ext, pad))])
    fused = N.attention_logits(q, [k_loc, k_ext], [causal, pad])
    assert fused.shape == composed.shape == (2, 3, 6, 18)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-6)
    with pytest.raises(ShapeError):
        N.attention_logits(q, [f32(2, 3, 6, 5)], [None])


def test_fd_concat_axis_broadcasts_leading_dims():
    rng = np.random.default_rng(15)
    own = t64(rng.standard_normal((3, 2, 4, 5)))
    shared = t64(rng.standard_normal((1, 2, 6, 5)))  # joins every entry of the batch axis
    w = N.Tensor(rng.standard_normal((3, 2, 10, 5)))
    _check(lambda: N.sum_all(N.mul(N.concat_axis([own, shared], axis=-2), w)), [own, shared])
    with pytest.raises(ShapeError):
        N.concat_axis([own, t64(np.zeros((2, 2, 6, 5)))], axis=-2)


def test_fd_nonlinearities():
    rng = np.random.default_rng(9)
    x = t64(rng.standard_normal((2, 5)))
    w = rng.standard_normal((2, 5))
    _check(lambda: N.sum_all(N.mul(N.softmax_last_axis(x), N.Tensor(w))), [x])
    _check(lambda: N.sum_all(N.mul(N.sigmoid(x), N.Tensor(w))), [x])
    _check(lambda: N.sum_all(N.mul(N.silu(x), N.Tensor(w))), [x])
    _check(lambda: N.sum_all(N.mul(N.exp(x), N.Tensor(w))), [x])
    _check(lambda: N.sum_all(N.mul(N.l2_normalize_last_axis(x), N.Tensor(w))), [x])


def test_fd_norms_rotary_embedding_ce():
    rng = np.random.default_rng(10)
    x = t64(rng.standard_normal((3, 6)))
    gain = t64(rng.standard_normal(6))
    w = rng.standard_normal((3, 6))
    _check(lambda: N.sum_all(N.mul(N.rms_norm(x, gain), N.Tensor(w))), [x, gain])

    xr = t64(rng.standard_normal((2, 4, 8)))
    wr = rng.standard_normal((2, 4, 8))
    pos = np.array([0, 3, 7, 11])
    _check(lambda: N.sum_all(N.mul(N.rotary_encode(xr, pos), N.Tensor(wr))), [xr])

    table = t64(rng.standard_normal((9, 4)))
    ids = rng.integers(0, 9, size=(2, 3))
    we = rng.standard_normal((2, 3, 4))
    _check(lambda: N.sum_all(N.mul(N.embedding(table, ids), N.Tensor(we))), [table])

    logits = t64(rng.standard_normal((2, 3, 5)))
    tgt = rng.integers(0, 5, size=(2, 3))
    mask = np.array([[1, 0, 1], [1, 1, 0]])
    _check(lambda: N.cross_entropy_masked(logits, tgt, mask), [logits])


def test_fd_linear_function_roundoff_level():
    rng = np.random.default_rng(11)
    x = t64(rng.standard_normal(4))
    w = rng.standard_normal(4)
    err = N.finite_diff_check(lambda: N.sum_all(N.mul(x, N.Tensor(w))), [x], eps=1e-5)
    assert err < 1e-9


def test_fd_documents_stop_gradient_mismatch():
    # On a path detached from the tape the numeric grad is nonzero while the
    # analytic grad is zero; the checker reports that mismatch rather than
    # hiding it.
    x = t64(np.array([0.5, -0.3]))

    def fn():
        frozen = N.Tensor(x.data.copy())
        return N.sum_all(N.mul(frozen, frozen))

    err = N.finite_diff_check(fn, [x])
    assert err > 0.9


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-300, 300), min_size=2, max_size=12))
def test_softmax_simplex_property(vals):
    y = N.softmax_last_axis(t64(vals)).data
    assert abs(y.sum() - 1.0) < 1e-6
    assert (y >= 0).all() and (y <= 1).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_bit_determinism(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 6)).astype(np.float32)
    b = rng.standard_normal((6, 3)).astype(np.float32)
    r1 = N.softmax_last_axis(N.matmul(N.Tensor(a.copy()), N.Tensor(b.copy()))).data
    r2 = N.softmax_last_axis(N.matmul(N.Tensor(a.copy()), N.Tensor(b.copy()))).data
    assert (r1 == r2).all()


def test_grad_accumulates_across_multiple_uses():
    x = t64([2.0])
    with N.Tape() as tape:
        y = N.add(x, x)
        loss = N.sum_all(y)
    N.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_adopted_grad_buffers_accumulate_correctly():
    """reshape, transpose and add hand their grad buffer on, and softmax's
    backward overwrites its own; a leaf reached along several such paths
    still gets the sum of all of them."""
    rng = np.random.default_rng(11)
    x = t64(rng.standard_normal((3, 4)))

    def fn():
        a = N.transpose(x, (1, 0))
        b = N.reshape(N.transpose(x, (1, 0)), (4, 3))
        s = N.softmax_last_axis(N.add(N.add(a, b), N.reshape(x, (4, 3))))
        return N.sum_all(N.mul(s, N.add(s, a)))

    _check(fn, [x])


# ---------------------------------------------------------------------------
# backward consumes its tape
# ---------------------------------------------------------------------------

def test_backward_releases_consumed_nodes():
    x = t64(np.linspace(-1.0, 1.0, 6))
    w = t64(np.full(6, 0.5))
    with N.Tape() as tape:
        y = N.sigmoid(x)  # the sigmoid closure keeps y's array
        z = N.mul(y, w)
        loss = N.sum_all(N.mul(z, z))
    recorded = len(tape)
    forward_array = weakref.ref(y.data)
    del y
    grads_in = []
    for node in tape._nodes[:2]:  # sigmoid and mul(y, w) receive y's and z's grads
        def spy(g, inner=node.backward):
            grads_in.append(weakref.ref(g))
            inner(g)
        node.backward = spy
    del node, spy  # the spies hold the closures only through the nodes
    N.backward(tape, loss)
    assert len(grads_in) == 2 and all(r() is None for r in grads_in)
    assert forward_array() is None
    assert z.grad is None and loss.grad is None
    assert x.grad is not None and w.grad is not None  # leaf grads survive
    assert len(tape) == recorded


def test_tape_keeps_only_the_arrays_backward_reads():
    """matmul's and add's outputs feed closures that do not read them, and
    SiLU's backward reads its output and σ but not its input, so those go
    with the caller's last reference while the tape lives; the RMSNorm input,
    the matmul operand and the SiLU and softmax outputs stay for backward.
    RMSNorm keeps no normalized copy: the only input-sized array its
    closure holds is its input."""
    rng = np.random.default_rng(12)
    a, w, bias, gain = (t64(rng.standard_normal(s)) for s in ((4, 6), (6, 6), (6,), (6,)))
    tgt, mask = rng.integers(0, 2, size=(2, 6)), np.ones((2, 6))

    def run(hold):
        N.zero_grads((a, w, bias, gain))
        with N.Tape() as tape:
            x = N.scale(a, 2.0)
            n = N.rms_norm(x, gain)
            h = N.matmul(n, w)
            s = N.add(h, bias)
            u = N.silu(s)
            y = N.softmax_last_axis(N.transpose(N.reshape(u, (2, 2, 6)), (0, 2, 1)))
            loss = N.cross_entropy_masked(y, tgt, mask)  # keeps its own temporaries only
        refs = {"x": weakref.ref(x.data), "rms_norm": weakref.ref(n.data),
                "matmul": weakref.ref(h.data), "add": weakref.ref(s.data),
                "silu": weakref.ref(u.data), "softmax": weakref.ref(y.data)}
        norm_kept = [c.cell_contents for c in tape._nodes[1].backward.__closure__
                     if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.shape == x.shape]
        assert len(norm_kept) == 1 and norm_kept[0] is x.data
        held = [x, n, h, s, u, y] if hold else []  # alive through backward
        del x, n, h, s, u, y, norm_kept
        alive = {name for name, r in refs.items() if r() is not None}
        N.backward(tape, loss)
        del held
        return alive, [p.grad.copy() for p in (a, w, bias, gain)]

    alive, grads = run(hold=False)
    assert alive == {"x", "rms_norm", "silu", "softmax"}
    held_alive, held_grads = run(hold=True)
    assert held_alive == {"x", "rms_norm", "matmul", "add", "silu", "softmax"}
    for g, want in zip(grads, held_grads):
        np.testing.assert_array_equal(g, want)


def test_backward_peak_memory_holds_one_grad_of_a_chain():
    x = N.Tensor(np.ones(2**17), requires_grad=True)  # 1 MiB
    with N.Tape() as tape:
        h = x
        for _ in range(16):
            h = N.scale(h, 1.0)
        loss = N.sum_all(h)
    del h
    tracemalloc.start()
    try:
        N.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20  # all 17 intermediate grads at once would be 17 MiB
    np.testing.assert_array_equal(x.grad, 1.0)


def test_softmax_backward_allocates_no_score_sized_temporary():
    """Backward turns the grad it is handed into the input's grad in place;
    beside that grad it allocates one block of rows, not a [..., n] array of
    g * y, and every row's sum keeps numpy's order."""
    rng = np.random.default_rng(14)
    shape = (2, 4, 64, 2048)
    x = N.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    with N.Tape() as tape:
        y = N.softmax_last_axis(x)
    g = rng.standard_normal(shape).astype(np.float32)
    tracemalloc.start()
    try:
        N.backward_from(tape, [(y, g)])  # the seed is copied: that copy becomes x.grad
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - g.nbytes < g.nbytes / 4, peak / g.nbytes
    want = g.copy()
    want -= (g * y.data).sum(axis=-1, keepdims=True)
    want *= y.data
    np.testing.assert_array_equal(x.grad, want)


def test_silu_and_rms_norm_make_no_full_size_temporaries():
    """silu's forward allocates σ and y and nothing else input-sized, and its
    backward one temporary beside the grad it is handed; rms_norm's forward
    holds its output or the x·x it averages, never both, and its backward
    one temporary, with u = g·gain in the handed grad."""
    rng = np.random.default_rng(20)
    x = N.Tensor(rng.standard_normal((4, 256, 256)).astype(np.float32), requires_grad=True)
    gain = N.Tensor(rng.standard_normal(256).astype(np.float32), requires_grad=True)
    size = x.data.nbytes
    for op, fwd_arrays in ((N.silu, 2), (lambda t: N.rms_norm(t, gain), 1)):
        x.grad = gain.grad = None
        tracemalloc.start()
        try:
            with N.Tape() as tape:
                y = op(x)
            fwd_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = rng.standard_normal(x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            N.backward_from(tape, [(y, g)])  # the seed's copy becomes x's grad
            bwd_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fwd_peak < (fwd_arrays + 0.25) * size, fwd_peak / size
        assert bwd_peak < 2.25 * size, bwd_peak / size
        assert x.grad.shape == x.shape


def test_tape_is_single_use():
    x = t64([1.0, 2.0])
    with N.Tape() as tape:
        loss = N.sum_all(N.mul(x, x))
    N.backward(tape, loss)
    with pytest.raises(UsageError):
        N.backward(tape, loss)
    with pytest.raises(UsageError):
        N.backward_from(tape, [(loss, np.ones_like(loss.data))])
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
