"""Unit tests for the numeric core: layer ops, losses, optimizer, RNG, and
the finite-difference checker that the rest of the suite leans on."""

import gc
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tripletrec import nn as N
from tripletrec.nn import (
    ParamTensor,
    fuse,
    param_arena,
    RngState,
    adam_step,
    bce_loss_from_logit,
    dropout_backward,
    dropout_forward,
    glorot_fill,
    grad_check,
    layer_norm_forward,
    linear_forward,
    linear_backward,
    linear_param_backward,
    relu_backward,
    relu_forward,
    sigmoid_stable,
    writing,
    zero_grads,
)


def pt(values) -> ParamTensor:
    return ParamTensor(np.array(values, dtype=np.float64))


class TestLinear:
    def test_identity_weights(self):
        out, _ = linear_forward(np.array([[1.0, 2.0]]), pt([[1, 0], [0, 1]]), pt([[0, 0]]))
        npt.assert_array_equal(out, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        out, _ = linear_forward(np.array([[0.0, 0.0]]), pt([[5, 7], [2, 9]]), pt([[3, -1]]))
        npt.assert_array_equal(out, [[3.0, -1.0]])

    def test_hand_matmul(self):
        out, _ = linear_forward(np.array([[1.0, 1.0]]), pt([[2, 0], [0, 3]]), pt([[1, 1]]))
        npt.assert_array_equal(out, [[3.0, 4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 3\).*\(2, 2\)"):
            linear_forward(np.zeros((1, 3)), pt([[1, 0], [0, 1]]), pt([[0, 0]]))

    def test_linearity_with_zero_bias(self):
        gen = np.random.default_rng(0)
        w = pt(gen.normal(size=(4, 3)))
        b = pt(np.zeros((1, 3)))
        x = gen.normal(size=(2, 4))
        y = gen.normal(size=(2, 4))
        lhs, _ = linear_forward(x + y, w, b)
        fx, _ = linear_forward(x, w, b)
        fy, _ = linear_forward(y, w, b)
        npt.assert_allclose(lhs, fx + fy, rtol=1e-12)


class TestRelu:
    def test_elementwise_max(self):
        out, _ = relu_forward(np.array([[-1.0, 0.0, 2.0]]))
        npt.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_all_negative_gives_zero(self):
        out, _ = relu_forward(np.full((3, 4), -2.5))
        npt.assert_array_equal(out, np.zeros((3, 4)))

    def test_gradient_gating(self):
        x = np.array([[3.0, -3.0, 0.0]])
        _, cache = relu_forward(x)
        d = relu_backward(np.ones_like(x), cache)
        npt.assert_array_equal(d, [[1.0, 0.0, 0.0]])  # subgradient at 0 is 0


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid_stable(0.0) == 0.5

    def test_minus_two(self):
        npt.assert_allclose(sigmoid_stable(-2.0), 0.11920292202211755, rtol=1e-14)

    def test_complement_sums_to_one(self):
        x = np.linspace(-50, 50, 1001)
        npt.assert_allclose(sigmoid_stable(x) + sigmoid_stable(-x), 1.0, atol=1e-15)

    def test_no_overflow_at_700(self):
        assert sigmoid_stable(700.0) == 1.0
        assert sigmoid_stable(-700.0) > 0.0


class TestBce:
    def test_half_prob_is_ln2(self):
        # logit 0 is probability 1/2
        npt.assert_allclose(bce_loss_from_logit(0.0, 0), math.log(2), rtol=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert bce_loss_from_logit(30.0, 1) < 1e-11

    def test_sigmoid_minus_two_label_zero(self):
        # -ln(1 - sigmoid(-2)) = ln(1 + exp(-2))
        expected = math.log1p(math.exp(-2.0))
        npt.assert_allclose(bce_loss_from_logit(-2.0, 0), expected, rtol=1e-10)
        npt.assert_allclose(expected, 0.126928, atol=5e-7)

    def test_logit_form_matches_probability_form(self):
        gen = np.random.default_rng(1)
        o = gen.normal(scale=4, size=200)
        y = gen.integers(0, 2, size=200).astype(float)
        p = sigmoid_stable(o)
        npt.assert_allclose(
            bce_loss_from_logit(o, y), -(y * np.log(p) + (1.0 - y) * np.log1p(-p)), rtol=1e-10
        )

    def test_loss_monotone_in_logit_for_label_zero(self):
        o = np.linspace(-6, 6, 100)
        losses = bce_loss_from_logit(o, np.zeros_like(o))
        assert np.all(np.diff(losses) > 0)


class TestDropout:
    def test_p_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 5))
        out, mask = dropout_forward(x, 0.0, RngState(0), training=True)
        assert mask is None
        npt.assert_array_equal(out, x)

    def test_inference_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 5))
        out, mask = dropout_forward(x, 0.2, RngState(0), training=False)
        assert mask is None
        npt.assert_array_equal(out, x)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((100, 1000))
        out, _ = dropout_forward(x, 0.2, RngState(7), training=True)
        assert abs(out.mean() - 1.0) < 0.01

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones((2, 2)), 1.0, RngState(0), training=True)

    def test_same_seed_gives_bitwise_identical_masks(self):
        x = np.ones((50, 50))
        out1, mask1 = dropout_forward(x, 0.3, RngState(42), training=True)
        out2, mask2 = dropout_forward(x, 0.3, RngState(42), training=True)
        assert np.array_equal(mask1, mask2)
        assert np.array_equal(out1, out2)

    def test_backward_reuses_mask(self):
        x = np.ones((4, 4))
        _, mask = dropout_forward(x, 0.5, RngState(3), training=True)
        d = dropout_backward(np.ones_like(x), mask)
        npt.assert_array_equal(d, mask)


class TestLayerNorm:
    def test_standardizes_rows(self):
        x = np.array([[1.0, 2.0, 3.0]])
        gain, shift = pt(np.ones((1, 3))), pt(np.zeros((1, 3)))
        out, _ = layer_norm_forward(x, gain, shift)
        assert abs(out.mean()) < 1e-9
        npt.assert_allclose(out.var(), 1.0, atol=1e-9)

    def test_constant_row_maps_to_shift(self):
        x = np.array([[5.0, 5.0, 5.0]])
        out, _ = layer_norm_forward(x, pt(np.ones((1, 3))), pt(np.zeros((1, 3))))
        npt.assert_array_equal(out, [[0.0, 0.0, 0.0]])

    def test_zero_gain_broadcasts_shift(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        out, _ = layer_norm_forward(x, pt(np.zeros((1, 3))), pt([[1.0, -2.0, 0.5]]))
        npt.assert_array_equal(out, np.tile([[1.0, -2.0, 0.5]], (4, 1)))

    def test_row_stats_random_inputs(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(64, 16)) * 3 + 1
        out, _ = layer_norm_forward(x, pt(np.ones((1, 16))), pt(np.zeros((1, 16))))
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        npt.assert_allclose(out.var(axis=1), 1.0, atol=1e-6)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = pt([[1.0, -2.0]])
        adam_step([p], lr=0.1, step=1)
        npt.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_first_step_moves_by_lr(self):
        p = pt([[0.0]])
        p.grad[...] = 1.0
        adam_step([p], lr=0.1, step=1)
        npt.assert_allclose(p.value, [[-0.1]], rtol=1e-7)

    def test_identical_params_stay_identical(self):
        gen = np.random.default_rng(2)
        vals = gen.normal(size=(3, 3))
        p1, p2 = pt(vals), pt(vals.copy())
        for step in range(1, 20):
            g = gen.normal(size=(3, 3))
            p1.grad[...] = g
            p2.grad[...] = g
            adam_step([p1, p2], lr=0.05, step=step)
            zero_grads([p1, p2])
        assert np.array_equal(p1.value, p2.value)

    @pytest.mark.parametrize("step", [0, -1])
    def test_step_below_one_is_rejected(self, step):
        # step 0 would make the bias correction 1 - b1**0 = 0 and write NaN
        p = pt([[1.0, 2.0]])
        p.grad[...] = 0.5
        with pytest.raises(ValueError, match="1-based"):
            adam_step([p], step=step)
        npt.assert_array_equal(p.value, [[1.0, 2.0]])

    def test_empty_parameter_list_is_a_no_op(self):
        adam_step([], step=1)
        zero_grads([])


class TestArena:
    SHAPES = [(2, 3), (1, 3), (4,), (1, 1)]

    def test_parts_are_views_laid_end_to_end(self):
        parts = param_arena(self.SHAPES)
        arena = parts[0].arena
        assert arena.shape == (6 + 3 + 4 + 1,)
        assert [p.shape for p in parts] == self.SHAPES
        start = 0
        for p in parts:
            assert p.arena is arena
            for buf, whole in ((p.value, arena.value), (p.grad, arena.grad),
                               (p.moment1, arena.moment1), (p.moment2, arena.moment2)):
                assert buf.base is whole
                assert buf.ctypes.data == whole.ctypes.data + 8 * start
            start += p.value.size
        for i, p in enumerate(parts):
            with writing(p) as value:
                value[...] = i + 1
        assert arena.value.tolist() == [1.0] * 6 + [2.0] * 3 + [3.0] * 4 + [4.0]

    def test_values_are_written_only_through_the_writer_which_counts_writes(self):
        parts = param_arena(self.SHAPES)
        arena = parts[0].arena
        for value in (parts[1].value, arena.value, arena.value.reshape(-1)):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 1.0
        with writing(parts[1]) as value:
            value[...] = 2.0
        assert arena.version == 1 and arena.value[6:9].tolist() == [2.0] * 3
        assert not parts[1].value.flags.writeable and not arena.value.flags.writeable
        adam_step(parts, step=1)  # the arena in one fused write
        assert arena.version == 2
        adam_step(parts[:2], step=1)  # part by part
        assert arena.version == 4
        loose = pt([1.0])
        with writing(loose) as value:
            value += 1.0
        assert loose.value.flags.writeable and loose.version == 1

    def test_fuse_takes_distinct_parts_covering_the_arena_in_any_order(self):
        parts = param_arena(self.SHAPES)
        arena = parts[0].arena
        assert fuse(parts)[0] is arena and fuse(reversed(parts))[0] is arena
        # a subset, a duplicate or a foreign tensor is kept tensor by tensor
        for params in (parts[:-1], parts[:-1] + parts[:1], parts[:-1] + [pt([[0.0]])]):
            assert all(a is b for a, b in zip(fuse(params), params, strict=True))
        assert fuse([]) == []

    def test_a_dropped_arena_is_freed_without_the_garbage_collector(self):
        parts = param_arena(self.SHAPES)
        ref = weakref.ref(parts[0].arena)
        gc.disable()
        try:
            del parts
            assert ref() is None
        finally:
            gc.enable()

    def test_a_large_arena_takes_the_values_of_a_dropped_one_zeroed(self):
        assert param_arena(self.SHAPES)[0].arena.value.flags.owndata  # small: np.zeros
        shapes = [(N.SPARE_MIN // 2,), (N.SPARE_MIN - N.SPARE_MIN // 2,)]
        gc.disable()
        try:
            parts = param_arena(shapes)
            with writing(parts[1]) as value:
                value[...] = 1.0
            view, address = parts[1].value[-3:], parts[0].value.__array_interface__["data"][0]
            del parts, value
            # a view still holds the first values, so they are not handed out
            other = param_arena(shapes)
            assert other[0].value.__array_interface__["data"][0] != address
            del view
            again = param_arena(shapes)
            assert again[0].value.__array_interface__["data"][0] == address
            assert not again[0].arena.value.any() and not again[0].arena.value.flags.writeable
        finally:
            gc.enable()

    def test_zero_grads_clears_every_part(self):
        parts = param_arena(self.SHAPES)
        parts[0].arena.grad[...] = 3.0
        zero_grads(parts)
        assert not parts[0].arena.grad.any()

    def test_arena_update_equals_the_update_of_each_part(self):
        gen = np.random.default_rng(4)
        parts = param_arena(self.SHAPES)
        loose = [pt(gen.normal(size=s)) for s in self.SHAPES]
        for p, q in zip(parts, loose):
            with writing(p) as value:
                value[...] = q.value
        for step in (1, 2, 3):
            for p, q in zip(parts, loose):
                p.grad[...] = q.grad[...] = gen.normal(size=q.shape)
            adam_step(parts, lr=0.01, step=step)
            adam_step(loose, lr=0.01, step=step)
        for p, q in zip(parts, loose):
            assert np.array_equal(p.value.view(np.int64), q.value.view(np.int64))


@pytest.fixture(scope="module")
def pools():
    """Worker pools of 1, 2 and 3, to stand in for the process's own."""
    made = {k: N._Pool(k) for k in (1, 2, 3)}
    yield made
    for pool in made.values():
        if pool.executor is not None:
            pool.executor.shutdown()


# Batches of 1-3 rows, and row counts at the forward's block counts (2 blocks
# from 2 * SPLIT_ROWS rows, 4 from 4 * SPLIT_ROWS) and its rounded bounds
# (185 and 200 rows split at 96) and one either side.
SPLIT_BATCHES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 185, 200, 255, 256, 257]
# Weights of at least SPLIT_MIN elements: the production first layer's row
# count, row counts at a multiple of GRAD_ROWS and one either side, and
# widths that are no multiple of 8.
SPLIT_WEIGHTS = [(7560, 144), (1151, 1024), (1152, 911), (1153, 1031), (1100, 977),
                 (2000, 525), (65536, 16)]
# Arena sizes at the Adam chunks' boundaries and one either side.
CHUNKED_SIZES = [1, N.ADAM_CHUNK - 1, N.ADAM_CHUNK, N.ADAM_CHUNK + 1,
                 2 * N.ADAM_CHUNK, 3 * N.ADAM_CHUNK + 1, 5 * N.ADAM_CHUNK - 1]


# The split products equal the single product bit for bit at one BLAS thread
# only: with more, the single product shares its rows among BLAS threads
# otherwise than each block does. There the reference is the split run
# without workers, and test_split_products_at_one_blas_thread reruns the
# class in a child at one thread.
ONE_BLAS_THREAD = N._blas_threads() == 1


class TestSplit:
    """The products and passes that run as blocks on the worker pool equal
    their single-call forms bit for bit, whatever the pool's size."""

    # no explain phase: where every example fails, its reruns held over 7 GB
    @settings(max_examples=40, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    @given(batch=st.sampled_from(SPLIT_BATCHES), shape=st.sampled_from(SPLIT_WEIGHTS),
           workers=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_linear_products_equal_the_single_call(self, pools, batch, shape, workers, seed):
        gen = np.random.default_rng(seed)
        w, b = ParamTensor(gen.normal(size=shape)), ParamTensor(gen.normal(size=(1, shape[1])))
        assert w.value.size >= N.SPLIT_MIN
        w.grad[...], b.grad[...] = gen.normal(size=shape), gen.normal(size=(1, shape[1]))
        x, d_out = gen.normal(size=(batch, shape[0])), gen.normal(size=(batch, shape[1]))
        grads = w.grad.copy(), b.grad.copy()

        def run(pool):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(N, "_pool", pool)
                out, cache = linear_forward(x, w, b)
                linear_param_backward(d_out, cache)
            got = out, w.grad.copy(), b.grad.copy()
            w.grad[...], b.grad[...] = grads
            return got

        if ONE_BLAS_THREAD:
            want = (x @ w.value + b.value, grads[0] + x.T @ d_out,
                    grads[1] + d_out.sum(axis=0, keepdims=True))
        else:
            want = run(pools[1])
        for got, ref in zip(run(pools[workers]), want, strict=True):
            assert np.array_equal(got, ref)

    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from(CHUNKED_SIZES), workers=st.sampled_from([1, 2, 3]),
           step=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_adam_and_zeroing_equal_the_single_call(self, pools, size, workers, step, seed):
        gen = np.random.default_rng(seed)
        value, g = gen.normal(size=size), gen.normal(size=size)
        m1, m2 = gen.normal(size=size), gen.normal(size=size) ** 2
        p = ParamTensor(value, g, m1, m2)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        m1 = b1 * m1 + (1.0 - b1) * g
        m2 = b2 * m2 + (1.0 - b2) * (g * g)
        value = value - lr * (m1 / (1.0 - b1 ** step)) / (np.sqrt(m2 / (1.0 - b2 ** step)) + eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(N, "_pool", pools[workers])
            adam_step([p], lr=lr, betas=(b1, b2), eps=eps, step=step)
            assert p.version == 1
            assert np.array_equal(p.grad, g)
            zero_grads([p])
        assert np.array_equal(p.value, value)
        assert np.array_equal(p.moment1, m1) and np.array_equal(p.moment2, m2)
        assert np.array_equal(p.grad, np.zeros(size))

    def test_a_worker_error_is_raised_after_every_range_is_done(self, pools):
        done = []

        def work(lo, hi):
            if lo == 0:
                raise ZeroDivisionError("range 0")
            time.sleep(0.1)
            done.append((lo, hi))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(N, "_pool", pools[3])
            with pytest.raises(ZeroDivisionError, match="range 0"):
                N._spread(6, work)
        assert sorted(done) == [(2, 4), (4, 6)]


# The child imports the package, trains one desk-shape epoch and ranks the
# catalogue, printing the thread count before and after and whether it made
# a pool; then it zeroes a gradient of several Adam chunks, which makes the
# pool, and forks: the child of the fork must make a pool of its own.
POOL_LIFECYCLE = """
import io, os, threading
before = threading.active_count()
import numpy as np
from tripletrec import data as D, model as M, nn
from tripletrec.train import TrainConfig, train
store = D.generate_synthetic(D.SynthConfig(frames=6, frame_dim=30, seed=3))
triplets = D.build_triplets(store, D.PairingStrategy.one_to_n(10), seed=3)[:640]
config = TrainConfig(epochs=1, batch_size=64, seed=3, user_tower=M.TowerSpec(5),
                     item_tower=M.TowerSpec(180, [64, 32, 16, 16]))
ckpt = train(store, triplets, config, log_stream=io.StringIO())
M.rank_items_for_user(ckpt.model, store.user_topics[0], store.item_ids, store.item_features, 5)
print(before, threading.active_count(), nn._pool is None)
p = nn.ParamTensor(np.zeros(3 * nn.ADAM_CHUNK))
nn.zero_grads([p])
parent_pool = nn._pool
pid = os.fork()
if pid == 0:
    fresh = nn._pool is None
    p.grad[...] = 1.0
    nn.zero_grads([p])
    ok = fresh and nn._pool is not parent_pool and not p.grad.any()
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
print(parent_pool.size, os.waitstatus_to_exitcode(status))
"""


def test_split_products_at_one_blas_thread():
    if ONE_BLAS_THREAD:
        pytest.skip("the BLAS runs one thread here, so TestSplit compares with the single call")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{__file__}::TestSplit"], env=env, cwd=Path(__file__).parents[1],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]


@pytest.mark.parametrize("env, blas_threads", [
    ({}, None),  # the BLAS takes every CPU
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
], ids=["unset", "omp-1", "omp-2", "openblas-before-omp", "goto-before-omp"])
def test_pool_has_a_worker_per_cpu_left_to_each_blas_thread(monkeypatch, env, blas_threads):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cpus = N._cpu_count()
    assert N._workers() == max(1, cpus // min(blas_threads or cpus, cpus))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pool_is_made_on_first_split_and_again_after_fork():
    env = {**os.environ, "PYTHONPATH": str(Path(N.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", POOL_LIFECYCLE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    desk, fork = (line.split() for line in proc.stdout.splitlines())
    assert desk[0] == desk[1] and desk[2] == "True"  # no thread, no pool
    assert fork == [str(N._cpu_count()), "0"]


class TestGradCheck:
    def test_quadratic(self):
        theta = pt([[3.0]])

        def f():
            theta.grad += 2.0 * theta.value
            return float((theta.value ** 2).sum())

        report = grad_check(f, [theta], h=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-6
        npt.assert_allclose(theta.grad, [[6.0]], rtol=1e-12)

    def test_constant_function(self):
        theta = pt([[1.0, 2.0]])
        report = grad_check(lambda: 5.0, [theta], h=1e-5)
        assert report.max_rel_error == 0.0
        assert report.passed

    def test_wrong_gradient_is_caught(self):
        theta = pt([[1.0]])

        def f():
            theta.grad += 3.0 * theta.value  # wrong: claims d(x^2)=3x
            return float((theta.value ** 2).sum())

        assert not grad_check(f, [theta]).passed

    def test_non_finite_probe_reported(self):
        theta = pt([[0.0]])

        def f():
            v = float(theta.value[0, 0])
            theta.grad += 1.0
            return math.inf if v > 0 else v

        report = grad_check(f, [theta])
        assert report.failures
        assert not report.passed


class TestOpGradients:
    """Central finite differences against each op's backward on random shapes."""

    def _check(self, build_loss, params, h=1e-5, tol=1e-4):
        report = grad_check(build_loss, params, h=h, tol=tol)
        assert report.passed, report.summary()

    def test_linear(self):
        gen = np.random.default_rng(0)
        x = ParamTensor(gen.normal(size=(3, 5)))
        w = ParamTensor(gen.normal(size=(5, 4)))
        b = ParamTensor(gen.normal(size=(1, 4)))
        upstream = gen.normal(size=(3, 4))

        def f():
            out, cache = linear_forward(x.value, w, b)
            x.grad += linear_backward(upstream, cache)
            return float((upstream * out).sum())

        self._check(f, [x, w, b])

    def test_relu(self):
        gen = np.random.default_rng(1)
        x = ParamTensor(gen.normal(size=(3, 6)))
        upstream = gen.normal(size=(3, 6))

        def f():
            out, cache = relu_forward(x.value)
            x.grad += relu_backward(upstream, cache)
            return float((upstream * out).sum())

        self._check(f, [x])

    def test_layer_norm(self):
        gen = np.random.default_rng(2)
        x = ParamTensor(gen.normal(size=(4, 6)))
        gain = ParamTensor(gen.normal(size=(1, 6)))
        shift = ParamTensor(gen.normal(size=(1, 6)))
        upstream = gen.normal(size=(4, 6))

        def f():
            out, cache = layer_norm_forward(x.value, gain, shift)
            from tripletrec.nn import layer_norm_backward

            x.grad += layer_norm_backward(upstream, cache)
            return float((upstream * out).sum())

        self._check(f, [x, gain, shift])

    def test_dropout_frozen_mask(self):
        gen = np.random.default_rng(3)
        x = ParamTensor(gen.normal(size=(4, 6)))
        upstream = gen.normal(size=(4, 6))

        def f():
            out, mask = dropout_forward(x.value, 0.3, RngState(99), training=True)
            x.grad += dropout_backward(upstream, mask)
            return float((upstream * out).sum())

        self._check(f, [x])

    def test_sigmoid_bce_chain(self):
        gen = np.random.default_rng(4)
        o = ParamTensor(gen.normal(size=(1, 8), scale=2))
        y = gen.integers(0, 2, size=(1, 8)).astype(float)

        def f():
            o.grad += (sigmoid_stable(o.value) - y) / o.value.size
            return float(bce_loss_from_logit(o.value, y).mean())

        self._check(f, [o])


class TestRngState:
    def test_same_state_same_stream(self):
        a = RngState(5).next_generator().random(10)
        b = RngState(5).next_generator().random(10)
        assert np.array_equal(a, b)

    def test_counter_advances_stream(self):
        rng = RngState(5)
        a = rng.next_generator().random(10)
        b = rng.next_generator().random(10)
        assert rng.counter == 2
        assert not np.array_equal(a, b)

    def test_counter_resume_matches(self):
        rng = RngState(5)
        rng.next_generator()
        resumed = RngState(5, counter=1)
        assert np.array_equal(
            rng.next_generator().random(4), resumed.next_generator().random(4)
        )

    @pytest.mark.parametrize("seed, counter", [(-1, 0), (0, -1)])
    def test_negative_seed_or_counter_rejected(self, seed, counter):
        with pytest.raises(ValueError, match=f"got {seed} and {counter}"):
            RngState(seed, counter)


class TestGlorot:
    def test_bounds_and_determinism(self):
        w = np.empty((30, 20))
        glorot_fill(w, np.random.default_rng(0))
        limit = math.sqrt(6.0 / 50)
        assert np.all(np.abs(w) <= limit)
        w2 = np.empty((30, 20))
        glorot_fill(w2, np.random.default_rng(0))
        assert np.array_equal(w, w2)

    @pytest.mark.parametrize("shape", [(5000, 16), (3, 40000), (16, 1)])
    def test_draws_are_those_of_one_uniform_call(self, shape):
        # (5000, 16) is filled in three row blocks, (3, 40000) one row at a time
        w = np.empty(shape)
        glorot_fill(w, np.random.default_rng(3))
        limit = math.sqrt(6.0 / sum(shape))
        want = np.random.default_rng(3).uniform(-limit, limit, size=shape)
        assert np.array_equal(w.view(np.int64), want.view(np.int64))

    def test_fills_a_transposed_view(self):
        w = np.zeros((1, 7))
        glorot_fill(w.T, np.random.default_rng(4))
        limit = math.sqrt(6.0 / 8)
        assert np.array_equal(w.T, np.random.default_rng(4).uniform(-limit, limit, size=(7, 1)))


class TestFiniteness:
    def test_ops_keep_finite_inputs_finite(self):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(6, 5), scale=50)
        w = pt(gen.normal(size=(5, 4), scale=50))
        b = pt(gen.normal(size=(1, 4), scale=50))
        out, _ = linear_forward(x, w, b)
        out, _ = layer_norm_forward(out, pt(np.ones((1, 4))), pt(np.zeros((1, 4))))
        out, _ = relu_forward(out)
        out, _ = dropout_forward(out, 0.2, RngState(0), training=True)
        assert np.all(np.isfinite(out))
        assert np.all(np.isfinite(sigmoid_stable(x * 10)))
        assert np.all(np.isfinite(bce_loss_from_logit(x * 10, 1.0)))
