"""Model-level tests: tower forward passes, the weighted-distance head,
pairwise logits/probabilities, both losses, and retrieval, each against
hand computations or independent re-implementations."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from tripletrec import model as M
from tripletrec import nn as N
from tripletrec.nn import (
    NORM_VAR_FLOOR,
    ParamTensor,
    RngState,
    adam_step,
    grad_check,
    zero_grads,
)


def tiny_model(seed=0, user_dim=3, item_dim=5, hidden=(4, 3), latent=2,
               dropout=0.0, normalize=True):
    user_spec = M.TowerSpec(user_dim, list(hidden), latent, dropout, normalize)
    item_spec = M.TowerSpec(item_dim, list(hidden), latent, dropout, normalize)
    return M.init_model(user_spec, item_spec, RngState(seed))


def zero_model(**kw):
    """All weights/biases/shifts zeroed (gains stay 1): latents are zero."""
    m = tiny_model(**kw)
    for tower in (m.user_tower, m.item_tower):
        for p in [*tower.weights, *tower.biases, *tower.shifts]:
            p.value[...] = 0.0
    m.head.weight.value[...] = 0.0
    m.head.bias.value[...] = 0.0
    return m


def reference_tower_forward(tower, x):
    """Independent inference-mode recomputation of a tower forward pass."""
    h = np.array(x, dtype=float)
    n_hidden = len(tower.spec.hidden_dims)
    for i in range(n_hidden):
        h = h @ tower.weights[i].value + tower.biases[i].value
        if tower.spec.normalize:
            mu = h.mean(axis=1, keepdims=True)
            var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
            h = (h - mu) / np.sqrt(np.maximum(var, NORM_VAR_FLOOR))
            h = h * tower.gains[i].value + tower.shifts[i].value
        h = np.maximum(h, 0.0)
    return h @ tower.weights[n_hidden].value + tower.biases[n_hidden].value


class TestEmbedding:
    def test_zero_parameters_give_zero_latent(self):
        m = zero_model()
        z = M.embed_user(m.user_tower, np.ones((1, 3)))
        npt.assert_array_equal(z, np.zeros((1, 2)))
        z = M.embed_item(m.item_tower, np.ones((2, 5)))
        npt.assert_array_equal(z, np.zeros((2, 2)))

    def test_inference_is_deterministic(self):
        m = tiny_model(seed=3)
        u = np.random.default_rng(0).normal(size=(4, 3))
        z1 = M.embed_user(m.user_tower, u)
        z2 = M.embed_user(m.user_tower, u)
        assert np.array_equal(z1, z2)

    def test_hand_computed_single_hidden_tower(self):
        spec = M.TowerSpec(2, [2], 1, dropout_p=0.0, normalize=False)
        tower = M.init_tower(spec, RngState(0))
        tower.weights[0].value[...] = [[1.0, -1.0], [0.0, 2.0]]
        tower.biases[0].value[...] = [[0.5, -0.5]]
        tower.weights[1].value[...] = [[2.0], [1.0]]
        tower.biases[1].value[...] = [[0.25]]
        # x=[1,2]: linear -> [1.5, 2.5]; relu keeps both; 2*1.5 + 1*2.5 + 0.25
        z = M.embed_user(tower, np.array([[1.0, 2.0]]))
        npt.assert_allclose(z, [[5.75]], rtol=1e-15)

    def test_shared_tower_same_input_same_latent(self):
        m = tiny_model(seed=5)
        x = np.random.default_rng(1).normal(size=(3, 5))
        z_pos = M.embed_item(m.item_tower, x)
        z_neg = M.embed_item(m.item_tower, x)
        assert np.array_equal(z_pos, z_neg)

    def test_matches_independent_recomputation(self):
        m = tiny_model(seed=7, hidden=(6, 5, 4, 3), latent=3)
        x = np.random.default_rng(2).normal(size=(8, 5))
        z = M.embed_item(m.item_tower, x)
        ref = reference_tower_forward(m.item_tower, x)
        npt.assert_allclose(z, ref, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="input dim"):
            M.embed_user(m.user_tower, np.ones((1, 9)))


class TestWeightedDistance:
    def _head(self, weight, bias):
        return M.DistanceHeadParams(
            ParamTensor(np.array([weight], dtype=float)),
            ParamTensor(np.array([[bias]], dtype=float)),
        )

    def test_equal_vectors_give_bias(self):
        head = self._head([1.5, -0.5, 2.0], bias=0.75)
        z = np.array([[1.0, 2.0, 3.0]])
        npt.assert_array_equal(M.weighted_distance(head, z, z), [0.75])

    def test_unit_weights_reduce_to_squared_euclidean(self):
        head = self._head([1.0, 1.0, 1.0], bias=0.0)
        gen = np.random.default_rng(0)
        a, b = gen.normal(size=(10, 3)), gen.normal(size=(10, 3))
        npt.assert_allclose(
            M.weighted_distance(head, a, b), ((a - b) ** 2).sum(axis=1), rtol=1e-12
        )

    def test_hand_case(self):
        head = self._head([2.0, 1.0], bias=0.5)
        d = M.weighted_distance(head, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        npt.assert_allclose(d, [6.5], rtol=1e-15)

    def test_latent_dim_mismatch_rejected(self):
        head = self._head([1.0, 1.0], bias=0.0)
        with pytest.raises(ValueError):
            M.weighted_distance(head, np.ones((1, 3)), np.ones((1, 3)))

    def test_distance_difference_gives_logit(self):
        # D(u,i)=1, D(u,j)=3 under unit weights -> o = -2
        head = self._head([1.0], bias=0.0)
        z_u = np.array([[0.0]])
        z_i, z_j = np.array([[1.0]]), np.array([[math.sqrt(3.0)]])
        o = M.weighted_distance(head, z_u, z_i) - M.weighted_distance(head, z_u, z_j)
        npt.assert_allclose(o, [-2.0], rtol=1e-12)
        npt.assert_allclose(M.pair_prob(o), [0.11920292202211755], rtol=1e-12)


class TestPairLogit:
    def test_identical_items_give_zero_logit(self):
        m = tiny_model(seed=11)
        gen = np.random.default_rng(4)
        u = gen.normal(size=(6, 3))
        x = gen.normal(size=(6, 5))
        o = M.pair_logit(m, u, x, x.copy())
        npt.assert_array_equal(o, np.zeros(6))

    def test_swapping_items_negates_logit_exactly(self):
        m = tiny_model(seed=13)
        gen = np.random.default_rng(5)
        u = gen.normal(size=(10, 3))
        xi = gen.normal(size=(10, 5))
        xj = gen.normal(size=(10, 5))
        o = M.pair_logit(m, u, xi, xj)
        o_swapped = M.pair_logit(m, u, xj, xi)
        assert np.array_equal(o, -o_swapped)

    def test_prob_complement(self):
        m = tiny_model(seed=17)
        gen = np.random.default_rng(6)
        u = gen.normal(size=(10, 3))
        xi = gen.normal(size=(10, 5))
        xj = gen.normal(size=(10, 5))
        p = M.pair_prob(M.pair_logit(m, u, xi, xj))
        q = M.pair_prob(M.pair_logit(m, u, xj, xi))
        npt.assert_allclose(p + q, 1.0, atol=1e-15)


class TestTripletLoss:
    def test_identical_items_give_ln2(self):
        m = tiny_model(seed=19)
        gen = np.random.default_rng(7)
        u = gen.normal(size=(4, 3))
        x = gen.normal(size=(4, 5))
        loss = M.triplet_loss_and_grads(m, u, x, x.copy(), np.zeros(4))
        npt.assert_allclose(loss, math.log(2), rtol=1e-12)

    def test_label_swap_gives_identical_loss_and_grads(self):
        m = tiny_model(seed=23)
        gen = np.random.default_rng(8)
        u = gen.normal(size=(5, 3))
        xi = gen.normal(size=(5, 5))
        xj = gen.normal(size=(5, 5))
        labels = gen.integers(0, 2, size=5).astype(float)

        params = m.parameters()
        zero_grads(params)
        loss_a = M.triplet_loss_and_grads(m, u, xi, xj, labels)
        grads_a = [p.grad.copy() for p in params]
        zero_grads(params)
        loss_b = M.triplet_loss_and_grads(m, u, xj, xi, 1.0 - labels)
        npt.assert_allclose(loss_a, loss_b, rtol=1e-12)
        for g_a, p in zip(grads_a, params):
            npt.assert_allclose(g_a, p.grad, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        m = tiny_model(seed=29, hidden=(5, 4, 3, 3), latent=3)
        gen = np.random.default_rng(9)
        for p in m.parameters():
            p.value[...] = gen.normal(scale=0.4, size=p.value.shape)
        u = gen.normal(size=(3, 3))
        xi = gen.normal(size=(3, 5))
        xj = gen.normal(size=(3, 5))
        labels = np.array([0.0, 1.0, 0.0])
        report = grad_check(
            lambda: M.triplet_loss_and_grads(m, u, xi, xj, labels),
            m.parameters(),
            h=1e-4,
        )
        assert report.passed, report.summary()

    def test_shared_tower_accumulates_both_branches(self):
        m = tiny_model(seed=31)
        gen = np.random.default_rng(10)
        u = gen.normal(size=(4, 3))
        xi = gen.normal(size=(4, 5))
        xj = gen.normal(size=(4, 5))
        labels = np.zeros(4)
        zero_grads(m.parameters())
        M.triplet_loss_and_grads(m, u, xi, xj, labels)
        # the shared tower's gradient must differ from what either branch
        # alone produces: recompute with item_j == item_i (single effective
        # branch pair) as a sanity reference
        g_shared = m.item_tower.weights[0].grad.copy()
        assert np.abs(g_shared).max() > 0

    def test_head_bias_gradient_is_exactly_zero(self):
        # the bias cancels in o = D_i - D_j; the pointwise baseline keeps it
        m = tiny_model(seed=33, dropout=0.2)
        gen = np.random.default_rng(12)
        u = gen.normal(size=(6, 3))
        xi = gen.normal(size=(6, 5))
        xj = gen.normal(size=(6, 5))
        labels = gen.integers(0, 2, size=6).astype(float)
        M.triplet_loss_and_grads(m, u, xi, xj, labels, training=True, rng=RngState(1))
        assert m.head.bias.grad[0, 0] == 0.0
        zero_grads(m.parameters())
        M.twonet_loss_and_grads(m, u, xi, labels, training=True, rng=RngState(1))
        assert m.head.bias.grad[0, 0] != 0.0


class TestTwonetLoss:
    def test_zero_distance_label_one_gives_ln2(self):
        m = zero_model()
        u = np.ones((3, 3))
        x = np.ones((3, 5))
        loss = M.twonet_loss_and_grads(m, u, x, np.ones(3))
        npt.assert_allclose(loss, math.log(2), rtol=1e-12)

    def test_large_distance_label_zero_gives_near_zero_loss(self):
        m = zero_model()
        m.head.bias.value[...] = 40.0  # D = 40 for every pair
        loss = M.twonet_loss_and_grads(m, np.ones((2, 3)), np.ones((2, 5)), np.zeros(2))
        assert loss < 1e-12

    def test_gradients_match_finite_differences(self):
        m = tiny_model(seed=37, hidden=(5, 4, 3, 3), latent=3)
        gen = np.random.default_rng(11)
        for p in m.parameters():
            p.value[...] = gen.normal(scale=0.4, size=p.value.shape)
        u = gen.normal(size=(3, 3))
        x = gen.normal(size=(3, 5))
        labels = np.array([1.0, 0.0, 1.0])
        report = grad_check(
            lambda: M.twonet_loss_and_grads(m, u, x, labels),
            m.parameters(),
            h=1e-4,
        )
        assert report.passed, report.summary()


def brute_force_user_ranking(model, u, item_ids, item_features, k):
    """Oracle: exhaustive distance computation plus a (distance, id) sort."""
    z_u = M.embed_user(model.user_tower, u)[0]
    w = model.head.weight.value[0]
    bias = model.head.bias.value[0, 0]
    scored = []
    for iid, feats in zip(item_ids, item_features):
        z_i = M.embed_item(model.item_tower, feats.reshape(1, -1))[0]
        d = float((w * (z_u - z_i) ** 2).sum() + bias)
        scored.append((d, int(iid)))
    scored.sort()
    return [iid for _, iid in scored[: min(k, len(scored))]]


class TestRanking:
    def _setup(self, seed=0, n=30):
        m = tiny_model(seed=seed)
        gen = np.random.default_rng(seed)
        item_ids = np.arange(100, 100 + n)
        feats = gen.normal(size=(n, 5))
        u = gen.normal(size=3)
        return m, u, item_ids, feats

    def test_matches_brute_force(self):
        m, u, item_ids, feats = self._setup(seed=41)
        for k in (1, 5, 30):
            got = M.rank_items_for_user(m, u, item_ids, feats, k)
            expected = brute_force_user_ranking(m, u, item_ids, feats, k)
            assert got.tolist() == expected

    def test_latent_rankers_match_the_embedding_rankers(self):
        m, u, item_ids, feats = self._setup(seed=42)
        z_items = M.embed_item(m.item_tower, feats)
        z_u = M.embed_user(m.user_tower, u)
        for k in (1, 5, 29):
            assert np.array_equal(
                M.rank_latents_for_user(m, z_u, item_ids, z_items, k),
                M.rank_items_for_user(m, u, item_ids, feats, k),
            )
            assert np.array_equal(
                M.rank_latents_for_item(z_items[3], item_ids, z_items, k, (103,)),
                M.rank_items_for_item(m, feats[3], item_ids, feats, k, exclude_ids=(103,)),
            )

    def test_full_k_is_a_permutation(self):
        m, u, item_ids, feats = self._setup(seed=43)
        got = M.rank_items_for_user(m, u, item_ids, feats, len(item_ids))
        assert sorted(got.tolist()) == item_ids.tolist()

    def test_k_larger_than_item_set_warns_and_returns_all(self):
        m, u, item_ids, feats = self._setup(seed=47, n=4)
        with pytest.warns(UserWarning, match="only 4 candidates"):
            got = M.rank_items_for_user(m, u, item_ids, feats, 10)
        assert sorted(got.tolist()) == item_ids.tolist()

    def test_item_at_user_latent_ranks_first(self):
        # pass-through towers (identity weights, no normalization) make item
        # latents equal item features; the item placed exactly at the user's
        # latent has minimal distance when head weights are positive
        spec3 = M.TowerSpec(3, [3], 3, dropout_p=0.0, normalize=False)
        user_tower = M.init_tower(spec3, RngState(0))
        item_tower = M.init_tower(spec3, RngState(1))
        for tower in (user_tower, item_tower):
            tower.weights[0].value[...] = np.eye(3)
            tower.biases[0].value[...] = 0.0
            tower.weights[1].value[...] = np.eye(3)
            tower.biases[1].value[...] = 0.0
        head = M.DistanceHeadParams(
            ParamTensor(np.array([[1.0, 2.0, 0.5]])), ParamTensor(np.zeros((1, 1)))
        )
        m = M.TripletModelParams(user_tower, item_tower, head)
        u = np.array([0.6, 0.3, 0.1])
        gen = np.random.default_rng(3)
        feats = np.abs(gen.normal(size=(9, 3))) + 0.2
        feats[5] = u  # this item's latent coincides with the user's
        ranked = M.rank_items_for_user(m, u, np.arange(9), feats, 3)
        assert ranked[0] == 5

    def test_equal_latents_tie_break_by_id(self):
        m, u, item_ids, feats = self._setup(seed=53)
        # collapse every item to one latent: ranking reduces to id order
        for p in [*m.item_tower.weights, *m.item_tower.biases, *m.item_tower.shifts]:
            p.value[...] = 0.0
        m.item_tower.biases[-1].value[...] = 1.0
        got = M.rank_items_for_item(m, feats[0], item_ids, feats, k=3, exclude_ids=())
        assert got.tolist() == item_ids[:3].tolist()

    def test_item_ranking_self_first_when_not_excluded(self):
        m, _, item_ids, feats = self._setup(seed=59)
        got = M.rank_items_for_item(m, feats[7], item_ids, feats, k=1)
        assert got[0] == item_ids[7]

    def test_item_ranking_excludes_self_when_asked(self):
        m, _, item_ids, feats = self._setup(seed=61)
        got = M.rank_items_for_item(
            m, feats[7], item_ids, feats, k=len(item_ids) - 1,
            exclude_ids=(int(item_ids[7]),),
        )
        assert int(item_ids[7]) not in got.tolist()

    def test_identical_items_adjacent_in_id_order(self):
        m, u, item_ids, feats = self._setup(seed=67, n=10)
        feats[4] = feats[2]  # duplicate features, distinct ids 102 and 104
        ranked = M.rank_items_for_user(m, u, item_ids, feats, 10).tolist()
        i2, i4 = ranked.index(102), ranked.index(104)
        assert i4 == i2 + 1


class TestWeightSharing:
    def test_exactly_one_item_tower_parameter_set(self):
        m = tiny_model(seed=71)
        gen = np.random.default_rng(12)
        u = gen.normal(size=(4, 3))
        xi = gen.normal(size=(4, 5))
        xj = gen.normal(size=(4, 5))
        from tripletrec.nn import adam_step

        M.triplet_loss_and_grads(m, u, xi, xj, np.zeros(4))
        adam_step(m.parameters(), lr=0.01, step=1)
        x = gen.normal(size=(2, 5))
        assert np.array_equal(
            M.embed_item(m.item_tower, x), M.embed_item(m.item_tower, x)
        )


class TestArena:
    def test_every_tensor_is_a_view_of_the_arena_in_layout_order(self):
        m = tiny_model(seed=73)
        arena = m.head.bias.arena
        named = M.named_parameters(m)
        assert [n for n, _ in named] == [
            n for n, _, _ in M.model_layout(m.user_tower.spec, m.item_tower.spec)
        ]
        start = 0
        for _, p in named:
            assert p.arena is arena
            for buf, whole in ((p.value, arena.value), (p.grad, arena.grad),
                               (p.moment1, arena.moment1), (p.moment2, arena.moment2)):
                assert np.shares_memory(buf, whole)
                assert buf.ctypes.data == whole.ctypes.data + 8 * start
            start += p.value.size
        assert start == arena.value.size

    def test_adam_equals_the_per_tensor_formula_bit_for_bit(self):
        # w0 of the item tower (300 x 128) spans more than one Adam chunk
        m = tiny_model(seed=79, item_dim=300, hidden=(128, 8))
        assert m.item_tower.weights[0].value.size > N.ADAM_CHUNK
        params = m.parameters()
        ref = [[p.value.copy(), np.zeros(p.shape), np.zeros(p.shape)] for p in params]
        gen = np.random.default_rng(14)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for step in (1, 2, 3):
            for p in params:
                p.grad[...] = gen.normal(size=p.shape)
            adam_step(params, lr=lr, betas=(b1, b2), eps=eps, step=step)
            for p, (value, m1, m2) in zip(params, ref):
                g = p.grad
                m1 *= b1
                m1 += (1.0 - b1) * g
                m2 *= b2
                m2 += (1.0 - b2) * (g * g)
                m_hat = m1 / (1.0 - b1 ** step)
                v_hat = m2 / (1.0 - b2 ** step)
                value -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, (value, m1, m2) in zip(params, ref):
            assert np.array_equal(p.value.view(np.int64), value.view(np.int64))
            assert np.array_equal(p.moment1.view(np.int64), m1.view(np.int64))
            assert np.array_equal(p.moment2.view(np.int64), m2.view(np.int64))


def reference_tower_backward(tower, d_z, caches):
    """Every layer's full linear backward, the first layer's input gradient
    included, as an independent statement of the tower's backward pass."""
    hidden_caches, (x, w, b) = caches
    w.grad += x.T @ d_z
    b.grad += d_z.sum(axis=0, keepdims=True)
    d = d_z @ w.value.T
    for (x, w, b), norm_cache, relu_cache, mask in reversed(hidden_caches):
        d = N.dropout_backward(d, mask)
        d = d * (relu_cache > 0.0)
        if norm_cache is not None:
            d = N.layer_norm_backward(d, norm_cache)
        w.grad += x.T @ d
        b.grad += d.sum(axis=0, keepdims=True)
        d = d @ w.value.T
    return d


class TestTowerBackward:
    @pytest.mark.parametrize("kind", ["triplet", "twonet"])
    def test_parameter_gradients_equal_the_full_backward(self, kind, monkeypatch):
        gen = np.random.default_rng(15)
        u = gen.normal(size=(6, 3))
        xi = gen.normal(size=(6, 5))
        xj = gen.normal(size=(6, 5))
        labels = gen.integers(0, 2, size=6).astype(float)

        def grads():
            m = tiny_model(seed=83, hidden=(6, 5, 4), dropout=0.2)
            if kind == "triplet":
                M.triplet_loss_and_grads(m, u, xi, xj, labels, training=True, rng=RngState(5))
            else:
                M.twonet_loss_and_grads(m, u, xi, labels, training=True, rng=RngState(5))
            return [p.grad.copy() for p in m.parameters()]

        got = grads()
        monkeypatch.setattr(M, "tower_backward", reference_tower_backward)
        want = grads()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert any(a.any() for a in got)

    def test_first_layer_input_gradient_is_not_computed(self, monkeypatch):
        m = tiny_model(seed=89, hidden=(6, 5, 4))
        calls = []
        real = M.linear_backward
        monkeypatch.setattr(M, "linear_backward", lambda d, c: calls.append(c) or real(d, c))
        z, caches = M.tower_forward(m.item_tower, np.ones((2, 5)))
        assert M.tower_backward(m.item_tower, np.ones_like(z), caches) is None
        # four linear layers, the first of which skips linear_backward
        assert len(calls) == len(m.item_tower.weights) - 1 == 3
        assert all(c[1] is not m.item_tower.weights[0] for c in calls)
        assert m.item_tower.weights[0].grad.any()
