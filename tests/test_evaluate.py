"""Evaluation tests: each metric against independent brute-force recounts,
trivial and hand-built models with known scores, and the method comparison."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import tripletrec
from tripletrec import model as M
from tripletrec.data import (
    DataError,
    FeatureStore,
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
)
from tripletrec.evaluate import (
    compare_methods,
    evaluate_model,
    item_item_precision_at_k,
    pairwise_accuracy,
    precision_at_k,
)
from tripletrec.nn import ParamTensor, RngState
from tripletrec.train import TrainConfig


def small_corpus(noise=0.2, seed=3, tags=3, users=4, items=6):
    cfg = SynthConfig(num_tags=tags, users_per_tag=users, items_per_tag=items,
                      feature_noise_std=noise, seed=seed, frames=3, frame_dim=4)
    return generate_synthetic(cfg)


def zero_head_model(store):
    """Random towers but an all-zero head: every distance is 0."""
    user_spec = M.TowerSpec(store.user_topics.shape[1], [5, 4], 3)
    item_spec = M.TowerSpec(store.item_features.shape[1], [5, 4], 3)
    m = M.init_model(user_spec, item_spec, RngState(0))
    m.head.weight.value[...] = 0.0
    m.head.bias.value[...] = 0.0
    return m


def perfect_model(store):
    """Hand-built model that embeds items at their tag's one-hot vector and
    users at their topic vector, with unit head weights: positives are
    strictly closer than negatives for every user."""
    n_tags = store.user_topics.shape[1]
    feat_dim = store.item_features.shape[1]

    # item tower: first layer solves features -> one-hot(tag) by least
    # squares (exact for zero/low noise), later layers pass through
    prototypes = np.stack(
        [store.item_features[store.item_tags == t].mean(axis=0) for t in range(n_tags)]
    )
    targets = np.eye(n_tags)
    w0, *_ = np.linalg.lstsq(prototypes, targets, rcond=None)

    item_spec = M.TowerSpec(feat_dim, [n_tags], n_tags, dropout_p=0.0, normalize=False)
    item_tower = M.init_tower(item_spec, RngState(0))
    item_tower.weights[0].value[...] = w0
    item_tower.biases[0].value[...] = 0.0
    item_tower.weights[1].value[...] = np.eye(n_tags)
    item_tower.biases[1].value[...] = 0.0

    # user tower: identity on the (non-negative) topic vector
    user_spec = M.TowerSpec(n_tags, [n_tags], n_tags, dropout_p=0.0, normalize=False)
    user_tower = M.init_tower(user_spec, RngState(0))
    user_tower.weights[0].value[...] = np.eye(n_tags)
    user_tower.biases[0].value[...] = 0.0
    user_tower.weights[1].value[...] = np.eye(n_tags)
    user_tower.biases[1].value[...] = 0.0

    head = M.DistanceHeadParams(
        ParamTensor(np.ones((1, n_tags))), ParamTensor(np.zeros((1, 1)))
    )
    return M.TripletModelParams(user_tower, item_tower, head)


def recount_pairwise(model, triplets, store):
    """Independent recount: per-triplet distances via the raw head formula."""
    correct = 0
    w = model.head.weight.value[0]
    b = model.head.bias.value[0, 0]
    for t in triplets:
        z_u = M.embed_user(model.user_tower, store.user_topics[store.user_row(t.user_id)])[0]
        z_i = M.embed_item(model.item_tower, store.item_features[store.item_row(t.item_i_id)])[0]
        z_j = M.embed_item(model.item_tower, store.item_features[store.item_row(t.item_j_id)])[0]
        o = float((w * (z_u - z_i) ** 2).sum()) - float((w * (z_u - z_j) ** 2).sum())
        if (o < 0 and t.label == 0) or (o > 0 and t.label == 1):
            correct += 1
    return correct / len(triplets)


def recount_precision(model, store, k):
    per_user = []
    for r in range(store.n_users):
        z_u = M.embed_user(model.user_tower, store.user_topics[r])[0]
        w = model.head.weight.value[0]
        b = model.head.bias.value[0, 0]
        scored = []
        for rr in range(store.n_items):
            z_i = M.embed_item(model.item_tower, store.item_features[rr])[0]
            d = float((w * (z_u - z_i) ** 2).sum() + b)
            scored.append((d, int(store.item_ids[rr]), int(store.item_tags[rr])))
        scored.sort()
        top = scored[: min(k, len(scored))]
        per_user.append(
            sum(1 for _, _, tag in top if tag == int(store.user_tags[r])) / len(top)
        )
    return float(np.mean(per_user))


def recount_item_item(model, store, k):
    per_item = []
    for r in range(store.n_items):
        z_q = M.embed_item(model.item_tower, store.item_features[r])[0]
        scored = []
        for rr in range(store.n_items):
            if rr == r:
                continue
            z_i = M.embed_item(model.item_tower, store.item_features[rr])[0]
            scored.append(
                (float(((z_q - z_i) ** 2).sum()), int(store.item_ids[rr]),
                 int(store.item_tags[rr]))
            )
        scored.sort()
        top = scored[: min(k, len(scored))]
        per_item.append(
            sum(1 for _, _, tag in top if tag == int(store.item_tags[r])) / len(top)
        )
    return float(np.mean(per_item))


class TestPairwiseAccuracy:
    def test_zero_head_scores_zero(self):
        store = small_corpus()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=1)
        model = zero_head_model(store)
        assert pairwise_accuracy(model, triplets, store) == 0.0  # ties are wrong

    def test_perfect_model_scores_one(self):
        store = small_corpus(noise=0.0)
        triplets = build_triplets(store, PairingStrategy.one_to_n(2), seed=2)
        assert pairwise_accuracy(perfect_model(store), triplets, store) == 1.0

    def test_matches_brute_force_recount(self):
        store = small_corpus()
        triplets = build_triplets(store, PairingStrategy.one_to_n(2), seed=3)
        user_spec = M.TowerSpec(store.user_topics.shape[1], [5, 4], 3)
        item_spec = M.TowerSpec(store.item_features.shape[1], [5, 4], 3)
        model = M.init_model(user_spec, item_spec, RngState(4))
        got = pairwise_accuracy(model, triplets, store)
        assert got == recount_pairwise(model, triplets, store)

    def test_empty_test_set_rejected(self):
        store = small_corpus()
        with pytest.raises(DataError, match="empty test set"):
            pairwise_accuracy(zero_head_model(store), [], store)

    def test_invariant_under_permutation(self):
        store = small_corpus()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=5)
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            M.TowerSpec(store.item_features.shape[1], [5, 4], 3),
            RngState(6),
        )
        shuffled = list(triplets)
        np.random.default_rng(0).shuffle(shuffled)
        assert pairwise_accuracy(model, triplets, store) == pairwise_accuracy(
            model, shuffled, store
        )

    def test_invariant_under_head_bias_shift(self):
        store = small_corpus()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=7)
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            M.TowerSpec(store.item_features.shape[1], [5, 4], 3),
            RngState(8),
        )
        before = pairwise_accuracy(model, triplets, store)
        model.head.bias.value += 123.456  # cancels in the logit difference
        assert pairwise_accuracy(model, triplets, store) == before


class TestPrecisionAtK:
    def test_single_tag_corpus_gives_one(self):
        store = small_corpus()
        mono = FeatureStore(
            user_ids=store.user_ids,
            user_topics=store.user_topics,
            user_tags=np.zeros_like(store.user_tags),
            item_ids=store.item_ids,
            item_features=store.item_features,
            item_tags=np.zeros_like(store.item_tags),
        )
        model = zero_head_model(store)
        for k in (1, 5, mono.n_items):
            assert precision_at_k(model, mono.user_ids.tolist(), mono, k) == 1.0

    def test_perfect_model_at_k1(self):
        store = small_corpus(noise=0.0)
        assert precision_at_k(perfect_model(store), store.user_ids.tolist(), store, 1) == 1.0

    def test_matches_brute_force_recount(self):
        store = small_corpus()
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            M.TowerSpec(store.item_features.shape[1], [5, 4], 3),
            RngState(9),
        )
        for k in (1, 4, 11):
            npt.assert_allclose(
                precision_at_k(model, store.user_ids.tolist(), store, k),
                recount_precision(model, store, k),
                rtol=1e-12,
            )

    def test_k_beyond_item_count_flagged_and_computed(self):
        store = small_corpus()
        model = zero_head_model(store)
        with pytest.warns(UserWarning, match="candidates"):
            value = precision_at_k(model, store.user_ids.tolist(), store, store.n_items + 5)
        expected = np.mean(
            [(store.item_tags == t).mean() for t in store.user_tags]
        )
        npt.assert_allclose(value, expected, rtol=1e-12)

    def test_random_null_model_matches_tag_frequency(self):
        # pure-noise corpus (no prototype separation): a random model's
        # ranking carries no tag signal, so precision ~ 1/T by binomial
        # concentration over users x k draws
        cfg = SynthConfig(num_tags=4, users_per_tag=50, items_per_tag=100,
                          feature_noise_std=200.0, seed=11, frames=2, frame_dim=6)
        store = generate_synthetic(cfg)
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [6, 5], 3),
            M.TowerSpec(store.item_features.shape[1], [6, 5], 3),
            RngState(12),
        )
        k = 50
        n_draws = store.n_users * k  # 10_000
        value = precision_at_k(model, store.user_ids.tolist(), store, k)
        p = 1.0 / cfg.num_tags
        sigma = np.sqrt(p * (1 - p) / n_draws)
        assert abs(value - p) < 3 * sigma + 0.01


class TestItemItemPrecision:
    def test_zero_noise_corpus_gives_one(self):
        store = small_corpus(noise=0.0)
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            M.TowerSpec(store.item_features.shape[1], [5, 4], 3),
            RngState(13),
        )
        # items of one tag share identical features, so latent distance 0
        assert item_item_precision_at_k(model, store.item_ids.tolist(), store, 4) == 1.0

    def test_k_all_items_counting_identity(self):
        store = small_corpus()
        model = zero_head_model(store)
        k = store.n_items - 1
        count_same = np.array([(store.item_tags == t).sum() for t in store.item_tags])
        expected = float(np.mean((count_same - 1) / (store.n_items - 1)))
        npt.assert_allclose(
            item_item_precision_at_k(model, store.item_ids.tolist(), store, k),
            expected,
            rtol=1e-12,
        )

    def test_matches_brute_force_recount(self):
        store = small_corpus()
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            M.TowerSpec(store.item_features.shape[1], [5, 4], 3),
            RngState(14),
        )
        for k in (1, 5):
            npt.assert_allclose(
                item_item_precision_at_k(model, store.item_ids.tolist(), store, k),
                recount_item_item(model, store, k),
                rtol=1e-12,
            )


class TestEvalReport:
    def test_json_and_table_render(self):
        store = small_corpus()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=15)
        model = zero_head_model(store)
        report = evaluate_model(model, store, triplets, k=3)
        parsed = json.loads(report.to_json())
        assert parsed["pairwise_accuracy"] == 0.0
        assert "3" in parsed["precision_at_k"]
        table = report.to_table()
        assert "pairwise accuracy" in table
        assert "precision@3" in table

    def test_each_catalogue_row_is_embedded_once_per_retrieval_metric(self, monkeypatch):
        store = small_corpus()
        model = M.init_model(
            M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            M.TowerSpec(store.item_features.shape[1], [5, 4], 3),
            RngState(16),
        )
        item_rows = []
        tower_forward = M.tower_forward

        def counting(tower, x, *args, **kwargs):
            if tower is model.item_tower:
                item_rows.append(np.atleast_2d(x).shape[0])
            return tower_forward(tower, x, *args, **kwargs)

        monkeypatch.setattr(M, "tower_forward", counting)
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=16)
        evaluate_model(model, store, triplets, k=5)
        assert sum(item_rows) == 3 * store.n_items


@pytest.mark.parametrize("first", ["tripletrec.train", "tripletrec.evaluate"])
def test_train_and_evaluate_import_in_either_order(first):
    second = "tripletrec.evaluate" if first == "tripletrec.train" else "tripletrec.train"
    code = (
        f"import importlib; importlib.import_module({first!r}); "
        f"E = importlib.import_module('tripletrec.evaluate'); "
        f"importlib.import_module({second!r}); "
        f"assert E.T is importlib.import_module('tripletrec.train')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tripletrec.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestCompareMethods:
    def _config(self, store, kind):
        return TrainConfig(
            epochs=2,
            batch_size=32,
            dropout_p=0.1,
            seed=0,
            model_kind=kind,
            user_tower=M.TowerSpec(store.user_topics.shape[1], [5, 4], 3),
            item_tower=M.TowerSpec(store.item_features.shape[1], [6, 4], 3),
        )

    def test_requires_three_seeds(self):
        store = small_corpus()
        cfg = self._config(store, "triplet")
        with pytest.raises(ValueError, match="3 seeds"):
            compare_methods(store, cfg, cfg, seeds=[1, 2], log_stream=io.StringIO())

    def test_a_a_comparison_is_exactly_tied(self):
        store = small_corpus()
        cfg = self._config(store, "triplet")
        comparison = compare_methods(
            store, cfg, dataclasses.replace(cfg), seeds=[1, 2, 3],
            k=3, log_stream=io.StringIO(),
        )
        summary = comparison.summary()
        for metric in ("pairwise", "item_item"):
            row = summary[metric]
            assert row["triplet-a"]["mean"] == row["triplet-b"]["mean"]
            assert row["wins"]["ties"] == 3

    def test_outputs_render(self):
        store = small_corpus()
        comparison = compare_methods(
            store,
            self._config(store, "triplet"),
            self._config(store, "twonet"),
            seeds=[1, 2, 3],
            k=3,
            log_stream=io.StringIO(),
        )
        parsed = json.loads(comparison.to_json())
        assert parsed["n_seeds"] == 3
        assert len(parsed["per_seed"]) == 3
        assert "pairwise accuracy" in comparison.to_table()
