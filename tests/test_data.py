"""Data-layer tests: CSV round trips and diagnostics, synthetic corpus
properties, triplet assembly under all three pairing regimes, splitting."""

import csv
import io

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletrec.data import (
    DataError,
    FeatureStore,
    PairingStrategy,
    SynthConfig,
    TripletExample,
    build_triplets,
    dominant_tag,
    generate_synthetic,
    load_corpus,
    load_corpus_dir,
    load_triplets,
    pairs_from_triplets,
    save_corpus,
    save_triplets,
    split_train_test,
)

SMALL = SynthConfig(num_tags=3, users_per_tag=4, items_per_tag=5,
                    feature_noise_std=0.1, seed=7, frames=2, frame_dim=6)


def small_store():
    return generate_synthetic(SMALL)


def write_users(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestDominantTag:
    def test_argmax(self):
        assert dominant_tag(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_goes_to_lowest_index(self):
        assert dominant_tag(np.array([0.4, 0.4, 0.2])) == 0


class TestLoadCorpus:
    def test_round_trip(self, tmp_path):
        store = small_store()
        save_corpus(store, tmp_path)
        loaded = load_corpus_dir(tmp_path)
        assert loaded.n_users == store.n_users
        assert loaded.n_items == store.n_items
        npt.assert_array_equal(loaded.user_ids, store.user_ids)
        npt.assert_array_equal(loaded.item_tags, store.item_tags)
        npt.assert_allclose(loaded.user_topics, store.user_topics, rtol=0, atol=0)
        npt.assert_allclose(loaded.item_features, store.item_features, rtol=0, atol=0)

    def test_small_wellformed_counts(self, tmp_path):
        write_users(tmp_path / "users.csv", [
            "user_id,t0,t1",
            "1,0.9,0.1",
            "2,0.2,0.8",
        ])
        write_users(tmp_path / "items.csv", [
            "item_id,tag,f0,f1,f2",
            "10,0,1.0,2.0,3.0",
            "11,1,4.0,5.0,6.0",
            "12,1,7.0,8.0,9.0",
        ])
        store = load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")
        assert (store.n_users, store.n_items) == (2, 3)
        assert store.user(1).dominant_tag == 0  # argmax fallback, no tag column
        assert store.item(12).tag == 1

    def test_empty_items_rejected(self, tmp_path):
        write_users(tmp_path / "users.csv", ["user_id,t0,t1", "1,0.9,0.1"])
        write_users(tmp_path / "items.csv", ["item_id,tag,f0"])
        with pytest.raises(DataError, match="no items"):
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")

    def test_nan_feature_names_row_and_column(self, tmp_path):
        write_users(tmp_path / "users.csv", ["user_id,t0,t1", "1,0.9,0.1"])
        write_users(tmp_path / "items.csv", [
            "item_id,tag,f0,f1",
            "10,0,1.0,2.0",
            "11,0,nan,2.0",
        ])
        with pytest.raises(DataError, match="line 3.*f0"):
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")

    def test_malformed_row_names_line(self, tmp_path):
        write_users(tmp_path / "users.csv", [
            "user_id,t0,t1",
            "1,0.9,0.1",
            "2,0.2",
        ])
        write_users(tmp_path / "items.csv", ["item_id,tag,f0", "10,0,1.0"])
        with pytest.raises(DataError, match="line 3"):
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")

    def test_width_mismatch_names_expected_and_found(self, tmp_path):
        write_users(tmp_path / "users.csv", ["user_id,t0,t1", "1,0.9,0.1"])
        write_users(tmp_path / "items.csv", [
            "item_id,tag,f0,f1",
            "10,0,1.0,2.0,3.0",
        ])
        with pytest.raises(DataError, match="expected 4 fields.*found 5"):
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")

    def test_duplicate_ids_rejected(self, tmp_path):
        write_users(tmp_path / "users.csv", ["user_id,t0,t1", "1,0.9,0.1", "1,0.1,0.9"])
        write_users(tmp_path / "items.csv", ["item_id,tag,f0", "10,0,1.0"])
        with pytest.raises(DataError, match="duplicate user ids"):
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_corpus(tmp_path / "absent.csv", tmp_path / "absent2.csv")


class TestTripletsFile:
    def test_round_trip(self, tmp_path):
        triplets = [TripletExample(1, 10, 11, 0), TripletExample(2, 11, 10, 1)]
        save_triplets(triplets, tmp_path / "t.csv")
        assert load_triplets(tmp_path / "t.csv") == triplets

    def test_bad_label_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text(
            "user_id,item_i,item_j,label\n1,10,11,2\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="label"):
            load_triplets(tmp_path / "t.csv")


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A small corpus and its pairs file as saved, and a directory to corrupt
    copies of them in."""
    store = generate_synthetic(SynthConfig(num_tags=2, users_per_tag=2, items_per_tag=2,
                                           seed=3, frames=1, frame_dim=3))
    saved = tmp_path_factory.mktemp("saved")
    save_corpus(store, saved)
    save_triplets(build_triplets(store, PairingStrategy.unbalanced(), seed=3), saved / "pairs.csv")
    files = {name: (saved / name).read_bytes() for name in ("users.csv", "items.csv", "pairs.csv")}
    return files, tmp_path_factory.mktemp("corrupted")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_csv_loads_or_raises_data_error(data, saved_files):
    files, out = saved_files
    files = dict(files)
    name = data.draw(st.sampled_from(sorted(files)))
    if data.draw(st.booleans()):  # one cell becomes arbitrary text
        rows = list(csv.reader(io.StringIO(files[name].decode("utf-8"), newline="")))
        line = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, len(rows[line]) - 1))
        rows[line][col] = data.draw(st.text())
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        files[name] = text.getvalue().encode("utf-8")
    else:  # one byte becomes an arbitrary byte
        at = data.draw(st.integers(0, len(files[name]) - 1))
        byte = data.draw(st.binary(min_size=1, max_size=1))
        files[name] = files[name][:at] + byte + files[name][at + 1 :]
    for n, blob in files.items():
        (out / n).write_bytes(blob)
    for load in (lambda: load_corpus(out / "users.csv", out / "items.csv"),
                 lambda: load_triplets(out / "pairs.csv")):
        try:
            load()
        except DataError:
            pass


class TestGenerateSynthetic:
    def test_zero_noise_makes_items_identical_within_tag(self):
        cfg = SynthConfig(num_tags=2, users_per_tag=2, items_per_tag=4,
                          feature_noise_std=0.0, seed=1, frames=2, frame_dim=3)
        store = generate_synthetic(cfg)
        for t in (0, 1):
            rows = store.item_features[store.item_tags == t]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_same_seed_bitwise_identical(self):
        a, b = generate_synthetic(SMALL), generate_synthetic(SMALL)
        assert np.array_equal(a.item_features, b.item_features)
        assert np.array_equal(a.user_topics, b.user_topics)

    def test_different_seed_differs(self):
        cfg2 = SynthConfig(**{**SMALL.__dict__, "seed": 8})
        assert not np.array_equal(
            generate_synthetic(SMALL).item_features,
            generate_synthetic(cfg2).item_features,
        )

    def test_dominant_tag_matches_construction(self):
        store = small_store()
        npt.assert_array_equal(np.argmax(store.user_topics, axis=1), store.user_tags)

    def test_linear_probe_separates_tags(self):
        # least-squares one-vs-rest probe on raw features as an independent
        # check that the corpus is separable when noise is small
        cfg = SynthConfig(num_tags=4, users_per_tag=2, items_per_tag=25,
                          feature_noise_std=0.2, seed=3, frames=4, frame_dim=10)
        store = generate_synthetic(cfg)
        x = np.hstack([store.item_features, np.ones((store.n_items, 1))])
        y = np.eye(cfg.num_tags)[store.item_tags]
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        predicted = np.argmax(x @ coef, axis=1)
        assert (predicted == store.item_tags).mean() > 0.99

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(num_tags=0)
        with pytest.raises(ValueError):
            SynthConfig(feature_noise_std=-1.0)


def label_invariant_holds(triplets, store):
    """Exhaustive scan: item_i matches the user's tag iff label is 0."""
    for t in triplets:
        user_tag = int(store.user_tags[store.user_row(t.user_id)])
        tag_i = store.item(t.item_i_id).tag
        tag_j = store.item(t.item_j_id).tag
        if t.label == 0 and not (tag_i == user_tag and tag_j != user_tag):
            return False
        if t.label == 1 and not (tag_j == user_tag and tag_i != user_tag):
            return False
    return True


class TestBuildTriplets:
    def test_one_to_n_counts_and_distinct_negatives(self):
        # 1 user with tag 0, 1 positive item, 10 negatives available
        store = FeatureStore(
            user_ids=np.array([1]),
            user_topics=np.array([[0.9, 0.1]]),
            user_tags=np.array([0]),
            item_ids=np.arange(11),
            item_features=np.random.default_rng(0).normal(size=(11, 4)),
            item_tags=np.array([0] + [1] * 10),
        )
        triplets = build_triplets(store, PairingStrategy.one_to_n(10), seed=0)
        assert len(triplets) == 10
        negatives = [t.item_j_id if t.label == 0 else t.item_i_id for t in triplets]
        assert len(set(negatives)) == 10

    def test_one_to_one_matches_unbalanced_count(self):
        store = small_store()
        a = build_triplets(store, PairingStrategy.one_to_n(1), seed=5)
        b = build_triplets(store, PairingStrategy.unbalanced(), seed=5)
        assert len(a) == len(b)

    def test_label_balance(self):
        cfg = SynthConfig(num_tags=2, users_per_tag=10, items_per_tag=50,
                          feature_noise_std=0.1, seed=2, frames=2, frame_dim=3)
        store = generate_synthetic(cfg)
        triplets = build_triplets(store, PairingStrategy.one_to_n(10), seed=9)
        assert len(triplets) == 10_000
        frac_ones = np.mean([t.label for t in triplets])
        assert abs(frac_ones - 0.5) < 0.02

    def test_deterministic_under_seed(self):
        store = small_store()
        assert build_triplets(store, PairingStrategy.balanced(), 3) == build_triplets(
            store, PairingStrategy.balanced(), 3
        )

    def test_label_invariant_all_strategies(self):
        store = small_store()
        for strategy in (
            PairingStrategy.unbalanced(),
            PairingStrategy.balanced(),
            PairingStrategy.one_to_n(3),
        ):
            triplets = build_triplets(store, strategy, seed=11)
            assert label_invariant_holds(triplets, store)

    def test_balanced_equalizes_tag_combinations(self):
        # uneven corpus: tags with different item/user counts
        gen = np.random.default_rng(3)
        item_tags = np.array([0] * 8 + [1] * 3 + [2] * 5)
        store = FeatureStore(
            user_ids=np.arange(7),
            user_topics=np.eye(3)[[0, 0, 0, 1, 2, 2, 2]] + 0.01,
            user_tags=np.array([0, 0, 0, 1, 2, 2, 2]),
            item_ids=np.arange(16),
            item_features=gen.normal(size=(16, 4)),
            item_tags=item_tags,
        )
        triplets = build_triplets(store, PairingStrategy.balanced(), seed=13)
        counts = {}
        for t in triplets:
            pos, neg = (t.item_i_id, t.item_j_id) if t.label == 0 else (t.item_j_id, t.item_i_id)
            key = (store.item(pos).tag, store.item(neg).tag)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6  # all ordered tag pairs
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_one_to_n_each_positive_appears_n_times(self):
        store = small_store()
        n = 4
        triplets = build_triplets(store, PairingStrategy.one_to_n(n), seed=17)
        per_positive = {}
        for t in triplets:
            pos = t.item_i_id if t.label == 0 else t.item_j_id
            per_positive[(t.user_id, pos)] = per_positive.get((t.user_id, pos), 0) + 1
        assert set(per_positive.values()) == {n}

    def test_too_few_negatives_warns_and_samples_with_replacement(self):
        store = FeatureStore(
            user_ids=np.array([1]),
            user_topics=np.array([[0.9, 0.1]]),
            user_tags=np.array([0]),
            item_ids=np.arange(3),
            item_features=np.zeros((3, 2)),
            item_tags=np.array([0, 0, 1]),
        )
        with pytest.warns(UserWarning, match="replacement"):
            triplets = build_triplets(store, PairingStrategy.one_to_n(5), seed=0)
        assert len(triplets) == 10  # 2 positives x 5 negatives

    def test_single_tag_rejected(self):
        store = FeatureStore(
            user_ids=np.array([1]),
            user_topics=np.array([[1.0]]),
            user_tags=np.array([0]),
            item_ids=np.arange(2),
            item_features=np.zeros((2, 2)),
            item_tags=np.array([0, 0]),
        )
        with pytest.raises(DataError, match="2 distinct item tags"):
            build_triplets(store, PairingStrategy.unbalanced(), seed=0)

    def test_user_tag_without_items_rejected(self):
        store = FeatureStore(
            user_ids=np.array([1]),
            user_topics=np.array([[0.1, 0.1, 0.8]]),
            user_tags=np.array([2]),
            item_ids=np.arange(2),
            item_features=np.zeros((2, 2)),
            item_tags=np.array([0, 1]),
        )
        with pytest.raises(DataError, match="tag 2 has users but no items"):
            build_triplets(store, PairingStrategy.unbalanced(), seed=0)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            PairingStrategy("bogus")
        with pytest.raises(ValueError):
            PairingStrategy.one_to_n(0)


class TestPairsFromTriplets:
    def test_each_triplet_yields_pos_and_neg_pair(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=19)
        uids, iids, labels = pairs_from_triplets(triplets, store)
        assert len(uids) == 2 * len(triplets)
        assert labels.sum() == len(triplets)
        for uid, iid, lab in zip(uids, iids, labels):
            user_tag = int(store.user_tags[store.user_row(uid)])
            assert (store.item(int(iid)).tag == user_tag) == bool(lab)


class TestSplit:
    def test_sizes(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.one_to_n(2), seed=23)
        assert len(triplets) == 120
        train, test = split_train_test(triplets, 0.2, seed=1, store=store)
        assert (len(train), len(test)) == (96, 24)

    def test_union_is_input_multiset(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=29)
        train, test = split_train_test(triplets, 0.25, seed=2, store=store)
        assert sorted(map(repr, train + test)) == sorted(map(repr, triplets))

    def test_deterministic(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=31)
        a = split_train_test(triplets, 0.2, seed=3, store=store)
        b = split_train_test(triplets, 0.2, seed=3, store=store)
        assert a == b

    def test_stratified_by_user_tag(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.one_to_n(5), seed=37)
        _, test = split_train_test(triplets, 0.2, seed=4, store=store)
        per_tag = {}
        for t in test:
            tag = int(store.user_tags[store.user_row(t.user_id)])
            per_tag[tag] = per_tag.get(tag, 0) + 1
        expected = len(test) / SMALL.num_tags
        assert all(abs(c - expected) <= 1 for c in per_tag.values())

    def test_degenerate_strata_fall_back_with_warning(self):
        store = small_store()
        full = build_triplets(store, PairingStrategy.unbalanced(), seed=41)
        # one triplet from each of two tags: both strata are degenerate
        triplets = [full[0], full[20], full[21]]
        with pytest.warns(UserWarning, match="degenerate strata"):
            train, test = split_train_test(triplets, 0.34, seed=5, store=store)
        assert len(train) + len(test) == 3

    def test_bad_fraction_rejected(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=43)
        with pytest.raises(ValueError):
            split_train_test(triplets, 0.0, seed=0, store=store)
