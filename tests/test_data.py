"""Data-layer tests: CSV round trips and diagnostics, synthetic corpus
properties, triplet assembly under all three pairing regimes, splitting."""

import csv
import dataclasses
import hashlib
import io
import re
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tripletrec import data as data_module
from tripletrec.data import (
    DataError,
    FeatureStore,
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
    load_corpus,
    load_corpus_dir,
    load_triplets,
    save_corpus,
    save_triplets,
    split_train_test,
    triplet_array,
)
from tripletrec.data import (
    _item_groups,
    _load_columns,
    _loadtxt_columns,
    _parse_columns,
    _read_table,
    _triplet_groups,
    _user_groups,
)

SMALL = SynthConfig(num_tags=3, users_per_tag=4, items_per_tag=5,
                    feature_noise_std=0.1, seed=7, frames=2, frame_dim=6)


def small_store():
    return generate_synthetic(SMALL)


def write_users(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        assert store.user_tags[store.user_row(1)] == 0  # argmax fallback, no tag column
        assert store.item_tags[store.item_row(12)] == 1

    def test_argmax_fallback_tie_goes_to_lowest_index(self, tmp_path):
        write_users(tmp_path / "users.csv", [
            "user_id,t0,t1,t2",
            "1,0.2,0.4,0.4",
            "2,0.4,0.4,0.2",
        ])
        write_users(tmp_path / "items.csv", ["item_id,tag,f0", "10,0,1.0"])
        store = load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")
        npt.assert_array_equal(store.user_tags, [1, 0])

    def test_empty_items_rejected(self, tmp_path):
        write_users(tmp_path / "users.csv", ["user_id,t0,t1", "1,0.9,0.1"])
        write_users(tmp_path / "items.csv", ["item_id,tag,f0"])
        with pytest.raises(DataError, match="^no items$"):  # the store's check
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
        with pytest.raises(DataError, match="^duplicate user id 1$"):  # the store's check
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")
        write_users(tmp_path / "users.csv", ["user_id,t0,t1", "1,0.9,0.1"])
        write_users(tmp_path / "items.csv", ["item_id,tag,f0", "10,0,1.0", "11,0,2.0", "10,1,3.0"])
        with pytest.raises(DataError, match="^duplicate item id 10$"):
            load_corpus(tmp_path / "users.csv", tmp_path / "items.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_corpus(tmp_path / "absent.csv", tmp_path / "absent2.csv")


class TestTripletsFile:
    def test_round_trip(self, tmp_path):
        triplets = triplet_array([1, 2], [10, 11], [11, 10], [0, 1])
        save_triplets(triplets, tmp_path / "t.csv")
        loaded = load_triplets(tmp_path / "t.csv")
        assert loaded.dtype == triplets.dtype
        npt.assert_array_equal(loaded, triplets)

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


GROUPS = {"users.csv": _user_groups, "items.csv": _item_groups, "pairs.csv": _triplet_groups}

# Cells either reader may take differently: non-finite numbers, quotes,
# underscores, hex, non-ASCII digits, separators inside a cell, int64 edges,
# and cells at csv's field limit (131,072 characters) and one past it.
ODD_CELLS = [
    "1e-400", '"0.5"', '"1', 'x"', "1_0", "0x10", "0x1p-2",
    "+7", "-0", "-0.0", "007", "1e3", "1.0", ".5", "5.", "", "-", "\u0663", "\U0002d6ea", "7,",
    "7\r8", "7\n8",
]
CELLS = st.one_of(
    st.text(),
    st.sampled_from(ODD_CELLS),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400"]),
    st.floats().map(repr),
    st.integers().map(str),
    st.integers(2**63 - 2, 2**63 + 1).map(str),
    st.integers(-(2**63) - 1, -(2**63) + 1).map(str),
    st.sampled_from(["0" * 131071 + "7", "0" * 131072 + "7"]),
)
# Characters around a number: whitespace to both readers, the bytes 0x1c-0x1f
# that numpy strips and Python does not, a BOM and a NUL.
PADS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000", "\ufeff", "\x00"]


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """A saved file with a few cells replaced or padded, blank or
    whitespace-only lines inserted, its line ends all LF, CRLF or CR, and
    maybe a BOM or a header cell whose quote never closes."""
    rows = list(csv.reader(io.StringIO(blob.decode("utf-8"), newline="")))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        col = draw(st.integers(0, len(row) - 1))
        pad = draw(st.sampled_from(PADS))
        row[col] = draw(st.sampled_from([pad + row[col], row[col] + pad]) | CELLS)
    if draw(st.integers(0, 9)) == 0:
        rows[0][-1] = '"' + rows[0][-1]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return ("\ufeff" * (draw(st.integers(0, 9)) == 0) + text).encode("utf-8")


def csv_path_columns(path, groups):
    table = _read_table(path)
    return [_parse_columns(table, cols, dtype) for cols, dtype in groups(path, table.header)]


def outcome(load, path, groups):
    try:
        return load(path, groups)
    except DataError:
        return DataError


def as_bytes(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_loadtxt_path_matches_csv_path(data, saved_files):
    """Where the one-call parse gives arrays, the csv path gives the same
    bytes, dtypes and shapes; where it raises DataError, so does the csv
    path. None means it handed the file over to the csv path."""
    files, out = saved_files
    name = data.draw(st.sampled_from(sorted(files)))
    path = out / name
    path.write_bytes(data.draw(mutated(files[name])))
    fast = outcome(_loadtxt_columns, path, GROUPS[name])
    slow = outcome(csv_path_columns, path, GROUPS[name])
    event("handed over" if fast is None else "DataError" if fast is DataError else "loaded")
    if fast is DataError:
        assert slow is DataError
    elif fast is not None:
        assert slow is not DataError
        assert as_bytes(fast) == as_bytes(slow)
        assert all(a.flags.c_contiguous for a in fast)


HANDED_OVER = {  # items files that np.loadtxt alone would load, and csv would not or not alike
    "cell-past-field-limit": "item_id,tag,f0\n1,0," + "0" * 131072 + "7\n",
    "cell-at-field-limit": "item_id,tag,f0\n1,0," + "0" * 131071 + "7\n",
    "0x1c-around-a-number": "item_id,tag,f0\n1,0,\x1c7\n",
    "non-ascii-id": "item_id,tag,f0\n\U0002d6ea,0,7\n",
    "header-quote-never-closes": 'item_id,tag,"f0\n1,0,7\n',
    "id-past-int64": "item_id,tag,f0\n9223372036854775808,0,7\n",
    "non-finite-feature": "item_id,tag,f0\n1,0,inf\n",
    "no-rows": "item_id,tag,f0\n",
}


@pytest.mark.parametrize("text", HANDED_OVER.values(), ids=HANDED_OVER)
def test_loadtxt_path_hands_over(text, tmp_path):
    path = tmp_path / "items.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _loadtxt_columns(path, _item_groups) is None
    slow = outcome(csv_path_columns, path, _item_groups)
    assert slow is DataError or as_bytes(_load_columns(path, _item_groups)) == as_bytes(slow)


def assert_same_store(got: FeatureStore, want: FeatureStore):
    for name in ("user_ids", "user_topics", "user_tags", "item_ids", "item_features", "item_tags"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert a.flags.c_contiguous, name


class TestLoadtxtPath:
    """Every file the savers write loads in the one np.loadtxt call, never
    the csv path: a change that sent every file there would pass every
    other test."""

    @pytest.fixture(autouse=True)
    def no_csv_path(self, monkeypatch):
        def refuse(path):
            raise AssertionError(f"{path} went to the csv path")

        monkeypatch.setattr(data_module, "_read_table", refuse)

    @pytest.mark.parametrize("tags, users, items, frames, frame_dim", [
        (5, 20, 40, 6, 30), (2, 1, 2, 20, 378), (1, 1, 1, 1, 1),
    ], ids=["desk", "production-width", "one-row"])
    def test_saved_corpus(self, tags, users, items, frames, frame_dim, tmp_path):
        store = generate_synthetic(SynthConfig(num_tags=tags, users_per_tag=users,
                                               items_per_tag=items, seed=5,
                                               frames=frames, frame_dim=frame_dim))
        save_corpus(store, tmp_path)
        assert_same_store(load_corpus_dir(tmp_path), store)

    def test_users_file_without_tag_column(self, tmp_path):
        store = small_store()
        save_corpus(store, tmp_path)
        with open(tmp_path / "users.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(tmp_path / "users.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(row[:-1] for row in rows)
        assert_same_store(load_corpus_dir(tmp_path), store)  # each user's own tag dominates

    @pytest.mark.parametrize("n", [1, 2000])
    def test_saved_pairs(self, n, tmp_path):
        gen = np.random.default_rng(n)
        ids = [gen.integers(-(2**63), 2**63 - 1, n, endpoint=True) for _ in range(3)]
        triplets = triplet_array(*ids, gen.integers(0, 2, n))
        save_triplets(triplets, tmp_path / "pairs.csv")
        loaded = load_triplets(tmp_path / "pairs.csv")
        assert (loaded.dtype, loaded.tobytes()) == (triplets.dtype, triplets.tobytes())


def test_save_corpus_writes_the_bytes_of_csv_writer(tmp_path):
    store = FeatureStore(
        user_ids=np.array([2**63 - 1, -(2**63), 0]),
        user_topics=np.array([[-0.0, 5e-324], [1e16, 1e-5], [0.1, -1.5e300]]),
        user_tags=np.array([1, 0, 2**62]),
        item_ids=np.array([-(2**63), 2**63 - 1]),
        item_features=np.array([[-0.0, 5e-324, 1e16], [1e-5, 2.5, -7.0]]),
        item_tags=np.array([0, 1]),
    )
    save_corpus(store, tmp_path / "saved")
    reference = tmp_path / "reference"
    reference.mkdir()
    with open(reference / "users.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "t0", "t1", "tag"])
        for uid, topics, tag in zip(store.user_ids, store.user_topics, store.user_tags):
            w.writerow([int(uid), *[repr(float(v)) for v in topics], int(tag)])
    with open(reference / "items.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "tag", "f0", "f1", "f2"])
        for iid, tag, features in zip(store.item_ids, store.item_tags, store.item_features):
            w.writerow([int(iid), int(tag), *[repr(float(v)) for v in features]])
    for name in ("users.csv", "items.csv"):
        assert (tmp_path / "saved" / name).read_bytes() == (reference / name).read_bytes()
    assert_same_store(load_corpus_dir(tmp_path / "saved"), store)


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

    @pytest.mark.parametrize("field, value", [
        ("feature_noise_std", float("nan")), ("feature_noise_std", float("inf")),
        ("topic_sharpness", -3.0), ("topic_sharpness", float("nan")),
        ("topic_sharpness", float("inf")),
    ])
    def test_value_the_loader_or_the_tag_would_refuse_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be a finite number >= 0"):
            SynthConfig(**{field: value})

    def test_fields_are_frozen_and_a_negative_seed_rejected(self):
        # a field set after construction would skip validation: a NaN noise
        # writes features the loader refuses, and zero tags fail in a reshape
        cfg = SynthConfig()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.feature_noise_std = float("nan")
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            SynthConfig(seed=-1)

    INT_FIELDS = ("num_tags", "users_per_tag", "items_per_tag", "seed", "frames", "frame_dim")

    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize("value", [3.0, True], ids=["float", "bool"])
    def test_an_integer_field_that_is_a_float_or_a_bool_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SynthConfig(**{field: value})

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = SynthConfig(**{f: np.int64(2) for f in self.INT_FIELDS})
        assert all(type(getattr(cfg, f)) is int for f in self.INT_FIELDS)
        assert generate_synthetic(cfg).n_items == 4

    PINNED = {  # sha256 of the six columns, little-endian, in FeatureStore field order
        "default": (SynthConfig(),
                    "c0eb00204e35561df695f68cb06b365d4a4e7a756e9ef7f7a0f9ed9855b8a5af"),
        "small": (SynthConfig(num_tags=3, users_per_tag=4, items_per_tag=6,
                              feature_noise_std=0.2, topic_sharpness=0.5, seed=3,
                              frames=3, frame_dim=4),
                  "cdebc7f7239af4a7e656a561da922244053bd5e4ad2924ffa167f46df3774d81"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_corpus_bytes_are_pinned(self, name):
        """The corpus a config gives, pinned: a refactor that changes the
        order, number or kind of RNG draws changes every model trained on it."""
        config, digest = self.PINNED[name]
        store = generate_synthetic(config)
        columns = (store.user_ids, store.user_topics, store.user_tags,
                   store.item_ids, store.item_features, store.item_tags)
        assert [c.dtype for c in columns] == [np.int64, np.float64, np.int64] * 2
        got = b"".join(c.astype(c.dtype.newbyteorder("<")).tobytes() for c in columns)
        assert hashlib.sha256(got).hexdigest() == digest

    @settings(max_examples=200, deadline=None)
    @given(st.builds(SynthConfig, num_tags=st.integers(1, 6), users_per_tag=st.integers(1, 5),
                     items_per_tag=st.integers(1, 5),
                     feature_noise_std=st.sampled_from([0.0, 1e-300, 0.1, 2.5]),
                     topic_sharpness=st.sampled_from([0.0, 0.5, 4.0, 1e300]),
                     seed=st.integers(0, 2**40), frames=st.integers(1, 4),
                     frame_dim=st.integers(1, 6)))
    def test_draws_equal_the_per_tag_loops(self, config):
        want, got = per_tag_synthetic(config), generate_synthetic(config)
        for name in ("user_ids", "user_topics", "user_tags", "item_ids", "item_features",
                     "item_tags"):
            a, b = getattr(want, name), getattr(got, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def per_tag_synthetic(cfg):
    """Reference: the synthetic corpus drawn tag by tag, prototypes first,
    then one noise draw per tag, then one topic draw per tag."""
    gen = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    prototypes = gen.normal(size=(cfg.num_tags, cfg.frames, cfg.frame_dim))
    features, topics = [], []
    for t in range(cfg.num_tags):
        noise = gen.normal(scale=cfg.feature_noise_std,
                           size=(cfg.items_per_tag, cfg.frames, cfg.frame_dim))
        features.append((prototypes[t] + noise).reshape(cfg.items_per_tag, -1))
    for t in range(cfg.num_tags):
        raw = gen.uniform(size=(cfg.users_per_tag, cfg.num_tags))
        raw[:, t] += 1.0 + cfg.topic_sharpness
        topics.append(raw / raw.sum(axis=1, keepdims=True))
    tags = np.arange(cfg.num_tags, dtype=np.int64)
    return FeatureStore(np.arange(cfg.num_tags * cfg.users_per_tag, dtype=np.int64),
                        np.concatenate(topics), np.repeat(tags, cfg.users_per_tag),
                        np.arange(cfg.num_tags * cfg.items_per_tag, dtype=np.int64),
                        np.concatenate(features), np.repeat(tags, cfg.items_per_tag))


def label_invariant_holds(triplets, store):
    """Exhaustive scan: item_i matches the user's tag iff label is 0."""
    for t in triplets:
        user_tag = int(store.user_tags[store.user_row(t.user_id)])
        tag_i = store.item_tags[store.item_row(t.item_i_id)]
        tag_j = store.item_tags[store.item_row(t.item_j_id)]
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
        assert np.array_equal(a, b)

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
        npt.assert_array_equal(build_triplets(store, PairingStrategy.balanced(), 3),
                               build_triplets(store, PairingStrategy.balanced(), 3))

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
            key = (store.item_tags[store.item_row(pos)], store.item_tags[store.item_row(neg)])
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

    @pytest.mark.parametrize("make", [lambda: PairingStrategy("one_to_n", 2.5),
                                      lambda: PairingStrategy.one_to_n(True)],
                             ids=["float", "bool"])
    def test_an_n_that_is_a_float_or_a_bool_rejected(self, make):
        with pytest.raises(ValueError, match="^n must be an integer, got (2.5|True)$"):
            make()

    def test_a_numpy_integer_n_is_stored_as_an_int(self):
        assert type(PairingStrategy.one_to_n(np.int64(3)).n) is int

    @pytest.mark.parametrize("variant", ["unbalanced", "balanced"])
    def test_an_n_other_than_1_outside_one_to_n_rejected(self, variant):
        with pytest.raises(ValueError, match=f"^n applies to one_to_n only, got n=5 for '{variant}'$"):
            PairingStrategy(variant, 5)
        assert PairingStrategy(variant, 1) == PairingStrategy(variant)


def build_triplets_by_loop(store, strategy, seed):
    """The reference build: one ``choice`` call per negative (``balanced``)
    or per positive, one 5-tuple appended per negative. It takes only
    stores that build_triplets accepts."""
    rows_by_tag = store.item_rows_by_tag()
    gen = np.random.default_rng(np.random.SeedSequence(seed))
    item_tags_sorted = sorted(rows_by_tag)
    base = []  # (uid, pos_id, neg_id, pos_tag, neg_tag)
    warned_replacement = False

    for u_row in range(store.n_users):
        uid = int(store.user_ids[u_row])
        t = int(store.user_tags[u_row])
        pos_rows = rows_by_tag[t]
        neg_pool = np.flatnonzero(store.item_tags != t)
        if strategy.variant == "balanced":
            for p_row in pos_rows:
                pos_id = int(store.item_ids[p_row])
                for s in item_tags_sorted:
                    if s == t:
                        continue
                    n_row = int(gen.choice(rows_by_tag[s]))
                    base.append((uid, pos_id, int(store.item_ids[n_row]), t, s))
        else:
            n_neg = 1 if strategy.variant == "unbalanced" else strategy.n
            for p_row in pos_rows:
                pos_id = int(store.item_ids[p_row])
                if n_neg <= neg_pool.size:
                    neg_rows = gen.choice(neg_pool, size=n_neg, replace=False)
                else:
                    if not warned_replacement:
                        warnings.warn(
                            f"requested {n_neg} negatives per positive but only "
                            f"{neg_pool.size} are available; sampling with replacement"
                        )
                        warned_replacement = True
                    neg_rows = gen.choice(neg_pool, size=n_neg, replace=True)
                for n_row in neg_rows:
                    base.append(
                        (uid, pos_id, int(store.item_ids[n_row]), t, int(store.item_tags[n_row]))
                    )

    base = np.array(base, dtype=np.int64).reshape(-1, 5)
    if strategy.variant == "balanced":
        _, group, sizes = np.unique(base[:, 3:], axis=0, return_inverse=True, return_counts=True)
        group, m = group.reshape(-1), sizes.min()
        keep = np.ones(len(base), dtype=bool)
        for g in np.flatnonzero(sizes > m):
            idxs = np.flatnonzero(group == g)
            keep[idxs] = False
            keep[idxs[gen.choice(len(idxs), size=m, replace=False)]] = True
        base = base[keep]

    uid, pos_id, neg_id = base[:, :3].T
    flip = gen.random(len(base)) < 0.5
    return triplet_array(uid, np.where(flip, neg_id, pos_id), np.where(flip, pos_id, neg_id), flip)


def build_outcome(build, store, strategy, seed):
    """The triplets a build returns and the (category, message) of each
    warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        triplets = build(store, strategy, seed)
    return triplets, [(w.category, str(w.message)) for w in caught]


def assert_builds_as_the_loop(store, strategy, seed):
    got, got_warnings = build_outcome(build_triplets, store, strategy, seed)
    want, want_warnings = build_outcome(build_triplets_by_loop, store, strategy, seed)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got_warnings == want_warnings


@st.composite
def pairing_cases(draw):
    """A store of 2-5 tags (negative ones too) with uneven item counts, in
    any row order, ids neither 0..n-1 nor sorted, and 1-14 users; a
    strategy, one_to_n's n reaching past the smallest negative pool so some
    users sample with replacement; and a seed."""
    tags = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, 8), min_size=len(tags), max_size=len(tags)))
    item_tags = np.array(draw(st.permutations(np.repeat(tags, counts).tolist())))
    user_tags = np.array(draw(st.lists(st.sampled_from(tags), min_size=1, max_size=14)))

    def ids(n):
        return np.array(draw(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n,
                                      unique=True)))

    store = FeatureStore(
        user_ids=ids(len(user_tags)), user_topics=np.zeros((len(user_tags), 1)),
        user_tags=user_tags, item_ids=ids(len(item_tags)),
        item_features=np.zeros((len(item_tags), 1)), item_tags=item_tags,
    )
    smallest_pool = len(item_tags) - max(counts)
    strategy = draw(st.one_of(
        st.just(PairingStrategy.unbalanced()),
        st.just(PairingStrategy.balanced()),
        st.integers(1, smallest_pool + 2).map(PairingStrategy.one_to_n),
    ))
    return store, strategy, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None)
@given(case=pairing_cases())
def test_build_triplets_matches_the_per_positive_loop(case):
    store, strategy, seed = case
    event(strategy.variant)
    assert_builds_as_the_loop(store, strategy, seed)


@pytest.mark.parametrize("items_per_tag, strategy", [
    (40, PairingStrategy.one_to_n(10)),
    (40, PairingStrategy.unbalanced()),
    (200, PairingStrategy.unbalanced()),
    (40, PairingStrategy.balanced()),
], ids=["desk", "production", "retrieval", "balanced"])
def test_bench_shapes_build_as_the_loop(items_per_tag, strategy):
    # 5 tags of 20 users, as every bench workload has
    store = generate_synthetic(SynthConfig(num_tags=5, users_per_tag=20,
                                           items_per_tag=items_per_tag, seed=9001,
                                           frames=1, frame_dim=1))
    assert_builds_as_the_loop(store, strategy, seed=9001)


class CountingGenerator:
    """A Generator that counts the calls made to each of its methods."""

    def __init__(self, gen):
        self._gen, self.calls = gen, Counter()

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("strategy, calls", [
    (PairingStrategy.unbalanced(), {"integers": 1}),
    (PairingStrategy.one_to_n(1), {"integers": 1}),
    (PairingStrategy.balanced(), {"integers": 1}),  # equal groups: nothing to trim
    (PairingStrategy.one_to_n(10), {"choice": 100 * 40}),  # one per positive
    (PairingStrategy.one_to_n(200), {"integers": 100}),  # one per user: pools of 160
], ids=["unbalanced", "one_to_n(1)", "balanced", "one_to_n(10)", "one_to_n(200)"])
def test_generator_calls_of_each_strategy(strategy, calls, monkeypatch):
    """The calls each strategy makes on its generator: a timing bound would
    be flaky, a call count is not."""
    store = generate_synthetic(SynthConfig(num_tags=5, users_per_tag=20, items_per_tag=40,
                                           seed=1, frames=1, frame_dim=1))
    made = []
    default_rng = data_module.np.random.default_rng

    def counting_default_rng(*args):
        made.append(CountingGenerator(default_rng(*args)))
        return made[-1]

    monkeypatch.setattr(data_module.np.random, "default_rng", counting_default_rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_triplets(store, strategy, seed=1)
    [gen] = made
    assert gen.calls == Counter(calls, random=1)


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
        npt.assert_array_equal(np.sort(np.concatenate([train, test])), np.sort(triplets))

    def test_deterministic(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=31)
        a = split_train_test(triplets, 0.2, seed=3, store=store)
        b = split_train_test(triplets, 0.2, seed=3, store=store)
        for half_a, half_b in zip(a, b):
            npt.assert_array_equal(half_a, half_b)

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
        triplets = full[[0, 20, 21]]
        with pytest.warns(UserWarning, match="degenerate strata"):
            train, test = split_train_test(triplets, 0.34, seed=5, store=store)
        assert len(train) + len(test) == 3

    @staticmethod
    def strata(sizes):
        """A store of one user per tag and triplets of stratum sizes ``sizes``."""
        n = len(sizes)
        store = FeatureStore(user_ids=np.arange(n), user_topics=np.eye(n), user_tags=np.arange(n),
                             item_ids=np.arange(2), item_features=np.zeros((2, 1)),
                             item_tags=np.arange(2))
        uid = np.repeat(np.arange(n), sizes)
        return store, triplet_array(uid, np.zeros_like(uid), np.ones_like(uid), np.zeros_like(uid))

    def test_passes_continue_until_the_target_is_met(self):
        # 24 strata of 2 hold 1 test triplet each; the stratum of 60 takes the
        # other 57 of the 81, 12 more than its truncated share of 45
        store, triplets = self.strata([2] * 24 + [60])
        train, test = split_train_test(triplets, 0.75, seed=0, store=store)
        assert (len(train), len(test)) == (27, 81)
        assert np.bincount(test.user_id).tolist() == [1] * 24 + [57]

    @pytest.mark.parametrize("fraction, target", [(0.2, 2), (0.95, 9)])
    def test_a_target_the_strata_cannot_meet_warns(self, fraction, target):
        # each stratum of 2 holds exactly 1 test triplet
        store, triplets = self.strata([2] * 5)
        match = f"^stratified split: requested {target} test triplets, the strata allow 5$"
        with pytest.warns(UserWarning, match=match):
            train, test = split_train_test(triplets, fraction, seed=0, store=store)
        assert (len(train), len(test)) == (5, 5)

    def test_bad_fraction_rejected(self):
        store = small_store()
        triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=43)
        with pytest.raises(ValueError):
            split_train_test(triplets, 0.0, seed=0, store=store)


def uneven_store():
    """Unequal tag sizes, so balanced pairing trims, and ids out of order."""
    return FeatureStore(
        user_ids=np.array([50, 30, 90, 10, 70, 20, 80]),
        user_topics=np.eye(3)[[0, 0, 0, 1, 2, 2, 2]] + 0.01,
        user_tags=np.array([0, 0, 0, 1, 2, 2, 2]),
        item_ids=np.array([15, 3, 8, 1, 0, 22, 7, 11, 9, 4, 5, 6, 2, 12, 13, 14]),
        item_features=np.zeros((16, 2)),
        item_tags=np.array([0] * 8 + [1] * 3 + [2] * 5),
    )


def column_digest(triplets):
    """sha256 of the four int64 columns, little-endian, one after another."""
    fields = ("user_id", "item_i_id", "item_j_id", "label")
    return hashlib.sha256(b"".join(triplets[f].astype("<i8").tobytes() for f in fields)).hexdigest()


class TestDrawOrder:
    """The triplets and splits a seed gives, pinned: a refactor that changes
    the order or number of RNG draws changes the training data."""

    PINNED = {  # strategy: (count, triplets, train half, test half)
        "unbalanced": (42, "b0cf0d58d5ba0391388a5727046988914b117371a6e72d6e5d53c70813887b3e",
                       "65aa0ab19a8d4bd159db1cfac41f673334cdcd3254972ce110d92a5ebc8482a4",
                       "f878af1e3a018aa2912a365565c53431442271088ad815ce7b4596ec50565902"),
        "balanced": (18, "bd39920d2deaecbecb03310fe39289780ab056787f40d8a48944d9543bdafb83",
                     "df6441577276db23ae38befa621a157b355fe674769b8e477032da3172225d8d",
                     "c701d480382e34e10567155070b7c100de85b7be3c2a6f390413d0e0e9556ffd"),
        "one_to_n": (126, "0767ddfd0b93712e070c4f87279d94a078ea9d9c7dc0271f1800f56543294c9b",
                     "9a4f81317aa9cd0604fdc7e5625c8b2a488f1a6acacb3418eaa98bde7ef41f98",
                     "2d2ba53a185d1568496e44287bdf21fb73af019197db031c9e077f5e22def697"),
    }

    @pytest.mark.parametrize("variant", sorted(PINNED))
    def test_build_and_split_are_pinned(self, variant):
        store = uneven_store()
        strategy = PairingStrategy(variant, 3 if variant == "one_to_n" else 1)
        triplets = build_triplets(store, strategy, seed=2)
        train, test = split_train_test(triplets, 0.2, seed=3, store=store)
        got = (len(triplets), *map(column_digest, (triplets, train, test)))
        assert got == self.PINNED[variant]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def id_lookup_cases(draw):
    """(stored int64 ids, wanted ids): 1-30 distinct ids that are dense or
    sparse (up to 5 values per id), from a least id anywhere in int64, its
    ends included; wanted ids that are stored ids, other ids near them, or
    int64's ends."""
    n = draw(st.integers(1, 30))
    span = n * draw(st.integers(1, 5))
    lo = draw(st.sampled_from([INT64_MIN, -span // 2, INT64_MAX - span + 1])
              | st.integers(INT64_MIN, INT64_MAX - span + 1))
    offsets = draw(st.permutations(range(n)) if span == n else
                   st.lists(st.integers(0, span - 1), min_size=n, max_size=n, unique=True))
    ids = [lo + o for o in offsets]
    near = st.integers(max(lo - 3, INT64_MIN), min(lo + span + 3, INT64_MAX))
    ints = st.sampled_from(ids) | near | st.sampled_from([INT64_MIN, INT64_MAX])
    return np.array(ids, dtype=np.int64), draw(st.lists(ints, min_size=1, max_size=8))


def scan_rows(ids, wanted):
    """The first position of each wanted value among the ids by Python's ==,
    or DataError naming the first value at none."""
    stored = ids.tolist()
    rows = []
    for w in wanted:
        if w not in stored:
            raise DataError(f"unknown user id {w}")
        rows.append(stored.index(w))
    return np.array(rows)


def lookup_outcome(lookup, *args):
    try:
        return "rows", str(lookup(*args).tolist())
    except DataError as e:
        return "raised", str(e)


class TestIdLookup:
    def test_rows_of_unsorted_ids_keep_the_query_shape(self):
        store = uneven_store()
        npt.assert_array_equal(store.item_rows([[0, 22], [15, 14]]), [[4, 5], [0, 15]])
        npt.assert_array_equal(store.user_rows(store.user_ids), np.arange(store.n_users))
        npt.assert_array_equal(store.item_rows(np.array([14, 0], dtype=np.int32)), [15, 4])
        assert store.user_row(np.int64(10)) == 3 and store.item_row(14) == 15
        assert store.user_rows([]).shape == (0,) and store.item_rows([[]]).shape == (1, 0)

    @pytest.mark.parametrize("wanted, unknown", [([0, 16, 22, 17], 16), ([-1], -1), ([99], 99)],
                             ids=["inside", "below", "above"])
    def test_unknown_id_is_data_error_naming_it(self, wanted, unknown):
        with pytest.raises(DataError, match=f"unknown item id {unknown}$"):
            uneven_store().item_rows(wanted)

    def test_dense_ids_get_a_table_and_sparse_ones_a_sorted_search(self):
        store = uneven_store()  # 16 item ids over 23 values, 7 user ids over 81
        assert store._item_index.table is not None and store._user_index.table is None
        assert generate_synthetic(SynthConfig(2, 2, 3, frames=1, frame_dim=2))._item_index.table is not None

    @pytest.mark.parametrize("wanted, shown", [
        ([10.5], "10.5 (float64)"), (np.array([10.9]), "10.9 (float64)"),
        ([float("nan")], "nan (float64)"), ([np.inf], "inf (float64)"),
        ([30.5, 99], "30.5 (float64)"), (np.float32(20.25), "20.25 (float32)"),
        ([10.0, 20], "10.0 (float64)"), (np.array([[0.0, 22.0]]), "0.0 (float64)"),
        (1.0, "1.0 (float64)"), (np.uint64(14), "14 (uint64)"), (True, "True (bool)"),
        (np.array([False]), "False (bool)"), (2**63, "9223372036854775808 (uint64)"),
        (10**20, "100000000000000000000 (object)"),
        # numpy reads this list as two floats, the first rounded to -2**63
        ([INT64_MIN + 1, 2**63], "-9.223372036854776e+18 (float64)"),
        ("10", "'10' (<U2)"),
    ], ids=["half", "array", "nan", "inf", "second", "scalar", "whole", "whole-array",
            "whole-scalar", "uint64", "bool", "bool-array", "past-int64", "huge",
            "int-and-past-int64", "string"])
    def test_a_value_that_is_not_an_int64_integer_is_refused(self, wanted, shown):
        for what in ("user", "item"):
            with pytest.raises(DataError, match=re.escape(
                    f"{what} ids must be integers in int64's range, got {shown}") + "$"):
                getattr(uneven_store(), f"{what}_rows")(wanted)

    @settings(max_examples=400, deadline=None)
    @given(id_lookup_cases())
    def test_table_and_sorted_search_give_the_rows_of_a_scan(self, case):
        """Both lookups give each wanted value the stored position that equals
        it, and name the first value that none equals."""
        ids, wanted = case
        want = lookup_outcome(scan_rows, ids, wanted)
        for span, has_table in ((0, False), (8, True)):
            with mock.patch.object(data_module, "ID_TABLE_SPAN", span):
                store = FeatureStore(ids, np.zeros((len(ids), 1)), np.zeros(len(ids), dtype=np.int64),
                                     ids, np.zeros((len(ids), 1)), np.zeros(len(ids), dtype=np.int64))
            assert (store._user_index.table is not None) == has_table
            assert lookup_outcome(store.user_rows, wanted) == want
            assert lookup_outcome(store.item_rows, wanted) == (
                want[0], want[1].replace("user", "item"))


def store_fields(**changes):
    """uneven_store()'s six columns, some replaced."""
    store = uneven_store()
    return {f.name: changes.get(f.name, getattr(store, f.name))
            for f in dataclasses.fields(store) if f.init}


class TestFeatureStore:
    """A store checks its corpus once, when it is built: every store, however
    made, has rows on each side, one row per id and no repeated id."""

    @pytest.mark.parametrize("field, ids, message", [
        ("user_ids", [50, 90, 90, 10, 50, 20, 80], "duplicate user id 50"),
        ("item_ids", [15, 3, 8, 1, 0, 22, 7, 11, 9, 4, 5, 6, 2, 12, 13, 0], "duplicate item id 0"),
    ], ids=["user", "item"])
    def test_a_repeated_id_rejected_naming_the_least(self, field, ids, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            FeatureStore(**store_fields(**{field: np.array(ids)}))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64, np.bool_, np.int32])
    @pytest.mark.parametrize("field", ["user_ids", "user_tags", "item_ids", "item_tags"])
    def test_an_id_or_tag_column_that_is_not_int64_rejected(self, field, dtype):
        column = getattr(uneven_store(), field).astype(dtype)
        what, name = field.split("_")
        with pytest.raises(DataError, match=f"^{what} {name} must be an int64 array, "
                                            f"got {np.dtype(dtype)}$"):
            FeatureStore(**store_fields(**{field: column}))
        with pytest.raises(DataError, match=f"^{what} {name} must be an int64 array, got list$"):
            FeatureStore(**store_fields(**{field: column.tolist()}))

    def test_no_users_or_no_items_rejected(self):
        none = np.zeros(0, dtype=np.int64)
        with pytest.raises(DataError, match="^no users$"):
            FeatureStore(**store_fields(user_ids=none, user_topics=np.zeros((0, 3)), user_tags=none))
        with pytest.raises(DataError, match="^no items$"):
            FeatureStore(**store_fields(item_ids=none, item_features=np.zeros((0, 2)), item_tags=none))

    @pytest.mark.parametrize("field, message", [
        ("user_ids", "user columns differ in length: 6 ids, 7 topic rows, 7 tags"),
        ("user_topics", "user columns differ in length: 7 ids, 6 topic rows, 7 tags"),
        ("user_tags", "user columns differ in length: 7 ids, 7 topic rows, 6 tags"),
        ("item_ids", "item columns differ in length: 15 ids, 16 feature rows, 16 tags"),
        ("item_features", "item columns differ in length: 16 ids, 15 feature rows, 16 tags"),
        ("item_tags", "item columns differ in length: 16 ids, 16 feature rows, 15 tags"),
    ])
    def test_a_column_of_another_length_rejected_naming_the_lengths(self, field, message):
        short = getattr(uneven_store(), field)[:-1]
        with pytest.raises(DataError, match=f"^{message}$"):
            FeatureStore(**store_fields(**{field: short}))

    def test_fields_are_frozen_and_replace_checks_again(self):
        store = uneven_store()
        for f in dataclasses.fields(store):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(store, f.name, getattr(store, f.name))
        repeated = store.item_ids.copy()
        repeated[3] = repeated[0]
        with pytest.raises(DataError, match="^duplicate item id 15$"):
            dataclasses.replace(store, item_ids=repeated)
        moved = dataclasses.replace(store, item_ids=store.item_ids + 100)
        npt.assert_array_equal(moved.item_rows(store.item_ids + 100), np.arange(store.n_items))
        with pytest.raises(DataError, match="^unknown item id 15$"):
            moved.item_row(15)
