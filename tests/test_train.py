"""Training-loop tests: determinism, epoch/step semantics, failure modes,
and checkpoint round trips."""

import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletrec import model as M
from tripletrec.data import (
    DataError,
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
)
from tripletrec.nn import NonFiniteLossError, RngState, adam_step, zero_grads
from tripletrec.train import (
    TrainConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
    train,
)


def tiny_config(**kw):
    defaults = dict(
        epochs=2,
        batch_size=16,
        dropout_p=0.1,
        learning_rate=1e-3,
        seed=0,
        model_kind="triplet",
        user_tower=M.TowerSpec(3, [6, 5], 3),
        item_tower=M.TowerSpec(12, [8, 6], 3),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    cfg = SynthConfig(num_tags=3, users_per_tag=3, items_per_tag=6,
                      feature_noise_std=0.3, seed=5, frames=3, frame_dim=4)
    store = generate_synthetic(cfg)
    triplets = build_triplets(store, PairingStrategy.one_to_n(2), seed=5)
    return store, triplets


@pytest.fixture(scope="module")
def saved_checkpoint(corpus, tmp_path_factory):
    store, triplets = corpus
    path = tmp_path_factory.mktemp("saved") / "m.ckpt"
    save_checkpoint(train(store, triplets, tiny_config(), log_stream=io.StringIO()), path)
    return path


def _key_paths(node, prefix=()):
    """Paths to every dict key of a parsed header, lists of dicts included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, prefix + (i,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


class TestTrainLoop:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            tiny_config(epochs=0)

    def test_empty_triplets_rejected(self, corpus):
        store, _ = corpus
        with pytest.raises(DataError, match="no training triplets"):
            train(store, [], tiny_config(), log_stream=io.StringIO())

    def test_single_epoch_full_batch_is_one_optimizer_step(self, corpus):
        store, triplets = corpus
        config = tiny_config(epochs=1, batch_size=10 * len(triplets))
        ckpt = train(store, triplets, config, log_stream=io.StringIO())

        # replicate by hand: same init, same shuffle draw, one loss + one step
        rng = RngState(config.seed)
        model = build_model(config, rng)
        perm = rng.next_generator().permutation(len(triplets))
        u = np.array([store.user_row(t.user_id) for t in triplets])
        i = np.array([store.item_row(t.item_i_id) for t in triplets])
        j = np.array([store.item_row(t.item_j_id) for t in triplets])
        y = np.array([t.label for t in triplets], dtype=float)
        M.triplet_loss_and_grads(
            model,
            store.user_topics[u[perm]],
            store.item_features[i[perm]],
            store.item_features[j[perm]],
            y[perm],
            training=True,
            rng=rng,
        )
        adam_step(model.parameters(), lr=config.learning_rate, step=1)
        zero_grads(model.parameters())
        for (_, got), (_, want) in zip(
            M.named_parameters(ckpt.model), M.named_parameters(model)
        ):
            assert np.array_equal(got.value, want.value)

    def test_bitwise_determinism(self, corpus, tmp_path):
        store, triplets = corpus
        config = tiny_config(epochs=3, batch_size=8, seed=42)
        ckpt_a = train(store, triplets, config, log_stream=io.StringIO())
        ckpt_b = train(store, triplets, config, log_stream=io.StringIO())
        save_checkpoint(ckpt_a, tmp_path / "a.ckpt")
        save_checkpoint(ckpt_b, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_zero_lr_leaves_parameters_unchanged(self, corpus):
        store, triplets = corpus
        config = tiny_config(epochs=2, learning_rate=0.0)
        ckpt = train(store, triplets, config, log_stream=io.StringIO())
        fresh = build_model(config, RngState(config.seed))
        for (_, got), (_, want) in zip(
            M.named_parameters(ckpt.model), M.named_parameters(fresh)
        ):
            assert np.array_equal(got.value, want.value)

    def test_loss_decreases_on_easy_corpus(self):
        cfg = SynthConfig(num_tags=3, users_per_tag=4, items_per_tag=8,
                          feature_noise_std=0.05, seed=9, frames=3, frame_dim=4)
        store = generate_synthetic(cfg)
        triplets = build_triplets(store, PairingStrategy.one_to_n(3), seed=9)
        config = tiny_config(epochs=10, batch_size=32, dropout_p=0.0, seed=1)
        ckpt = train(store, triplets, config, log_stream=io.StringIO())
        assert ckpt.loss_history[-1] < 0.5 * ckpt.loss_history[0]

    def test_epoch_json_lines(self, corpus):
        store, triplets = corpus
        held_out = triplets[:10]
        log = io.StringIO()
        config = tiny_config(epochs=3, eval_every=2)
        train(store, triplets, config, eval_triplets=held_out, log_stream=log)
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [entry["epoch"] for entry in lines] == [1, 2, 3]
        assert all("mean_loss" in entry for entry in lines)
        assert "eval_acc" not in lines[0]
        assert "eval_acc" in lines[1]  # epoch 2: eval_every
        assert "eval_acc" in lines[2]  # final epoch always evaluated

    def test_twonet_kind_trains(self, corpus):
        store, triplets = corpus
        config = tiny_config(model_kind="twonet", epochs=2)
        ckpt = train(store, triplets, config, log_stream=io.StringIO())
        assert len(ckpt.loss_history) == 2
        assert all(np.isfinite(v) for v in ckpt.loss_history)

    def test_non_finite_loss_aborts_with_batch_diagnostics(self, corpus):
        store, triplets = corpus
        store_bad = generate_synthetic(
            SynthConfig(num_tags=3, users_per_tag=3, items_per_tag=6,
                        feature_noise_std=0.3, seed=5, frames=3, frame_dim=4)
        )
        store_bad.item_features[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError, match="epoch 1"):
            train(store_bad, triplets, tiny_config(), log_stream=io.StringIO())

    def test_unknown_triplet_id_rejected(self, corpus):
        store, triplets = corpus
        from tripletrec.data import TripletExample

        bad = triplets + [TripletExample(999_999, 0, 1, 0)]
        with pytest.raises(DataError, match="unknown user id"):
            train(store, bad, tiny_config(), log_stream=io.StringIO())


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(), log_stream=io.StringIO())
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_everything(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(epochs=2, seed=3), log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.epoch == ckpt.epoch
        assert loaded.loss_history == ckpt.loss_history
        assert loaded.rng == ckpt.rng
        assert loaded.config == ckpt.config
        for (na, a), (nb, b) in zip(
            M.named_parameters(ckpt.model), M.named_parameters(loaded.model)
        ):
            assert na == nb
            assert np.array_equal(a.value, b.value)

    def test_truncated_file_gives_clean_error(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(), log_stream=io.StringIO())
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(DataError, match="truncated tensor section"):
            load_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\x00\x01")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(), log_stream=io.StringIO())
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        nl = blob.find(b"\n")
        header = json.loads(blob[:nl])
        header["format_version"] = 99
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + blob[nl:])
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_defective_checkpoint_raises_data_error(self, saved_checkpoint, tmp_path,
                                                    break_checkpoint):
        path = tmp_path / "m.ckpt"
        path.write_bytes(saved_checkpoint.read_bytes())
        break_checkpoint(path)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_header_mutation_round_trips_or_raises_data_error(
        self, data, saved_checkpoint, checkpoint_parts
    ):
        split, join = checkpoint_parts
        header, sections = split(saved_checkpoint.read_bytes())
        *parents, key = data.draw(st.sampled_from(list(_key_paths(header))))
        node = header
        for p in parents:
            node = node[p]
        action = data.draw(st.sampled_from(["drop", "rename", "retype"]))
        if action == "drop":
            del node[key]
        elif action == "rename":
            node[data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in node))] = (
                node.pop(key)
            )
        else:
            old_type = type(node[key])
            node[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not old_type))
        blob = join(header, sections)
        mutated = saved_checkpoint.with_name("mutated.ckpt")
        mutated.write_bytes(blob)
        try:
            loaded = load_checkpoint(mutated)
        except DataError:
            return
        again = saved_checkpoint.with_name("again.ckpt")
        save_checkpoint(loaded, again)
        assert again.read_bytes() == blob

    def test_loaded_model_ranks_identically(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(epochs=2), log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        before = M.rank_items_for_user(
            ckpt.model, store.user_topics[0], store.item_ids, store.item_features, 5
        )
        after = M.rank_items_for_user(
            loaded.model, store.user_topics[0], store.item_ids, store.item_features, 5
        )
        assert np.array_equal(before, after)
