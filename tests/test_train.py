"""Training-loop tests: determinism, epoch/step semantics, failure modes,
and checkpoint round trips."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletrec import model as M
from tripletrec import nn as N
from tripletrec.data import (
    DataError,
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
)
from tripletrec.nn import NonFiniteLossError, RngState, adam_step, zero_grads
from tripletrec.train import (
    Checkpoint,
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

    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
    def test_dropout_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="dropout probability"):
            tiny_config(dropout_p=p)
        with pytest.raises(ValueError, match="dropout probability"):
            M.allocate_model(M.TowerSpec(3, [4], 2), M.TowerSpec(3, [4], 2), p)

    def test_config_dropout_is_both_towers_dropout(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(dropout_p=0.5), log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        for model in (ckpt.model, load_checkpoint(tmp_path / "m.ckpt").model):
            for tower in (model.user_tower, model.item_tower):
                assert tower.dropout_p == 0.5
                x = np.ones((8, tower.spec.input_dim))
                _, (hidden, _, _) = M.tower_forward(tower, x, True, RngState(0))
                # dropping 0.5 scales what survives by 2
                assert all(set(np.unique(mask)) == {0.0, 2.0} for *_, mask in hidden)

    def test_config_and_tower_fields_are_frozen(self):
        # a field set after construction would skip validation, or not be what trains
        config = tiny_config()
        for spec in (config, config.user_tower):
            for f in dataclasses.fields(spec):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(spec, f.name, getattr(spec, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.dropout_p = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.epochs = 0
        assert dataclasses.replace(config, dropout_p=0.5).dropout_p == 0.5

    def test_a_tower_spec_is_only_a_shape(self):
        # every hidden layer normalizes: there is no option to turn it off,
        # and a positional fourth argument, once the tower's dropout, lands nowhere
        assert [f.name for f in dataclasses.fields(M.TowerSpec)] == [
            "input_dim", "hidden_dims", "output_dim"]
        with pytest.raises(TypeError):
            M.TowerSpec(3, [4], 2, normalize=False)
        with pytest.raises(TypeError):
            M.TowerSpec(3, [4], 2, 0.2)

    def test_hidden_dims_are_stored_as_a_tuple(self):
        # a list field would let a frozen config's tower change shape unvalidated
        spec = M.TowerSpec(3, [4, 5], 2)
        assert spec.hidden_dims == (4, 5) and type(spec.hidden_dims) is tuple
        assert spec == M.TowerSpec(3, (4, 5), 2)
        with pytest.raises(AttributeError):
            tiny_config().user_tower.hidden_dims.append(0)

    @pytest.mark.parametrize("spec, message", [
        ((3, [2.5], 2), "hidden_dims[0] must be an integer, got 2.5"),
        ((3, [4, 4.0], 2), "hidden_dims[1] must be an integer, got 4.0"),
        ((3, [True], 2), "hidden_dims[0] must be an integer, got True"),
        ((3.0, [4], 2), "input_dim must be an integer, got 3.0"),
        ((3, [4], np.bool_(True)), "output_dim must be an integer, got np.True_"),
    ])
    def test_a_width_that_is_a_float_or_a_bool_rejected(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            M.TowerSpec(*spec)

    @pytest.mark.parametrize("field, value", [("epochs", 2.0), ("batch_size", 16.0),
                                              ("seed", True)])
    def test_a_count_that_is_a_float_or_a_bool_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            tiny_config(**{field: value})

    def test_numpy_integers_are_stored_as_ints_and_the_checkpoint_saves(self, corpus, tmp_path):
        store, triplets = corpus
        config = tiny_config(epochs=np.int64(1), batch_size=np.int32(16), seed=np.uint8(2),
                             user_tower=M.TowerSpec(np.int64(3), np.array([6, 5]), np.int64(3)),
                             item_tower=M.TowerSpec(12, [np.int64(8), 6], 3))
        ints = [config.epochs, config.batch_size, config.seed]
        for spec in (config.user_tower, config.item_tower):
            ints += [spec.input_dim, *spec.hidden_dims, spec.output_dim]
        assert {type(v) for v in ints} == {int}
        assert config == tiny_config(epochs=1, seed=2)
        ckpt = train(store, triplets[:4], config, log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        assert load_checkpoint(tmp_path / "m.ckpt").config == config

    def test_equal_configs_hash_equal(self):
        assert hash(TrainConfig()) == hash(TrainConfig())
        built_from_lists = tiny_config(item_tower=M.TowerSpec(12, [8, 6], 3))
        built_from_tuples = tiny_config(item_tower=M.TowerSpec(12, (8, 6), 3))
        assert len({built_from_lists, built_from_tuples, tiny_config(seed=1)}) == 2

    def test_towers_with_different_latent_dims_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "towers must share the latent dimension, got 3 vs 7")):
            TrainConfig(user_tower=M.TowerSpec(5, [4], 3), item_tower=M.TowerSpec(8, [4], 7))

    @pytest.mark.parametrize("model_kind", ["triplet", "twonet"])
    def test_one_triplet_trains(self, corpus, model_kind):
        store, triplets = corpus
        ckpt = train(store, triplets[:1], tiny_config(model_kind=model_kind),
                     log_stream=io.StringIO())
        assert len(ckpt.loss_history) == 2

    def test_empty_triplets_rejected(self, corpus):
        store, triplets = corpus
        for empty in ([], triplets[:0], None):
            with pytest.raises(DataError, match="no training triplets"):
                train(store, empty, tiny_config(), log_stream=io.StringIO())

    @pytest.mark.parametrize("model_kind", ["triplet", "twonet"])
    def test_single_epoch_full_batch_is_one_optimizer_step(self, corpus, model_kind):
        store, triplets = corpus
        config = tiny_config(epochs=1, batch_size=10 * len(triplets), model_kind=model_kind)
        ckpt = train(store, triplets, config, log_stream=io.StringIO())

        # replicate by hand: same init, same shuffle draw, one loss + one step
        rng = RngState(config.seed)
        model = build_model(config, rng)
        if model_kind == "triplet":
            examples = [(store.user_row(t.user_id), store.item_row(t.item_i_id),
                         store.item_row(t.item_j_id), float(t.label)) for t in triplets]
        else:  # each triplet gives its matching item with label 1, then the other with 0
            examples = []
            for t in triplets:
                pos, neg = t.item_i_id, t.item_j_id
                if t.label == 1:  # item_j is the matching item
                    pos, neg = neg, pos
                examples += [(store.user_row(t.user_id), store.item_row(pos), 1.0),
                             (store.user_row(t.user_id), store.item_row(neg), 0.0)]
        perm = rng.next_generator().permutation(len(examples))
        *rows, y = (np.array(column)[perm] for column in zip(*examples))
        loss = M.triplet_loss_and_grads if model_kind == "triplet" else M.twonet_loss_and_grads
        loss(model, store.user_topics[rows[0]], *rows[1:], y, training=True, rng=rng,
             items=store.item_features)
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
        log = io.StringIO()
        ckpt = train(store, triplets, tiny_config(epochs=3), log_stream=log)
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [entry.keys() for entry in lines] == [{"epoch", "mean_loss"}] * 3
        assert [entry["epoch"] for entry in lines] == [1, 2, 3]
        assert [entry["mean_loss"] for entry in lines] == ckpt.loss_history

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
        with pytest.raises(NonFiniteLossError, match="epoch 1") as caught:
            train(store_bad, triplets, tiny_config(), log_stream=io.StringIO())
        assert caught.value.last_epoch is None
        assert str(caught.value).endswith("last good epoch none")

    def test_non_finite_loss_names_the_last_good_epoch(self, corpus):
        # one batch per epoch; the first Adam step of size 1e300 makes
        # epoch 2's forward overflow
        store, triplets = corpus
        log = io.StringIO()
        config = tiny_config(epochs=3, batch_size=len(triplets), learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLossError, match="epoch 2") as caught:
            train(store, triplets, config, log_stream=log)
        [printed] = log.getvalue().splitlines()
        assert caught.value.last_epoch == json.loads(printed)
        assert caught.value.last_epoch["epoch"] == 1
        assert str(caught.value).endswith(f"last good epoch {printed}")

    def test_unknown_triplet_id_rejected(self, corpus):
        store, triplets = corpus
        bad = triplets.copy()
        bad.user_id[-1] = 999_999
        with pytest.raises(DataError, match="unknown user id 999999"):
            train(store, bad, tiny_config(), log_stream=io.StringIO())


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(), log_stream=io.StringIO())
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_towers_are_the_config_towers_after_train_and_load(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(), log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        for c in (ckpt, load_checkpoint(tmp_path / "m.ckpt")):
            assert c.model.user_tower.dropout_p == c.model.item_tower.dropout_p == 0.1
            assert c.model.user_tower.spec == c.config.user_tower
            assert c.model.item_tower.spec == c.config.item_tower

    def test_tensor_section_is_the_arena_value_buffer(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(), log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        assert blob[blob.index(b"\n") + 1 :] == ckpt.model.arena.value.tobytes()

    def test_load_holds_no_copy_of_the_tensor_sections(self, tmp_path):
        # the arena's four buffers are 4x its value bytes; a load that also
        # held the file's bytes would peak at 5x
        config = tiny_config(item_tower=M.TowerSpec(2000, [256, 8], 3))
        model = build_model(config, RngState(0))
        save_checkpoint(Checkpoint(config, model, RngState(0), [0.5]), tmp_path / "m.ckpt")
        tracemalloc.start()
        try:
            load_checkpoint(tmp_path / "m.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * model.arena.value.nbytes

    def test_load_draws_no_random_numbers(self, saved_checkpoint, tmp_path, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        for owner in (N, M):
            monkeypatch.setattr(owner, "glorot_fill", no_draws)
        monkeypatch.setattr(N.RngState, "next_generator", no_draws)
        loaded = load_checkpoint(saved_checkpoint)
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == saved_checkpoint.read_bytes()

    def test_round_trip_preserves_everything(self, corpus, tmp_path):
        store, triplets = corpus
        ckpt = train(store, triplets, tiny_config(epochs=2, seed=3), log_stream=io.StringIO())
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
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

    def test_file_shrinking_while_read_gives_clean_error(self, saved_checkpoint, tmp_path,
                                                        monkeypatch):
        # the size check passes, but the tensor read comes up short
        path = tmp_path / "m.ckpt"
        path.write_bytes(saved_checkpoint.read_bytes()[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(DataError, match="shrank"):
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
        for version in (1, 2, 3, 99):
            header["format_version"] = version
            path.write_bytes(json.dumps(header, sort_keys=True).encode() + blob[nl:])
            with pytest.raises(DataError, match=re.escape(
                    f"unsupported checkpoint version {version} (expected 4)")):
                load_checkpoint(path)

    def test_header_states_no_epoch_count_but_the_config_and_loss_history(self, saved_checkpoint,
                                                                       checkpoint_parts):
        header, _ = checkpoint_parts[0](saved_checkpoint.read_bytes())
        assert header["format_version"] == 4
        assert header.keys() == {"magic", "format_version", "config", "rng", "loss_history",
                                 "tensors"}
        assert "eval_every" not in header["config"]
        assert len(header["loss_history"]) == header["config"]["epochs"]

    def test_defective_checkpoint_raises_data_error(self, saved_checkpoint, tmp_path,
                                                    break_checkpoint):
        path = tmp_path / "m.ckpt"
        path.write_bytes(saved_checkpoint.read_bytes())
        break_checkpoint(path)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_header_mutation_round_trips_or_raises_data_error(
        self, data, saved_checkpoint, checkpoint_parts
    ):
        split, join = checkpoint_parts
        original = saved_checkpoint.read_bytes()
        header, sections = split(original)
        action = data.draw(st.sampled_from(
            ["drop", "rename", "retype", "replace byte", "insert byte", "delete byte"]
        ))
        if action.endswith("byte"):
            at = data.draw(st.integers(0, len(original) - 1))
            byte = data.draw(st.binary(min_size=1, max_size=1))
            rest = original[at:] if action == "insert byte" else original[at + 1 :]
            blob = original[:at] + (b"" if action == "delete byte" else byte) + rest
        else:
            *parents, key = data.draw(st.sampled_from(list(_key_paths(header))))
            node = header
            for p in parents:
                node = node[p]
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
        if action.endswith("byte"):
            # a byte may change the header's spacing or number spelling, not
            # what it says, nor any tensor byte
            assert split(again.read_bytes()) == split(blob)
        else:
            assert again.read_bytes() == blob

    @pytest.mark.parametrize("input_dim", [10**12, 800_000])
    def test_header_claiming_a_big_tower_fails_before_allocating_it(
        self, input_dim, saved_checkpoint, checkpoint_parts, tmp_path
    ):
        split, join = checkpoint_parts
        header, sections = split(saved_checkpoint.read_bytes())
        header["config"]["item_tower"]["input_dim"] = input_dim
        path = tmp_path / "big.ckpt"
        path.write_bytes(join(header, sections))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=re.escape(str(path))):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

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


# One training step at the production shape (7560-dim items, item tower
# [1024, 256, 64, 16], batch 256 from 200 items); the child prints the
# sha256 of the trained model's arena.
PRODUCTION_STEP = """
import hashlib, io
from tripletrec import data as D, model as M
from tripletrec.train import TrainConfig, train
store = D.generate_synthetic(D.SynthConfig(num_tags=5, users_per_tag=4, items_per_tag=40, seed=11))
triplets = D.build_triplets(store, D.PairingStrategy.unbalanced(), seed=11)[:256]
config = TrainConfig(epochs=1, batch_size=256, seed=11, user_tower=M.TowerSpec(5, [32, 32, 16, 16]))
ckpt = train(store, triplets, config, log_stream=io.StringIO())
assert len(triplets) == 256 and ckpt.model.item_tower.spec.hidden_dims == (1024, 256, 64, 16)
print(hashlib.sha256(ckpt.model.arena.value.tobytes()).hexdigest())
"""


# The same step pinned to one CPU, where the worker pool has no threads.
PINNED_STEP = ("import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
               + PRODUCTION_STEP + "from tripletrec import nn\nassert nn._pool.size == 1\n")


@pytest.mark.parametrize("threads", [1, 2])
def test_production_step_is_bit_identical_at_a_fixed_blas_thread_count(threads):
    """Same-seed runs give one arena digest for a given BLAS thread count,
    and at one BLAS thread a run pinned to one CPU gives it too: the worker
    pool's blocks do not depend on its size. Across BLAS thread counts the
    digests need not agree: the first layer's forward product sums in another
    order with two threads than with one."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": str(Path(M.__file__).parents[1])}
    scripts = [PRODUCTION_STEP] * 2
    if threads == 1 and N._cpu_count() > 1 and hasattr(os, "sched_setaffinity"):
        scripts.append(PINNED_STEP)
    digests = []
    for script in scripts:
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests.count(digests[0]) == len(digests)
