"""Self-tests for the benchmark itself: ``python -m pytest bench``.

Faults are injected here, by patching module attributes for the length of
one test; nothing under ``src/`` changes."""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import pipeline as P
from tracing import layer_self_seconds, self_times

D, M, N, T, E = P.D, P.M, P.N, P.T, P.E

# Small enough to run in seconds, large enough to learn: it passes the
# quality floors and the check that training raises accuracy, unpatched.
TINY = dataclasses.replace(
    P.WORKLOADS["desk"], name="tiny", users_per_tag=3, items_per_tag=12,
    frames=2, frame_dim=5, pairing=D.PairingStrategy.one_to_n(2),
    item_hidden=(8, 8), batch=16, epochs=10,
    update_every=4, check_every=1, setup_reps=2, ingest_reps=1, train_reps=2, eval_reps=1,
    ckpt_reps=1, probe_steps=1, probe_queries=1,
)


def run_tiny(tmp_path, trace=False):
    return P.run(TINY, seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)


def module_attributes():
    owners = (D, M, N, T, E, N.RngState)
    return {(o.__name__, name): value for o in owners for name, value in vars(o).items()}


def test_self_time_on_hand_built_span_tree():
    step = ("step", 1)
    spans = [
        ("train.train", 0.0, 10.0, -1, ("run", 0), 0),
        ("model.triplet_loss_and_grads", 1.0, 5.0, 0, step, 0),
        ("nn.linear_forward", 1.5, 2.0, 1, step, 0),
        ("nn.linear_backward", 3.0, 4.5, 1, step, 0),
        ("nn.adam_step", 6.0, 8.0, 0, step, 0),
    ]
    assert self_times(spans) == [4.0, 2.0, 0.5, 1.5, 2.0]
    assert layer_self_seconds(spans) == {
        "data": 0.0, "nn": 4.0, "model": 2.0, "train": 4.0, "evaluate": 0.0,
    }


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    before = module_attributes()
    result, extra = run_tiny(tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(P.UNITS["end_to_end"])
    assert set(extra["unscaled"]) == set(P.UNITS["end_to_end"]) - {"peak_rss_mb"}
    after = module_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert M.linear_forward is N.linear_forward


def test_traced_run_reports_every_layer_metric_and_restores_attributes(tmp_path):
    before = module_attributes()
    result, extra = run_tiny(tmp_path, trace=True)
    assert result["correct"], extra
    assert set(result["metrics"]) == set(P.UNITS["per_layer"])
    assert result["metrics"]["nn.param_tensors"]["value"] == len(M.named_parameters(
        T.build_model(TINY.train_config(3), N.RngState(3))))
    after = module_attributes()
    assert all(after[k] is before[k] for k in before)


def test_checker_flags_a_perturbed_ranking(tmp_path, monkeypatch):
    real = M.rank_items_for_user
    monkeypatch.setattr(M, "rank_items_for_user", lambda *a, **kw: real(*a, **kw)[::-1])
    result, extra = run_tiny(tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any("differs from reference" in f for f in extra["failures"])


def test_checker_flags_a_flipped_checkpoint_byte(tmp_path, monkeypatch):
    real = T.load_checkpoint

    def load_flipped(path):
        blob = bytearray(Path(path).read_bytes())
        blob[-3] ^= 0x10  # inside the last tensor section
        Path(path).write_bytes(bytes(blob))
        return real(path)

    monkeypatch.setattr(T, "load_checkpoint", load_flipped)
    result, extra = run_tiny(tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any("changed the bytes" in f for f in extra["failures"])


def test_checker_flags_a_corrupted_ingest(tmp_path, monkeypatch):
    real = D.load_corpus_dir

    def load_corrupted(path):
        store = real(path)
        store.item_features[2, 3] = np.nextafter(store.item_features[2, 3], np.inf)
        return store

    monkeypatch.setattr(D, "load_corpus_dir", load_corrupted)
    result, extra = run_tiny(tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any("item_features differs" in f for f in extra["failures"])


def test_quality_floor(tmp_path, monkeypatch):
    monkeypatch.setattr(P, "FLOORS", (0.0, 0.0, 1.01))
    result, extra = run_tiny(tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert extra["failures"][0].startswith("evaluate.item_p_at_10")


def test_checker_flags_training_that_does_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(T, "adam_step", lambda params, **kw: None)
    result, extra = run_tiny(tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any("held-out pairwise accuracy" in f for f in extra["failures"])


def test_check_ranking_tolerates_only_float_ties():
    ids = [10, 11, 12, 13]
    dist = [0.5, 0.1, 0.1 + 1e-14, 0.9]
    ids, dist = np.array(ids), np.array(dist)
    assert P.check_ranking(np.array([11, 12]), ids, dist, 2) is None
    assert P.check_ranking(np.array([12, 11]), ids, dist, 2) is None
    assert P.check_ranking(np.array([11, 10]), ids, dist, 2) is not None
    assert P.check_ranking(np.array([11, 11]), ids, dist, 2) is not None
    assert P.check_ranking(np.array([12, 10]), ids, dist, 2, exclude=(11,)) is None


def test_interaction_map_covers_every_metric_and_workload():
    spec = json.loads((P.ROOT / "BENCHMARK.json").read_text())
    imap = json.loads((Path(P.__file__).parent / "interactions.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(P.WORKLOADS)
    assert set(imap["workloads"]) == set(P.WORKLOADS)
    assert set(imap["end_to_end"]) == set(P.UNITS["end_to_end"])
    assert set(imap["per_layer"]) == set(P.UNITS["per_layer"])
    for entry in imap["per_layer"].values():
        assert set(entry["on"]) | set(entry["no_change_on"]) <= set(P.WORKLOADS)


def test_host_speed_takes_out_and_scales_by_the_ticks_in_an_interval():
    speed = P.HostSpeed()
    nominal = speed.NOMINAL_S["numeric"]
    speed.starts, speed.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    speed.times["numeric"] = [nominal, 2 * nominal, 4 * nominal]
    speed.times["parse"] = [speed.NOMINAL_S["parse"]] * 3
    assert speed.measure(2.0, 9.0, "numeric") == pytest.approx((7.0, 7.0 / 1.5))  # between ticks
    assert speed.measure(2.0, 19.0, "numeric") == pytest.approx((16.0, 16.0 / 2))  # 1 inside
    assert speed.measure(22.0, 23.0, "numeric") == pytest.approx((1.0, 1.0 / 4))  # none after
    assert speed.measure(2.0, 19.0, "parse") == pytest.approx((16.0, 16.0))
    with speed:
        time.sleep(2.5 * speed.EVERY_S)
    assert len(speed.starts) >= 3 + 2
    assert all(len(times) == len(speed.starts) for times in speed.times.values())
