"""Deterministic minibatch training for the triplet model and the two-branch
baseline, with binary checkpointing.

(seed, config, data) fully determine every parameter after every step: the
same run repeated gives bitwise-identical checkpoints. Each epoch shuffles
the examples (seeded), walks all full batches plus the final partial batch,
takes one Adam step per batch and zeroes gradients afterwards. One JSON line
per epoch goes to stdout: ``{"epoch": k, "mean_loss": x, "eval_acc": y?}``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import evaluate as E
from . import model as M
from .data import (
    DataError,
    FeatureStore,
    TripletExample,
    gather_triplet_rows,
    pairs_from_triplets,
)
from .nn import NonFiniteLossError, RngState, adam_step, zero_grads

CHECKPOINT_VERSION = 1
_MAGIC = "triplet-recsys-checkpoint"


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    dropout_p: float = 0.2
    learning_rate: float = 1e-3
    seed: int = 0
    model_kind: str = "triplet"  # "triplet" | "twonet"
    user_tower: M.TowerSpec = field(default_factory=M.user_tower_spec)
    item_tower: M.TowerSpec = field(default_factory=M.item_tower_spec)
    eval_every: int = 0  # epochs between held-out evaluations; 0 disables

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.model_kind not in ("triplet", "twonet"):
            raise ValueError(f"unknown model kind: {self.model_kind!r}")


@dataclass
class Checkpoint:
    """Trained parameters plus everything needed to reproduce them."""

    config: TrainConfig
    model: M.TripletModelParams
    rng: RngState
    epoch: int
    loss_history: list[float]


def _tower_specs(config: TrainConfig) -> tuple[M.TowerSpec, M.TowerSpec]:
    """The user and item tower specs, with the config's dropout on both."""
    return tuple(dataclasses.replace(spec, dropout_p=config.dropout_p)
                 for spec in (config.user_tower, config.item_tower))


def build_model(config: TrainConfig, rng: RngState) -> M.TripletModelParams:
    """Fresh towers/head per the config; the config's dropout applies to
    both towers."""
    return M.init_model(*_tower_specs(config), rng)


def train(
    store: FeatureStore,
    triplets: list[TripletExample],
    config: TrainConfig,
    eval_triplets: list[TripletExample] | None = None,
    log_stream=None,
) -> Checkpoint:
    """Train per the config and return the final checkpoint.

    ``eval_triplets`` plus ``config.eval_every > 0`` adds a held-out pairwise
    accuracy to the per-epoch JSON line every eval_every epochs.
    """
    if not triplets:
        raise DataError("no training triplets")
    log = log_stream if log_stream is not None else sys.stdout

    rng = RngState(config.seed)
    model = build_model(config, rng)
    params = model.parameters()

    u_rows, i_rows, j_rows, tri_labels = gather_triplet_rows(store, triplets)
    if config.model_kind == "twonet":
        pair_uids, pair_iids, pair_labels = pairs_from_triplets(triplets, store)
        pu_rows = np.array([store.user_row(x) for x in pair_uids], dtype=np.intp)
        pi_rows = np.array([store.item_row(x) for x in pair_iids], dtype=np.intp)
        n_examples = len(pair_labels)
    else:
        n_examples = len(triplets)

    loss_history: list[float] = []
    step = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.next_generator().permutation(n_examples)
        total = 0.0
        for start in range(0, n_examples, config.batch_size):
            idx = perm[start : start + config.batch_size]
            try:
                if config.model_kind == "triplet":
                    loss = M.triplet_loss_and_grads(
                        model,
                        store.user_topics[u_rows[idx]],
                        store.item_features[i_rows[idx]],
                        store.item_features[j_rows[idx]],
                        tri_labels[idx],
                        training=True,
                        rng=rng,
                    )
                else:
                    loss = M.twonet_loss_and_grads(
                        model,
                        store.user_topics[pu_rows[idx]],
                        store.item_features[pi_rows[idx]],
                        pair_labels[idx],
                        training=True,
                        rng=rng,
                    )
            except NonFiniteLossError as e:
                raise NonFiniteLossError(
                    f"epoch {epoch}, batch starting at {start}: {e}; "
                    f"example indices {idx[:8].tolist()}"
                ) from None
            step += 1
            adam_step(params, lr=config.learning_rate, step=step)
            zero_grads(params)
            total += loss * len(idx)
        mean_loss = total / n_examples
        loss_history.append(mean_loss)

        line = {"epoch": epoch, "mean_loss": mean_loss}
        if (
            eval_triplets
            and config.eval_every > 0
            and (epoch % config.eval_every == 0 or epoch == config.epochs)
        ):
            line["eval_acc"] = E.pairwise_accuracy(model, eval_triplets, store)
        print(json.dumps(line), file=log)

    return Checkpoint(
        config=config,
        model=model,
        rng=rng,
        epoch=config.epochs,
        loss_history=loss_history,
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization: one JSON header line, then raw little-endian
# float64 tensor sections in the order the header lists them.
# ---------------------------------------------------------------------------


_HEADER_FORM = {  # the keys of a header and the types of their values
    "magic": _MAGIC, "format_version": CHECKPOINT_VERSION, "epoch": 0, "loss_history": [0.0],
    "config": dataclasses.asdict(TrainConfig()), "rng": {"seed": 0, "counter": 0},
    "tensors": [{"name": "", "shape": [0]}],
}


def _has_form(value, form) -> bool:
    """Whether parsed JSON ``value`` is laid out like ``form``: the same dict
    keys, list items each like form's one item, and scalars of form's type
    (an int may stand for a float; a bool is no int)."""
    if isinstance(form, dict):
        return (
            isinstance(value, dict)
            and value.keys() == form.keys()
            and all(_has_form(value[k], f) for k, f in form.items())
        )
    if isinstance(form, list):
        return isinstance(value, list) and all(_has_form(v, form[0]) for v in value)
    return type(value) is type(form) or (type(form), type(value)) == (float, int)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    tensors = M.named_parameters(ckpt.model)
    header = {
        "magic": _MAGIC,
        "format_version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(ckpt.config),
        "rng": {"seed": ckpt.rng.seed, "counter": ckpt.rng.counter},
        "epoch": ckpt.epoch,
        "loss_history": ckpt.loss_history,
        "tensors": [{"name": n, "shape": list(p.value.shape)} for n, p in tensors],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, p in tensors:
            fh.write(np.ascontiguousarray(p.value, dtype="<f8"))


def load_checkpoint(path) -> Checkpoint:
    """Load a checkpoint exactly as saved, or raise DataError. The tensor
    manifest must list the config's model parameters, in order and shape."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: not a checkpoint (missing header line)")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {e}") from None
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {header.get('format_version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if not _has_form(header, _HEADER_FORM):
        raise DataError(
            f"{path}: checkpoint header lacks a key, has an unknown one or holds "
            f"a value of the wrong type"
        )

    try:
        towers = {k: M.TowerSpec(**header["config"][k]) for k in ("user_tower", "item_tower")}
        config = TrainConfig(**{**header["config"], **towers})
        # the manifest and the file's length must fit the config before allocating
        layout = [(n, s) for n, s, _ in M.model_layout(config.user_tower, config.item_tower)]
        if [(t["name"], tuple(t["shape"])) for t in header["tensors"]] != layout:
            raise ValueError("the tensor manifest does not list the config's parameters in order")
        listed, held = 8 * sum(math.prod(s) for _, s in layout), len(blob) - nl - 1
        if held != listed:
            what = "truncated" if held < listed else "trailing bytes after"
            raise ValueError(f"{what} tensor sections: {held} bytes, the manifest lists {listed}")
        model = M.allocate_model(*_tower_specs(config))
    except ValueError as e:
        raise DataError(f"{path}: invalid checkpoint: {e}") from None
    # every tensor is a part of one arena laid out in manifest order
    model.head.bias.arena.value[...] = np.frombuffer(blob, dtype="<f8", offset=nl + 1)
    rng = RngState(**header["rng"])
    return Checkpoint(config, model, rng, header["epoch"], header["loss_history"])
