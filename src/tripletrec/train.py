"""Deterministic minibatch training for the triplet model and the two-branch
baseline, with binary checkpointing.

(seed, config, data) and the BLAS thread count fully determine every
parameter after every step: the same run repeated with the same thread count
gives bitwise-identical checkpoints, on any number of CPUs. Another thread
count may not, because a large matrix product splits its sums across threads
(at the production shape the first item layer's forward product does). The
CPU count does not: the worker pool of :mod:`nn` splits the first item
layer's products and the Adam pass into blocks fixed by the arrays' shapes,
whatever its size. Each epoch shuffles
the examples (seeded), walks all full batches plus the final partial batch,
takes one Adam step per batch and zeroes gradients afterwards. One JSON line
per epoch goes to stdout: ``{"epoch": k, "mean_loss": x, "eval_acc": y?}``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import evaluate as E
from . import model as M
from .data import DataError, FeatureStore, gather_triplet_rows, pairs_from_triplets
from .nn import NonFiniteLossError, RngState, adam_step, check_dropout_p, writing, zero_grads

CHECKPOINT_VERSION = 1
_MAGIC = "triplet-recsys-checkpoint"


@dataclass
class TrainConfig:
    """Everything that, with the data, determines a training run.

    ``dropout_p`` is the dropout of both towers: construction writes it into
    copies of ``user_tower`` and ``item_tower``, so their ``dropout_p`` always
    equals it, whatever the specs passed in declared.
    """

    epochs: int = 200
    batch_size: int = 256
    dropout_p: float = 0.2
    learning_rate: float = 1e-3
    seed: int = 0
    model_kind: str = "triplet"  # "triplet" | "twonet"
    user_tower: M.TowerSpec = field(default_factory=lambda: M.TowerSpec(input_dim=7))
    item_tower: M.TowerSpec = field(
        default_factory=lambda: M.TowerSpec(input_dim=7560, hidden_dims=[1024, 256, 64, 16])
    )
    eval_every: int = 0  # epochs between held-out evaluations; 0 disables

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"learning rate must be a finite number > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.model_kind not in ("triplet", "twonet"):
            raise ValueError(f"unknown model kind: {self.model_kind!r}")
        check_dropout_p(self.dropout_p)
        self.user_tower = dataclasses.replace(self.user_tower, dropout_p=self.dropout_p)
        self.item_tower = dataclasses.replace(self.item_tower, dropout_p=self.dropout_p)


@dataclass
class Checkpoint:
    """Trained parameters plus everything needed to reproduce them."""

    config: TrainConfig
    model: M.TripletModelParams
    rng: RngState
    epoch: int
    loss_history: list[float]


def build_model(config: TrainConfig, rng: RngState) -> M.TripletModelParams:
    """Fresh towers/head per the config."""
    return M.init_model(config.user_tower, config.item_tower, rng)


def train(
    store: FeatureStore,
    triplets: np.recarray,
    config: TrainConfig,
    eval_triplets: np.recarray | None = None,
    log_stream=None,
) -> Checkpoint:
    """Train per the config and return the final checkpoint.

    Each step hands the loss the batch's item rows and ``store.item_features``
    itself, not a copy of each branch's features: the item tower runs once
    over both branches' rows stacked (the one branch for twonet), and its
    first linear layer copies and multiplies only the batch's distinct items
    (see :func:`model.tower_forward`).

    ``eval_triplets`` plus ``config.eval_every > 0`` adds a held-out pairwise
    accuracy to the per-epoch JSON line every eval_every epochs.
    """
    if triplets is None or len(triplets) == 0:
        raise DataError("no training triplets")
    log = log_stream if log_stream is not None else sys.stdout

    rng = RngState(config.seed)
    model = build_model(config, rng)
    params = model.parameters()

    u_rows, i_rows, j_rows, tri_labels = gather_triplet_rows(store, triplets)
    if config.model_kind == "twonet":
        pair_uids, pair_iids, pair_labels = pairs_from_triplets(triplets, store)
        pu_rows, pi_rows = store.user_rows(pair_uids), store.item_rows(pair_iids)
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
                        i_rows[idx],
                        j_rows[idx],
                        tri_labels[idx],
                        training=True,
                        rng=rng,
                        items=store.item_features,
                    )
                else:
                    loss = M.twonet_loss_and_grads(
                        model,
                        store.user_topics[pu_rows[idx]],
                        pi_rows[idx],
                        pair_labels[idx],
                        training=True,
                        rng=rng,
                        items=store.item_features,
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
            eval_triplets is not None
            and len(eval_triplets) > 0
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
        fh.write(ckpt.model.arena.value.astype("<f8", copy=False))


def load_checkpoint(path) -> Checkpoint:
    """Load a checkpoint exactly as saved, or raise DataError. The tensor
    manifest must list the config's model parameters, in order and shape,
    and the file must hold exactly their bytes, which are read straight into
    the model's arena."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"{path}: not a checkpoint (missing header line)")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
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
            # the config gives both towers its own dropout_p, so a header whose
            # towers spell another (0 against 0.0 included) would not save back as read
            top = repr(header["config"]["dropout_p"])
            if any(repr(header["config"][k]["dropout_p"]) != top for k in towers):
                raise ValueError("a tower's dropout_p is not the config's dropout_p")
            config = TrainConfig(**{**header["config"], **towers})
            # the manifest and the file's length must fit the config before allocating
            layout = [(n, s) for n, s, _ in M.model_layout(config.user_tower, config.item_tower)]
            if [(t["name"], tuple(t["shape"])) for t in header["tensors"]] != layout:
                raise ValueError("the tensor manifest does not list the config's parameters in order")
            listed = 8 * sum(math.prod(s) for _, s in layout)
            held = os.fstat(fh.fileno()).st_size - len(line)
            if held != listed:
                what = "truncated" if held < listed else "trailing bytes after"
                raise ValueError(f"{what} tensor sections: {held} bytes, the manifest lists {listed}")
            model = M.allocate_model(config.user_tower, config.item_tower)
            rng = RngState(**header["rng"])
        except ValueError as e:
            raise DataError(f"{path}: invalid checkpoint: {e}") from None
        with writing(model.arena) as value:
            if fh.readinto(value) != listed:
                raise DataError(f"{path}: invalid checkpoint: the file shrank while it was read")
            if sys.byteorder != "little":
                value.byteswap(inplace=True)
    return Checkpoint(config, model, rng, header["epoch"], header["loss_history"])
