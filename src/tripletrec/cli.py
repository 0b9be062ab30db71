"""Command-line entry point: synthesize data, build pairs, train, evaluate,
retrieve, compare methods, gradient-check.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import data as D
from . import evaluate as E
from . import model as M
from .nn import NonFiniteLossError, RngState, grad_check, writing, zero_grads
from .train import TrainConfig, load_checkpoint, save_checkpoint, train

GRADCHECK_TOL = 1e-4


def _ints(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one integer")
    return values


def _int_at_least(low: int, what: str):
    """The type of a flag whose value is an integer >= ``low``, checked
    before any file is read; the message names ``what`` and the value."""

    def parse(value) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {n}")
        return n

    return parse


_seed = _int_at_least(0, "seed")


def _seeds(text: str) -> list[int]:
    seeds = [_seed(v) for v in _ints(text)]
    try:
        E.check_seeds(seeds)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return seeds


def _add_model_flags(p: argparse.ArgumentParser, defaults: TrainConfig) -> None:
    """The flags of ``train`` and ``compare`` that shape and train a model."""
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--dropout", type=float, default=defaults.dropout_p)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--latent", type=int, default=defaults.user_tower.output_dim)
    p.add_argument("--user-hidden", type=_ints, default=defaults.user_tower.hidden_dims)
    p.add_argument("--item-hidden", type=_ints, default=defaults.item_tower.hidden_dims)


def _add_pairing_flags(p: argparse.ArgumentParser) -> None:
    """The flags of ``build-pairs`` and ``compare`` that choose how triplets
    are paired (see :func:`_strategy_from_args`)."""
    p.add_argument("--strategy", choices=["unbalanced", "balanced", "one-to-n"],
                   default="unbalanced")
    p.add_argument("--n", type=_int_at_least(1, "n"), default=10,
                   help="negatives per positive (one-to-n)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletrec",
        description="Triplet metric-learning recommender: train towers plus a "
        "weighted-distance head and retrieve nearest items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    # each flag's dest is its SynthConfig field, and every default is SynthConfig()'s
    p.set_defaults(**dataclasses.asdict(D.SynthConfig()))
    p.add_argument("--tags", dest="num_tags", type=int)
    p.add_argument("--items-per-tag", type=int)
    p.add_argument("--users-per-tag", type=int)
    p.add_argument("--noise", dest="feature_noise_std", type=float, help="feature noise std")
    p.add_argument("--topic-sharpness", type=float)
    p.add_argument("--frames", type=int)
    p.add_argument("--frame-dim", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", required=True, help="corpus directory to write")

    p = sub.add_parser("build-pairs", help="assemble training triplets")
    p.add_argument("--corpus", required=True)
    _add_pairing_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="triplets CSV to write")

    defaults = TrainConfig()
    p = sub.add_parser("train", help="train a model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--model", choices=["triplet", "twonet"], default=defaults.model_kind)
    p.add_argument("--seed", type=_seed, default=defaults.seed)
    _add_model_flags(p, defaults)
    p.add_argument("--ckpt", required=True, help="checkpoint file to write")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", help="held-out triplets CSV for pairwise accuracy")
    p.add_argument("--k", type=_int_at_least(1, "k"), default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("retrieve", help="nearest items for a user or an item")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    who = p.add_mutually_exclusive_group(required=True)
    who.add_argument("--user", type=int)
    who.add_argument("--item", type=int)
    p.add_argument("--k", type=_int_at_least(1, "k"), default=10)

    p = sub.add_parser("compare", help="triplet vs twonet across seeds")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seeds", type=_seeds, default=[1, 2, 3, 4, 5])
    _add_pairing_flags(p)
    # the desk shape: short runs, small batches and a small item tower
    _add_model_flags(p, TrainConfig(epochs=30, batch_size=64,
                                    item_tower=M.TowerSpec(180, [64, 32, 16, 16])))
    p.add_argument("--k", type=_int_at_least(1, "k"), default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gradcheck", help="finite-difference check of both losses")
    p.add_argument("--seed", type=_seed, default=1)

    return parser


def _strategy_from_args(args) -> D.PairingStrategy:
    if args.strategy == "one-to-n":
        return D.PairingStrategy.one_to_n(args.n)
    return D.PairingStrategy(args.strategy)


def _synth_config_from_args(args) -> D.SynthConfig:
    return D.SynthConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(D.SynthConfig)})


def _cmd_synth(args) -> int:
    store = D.generate_synthetic(_synth_config_from_args(args))
    D.save_corpus(store, args.out)
    print(f"wrote {store.n_users} users and {store.n_items} items to {args.out}")
    return 0


def _cmd_build_pairs(args) -> int:
    store = D.load_corpus_dir(args.corpus)
    triplets = D.build_triplets(store, _strategy_from_args(args), args.seed)
    D.save_triplets(triplets, args.out)
    print(f"wrote {len(triplets)} triplets to {args.out}")
    return 0


def _train_config_from_args(args, **fields) -> TrainConfig:
    """The config the model flags describe. Each tower's input width is a
    placeholder until :func:`_sized` reads it off the corpus."""
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        dropout_p=args.dropout,
        learning_rate=args.lr,
        user_tower=M.TowerSpec(1, args.user_hidden, args.latent),
        item_tower=M.TowerSpec(1, args.item_hidden, args.latent),
        **fields,
    )


def _sized(config: TrainConfig, store: D.FeatureStore) -> TrainConfig:
    """The config with each tower's input width set to the corpus's."""
    return dataclasses.replace(
        config,
        user_tower=dataclasses.replace(config.user_tower, input_dim=store.user_topics.shape[1]),
        item_tower=dataclasses.replace(config.item_tower, input_dim=store.item_features.shape[1]),
    )


def _cmd_train(args) -> int:
    config = _train_config_from_args(args, seed=args.seed, model_kind=args.model)
    store = D.load_corpus_dir(args.corpus)
    triplets = D.load_triplets(args.pairs)
    ckpt = train(store, triplets, _sized(config, store))
    save_checkpoint(ckpt, args.ckpt)
    print(f"wrote checkpoint to {args.ckpt}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    store = D.load_corpus_dir(args.corpus)
    triplets = D.load_triplets(args.pairs) if args.pairs else None
    report = E.evaluate_model(ckpt.model, store, triplets, k=args.k)
    print(report.to_json() if args.json else report.to_table())
    return 0


def _cmd_retrieve(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    store = D.load_corpus_dir(args.corpus)
    if args.user is not None:
        row = store.user_row(args.user)
        ranked = M.rank_items_for_user(
            ckpt.model, store.user_topics[row], store.item_ids, store.item_features, args.k
        )
        print(f"# nearest items for user {args.user} (tag {int(store.user_tags[row])})")
    else:
        row = store.item_row(args.item)
        ranked = M.rank_items_for_item(
            ckpt.model,
            store.item_features[row],
            store.item_ids,
            store.item_features,
            args.k,
            exclude_ids=(args.item,),
        )
        print(f"# nearest items for item {args.item} (tag {int(store.item_tags[row])})")
    for rank, (iid, tag) in enumerate(zip(ranked, store.item_tags[store.item_rows(ranked)]), 1):
        print(f"{rank}\t{int(iid)}\ttag={int(tag)}")
    return 0


def _cmd_compare(args) -> int:
    config = _train_config_from_args(args)
    store = D.load_corpus_dir(args.corpus)
    comparison = E.compare_methods(
        store,
        _sized(config, store),
        seeds=args.seeds,
        strategy=_strategy_from_args(args),
        k=args.k,
        log_stream=sys.stderr,  # keep stdout a single document under --json
    )
    print(comparison.to_json() if args.json else comparison.to_table())
    return 0


def gradcheck_models(seed: int):
    """Small towers with frozen dropout for both losses; returns the two
    finite-difference reports (triplet, twonet).

    Every parameter (biases included) is drawn at random: the production
    zero-bias init parks ReLUs exactly at their kink, where a central
    difference straddles the nondifferentiable point. The step 1e-4 balances
    truncation against float64 cancellation noise for these loss scales.
    """
    user_spec = M.TowerSpec(input_dim=7, hidden_dims=[8, 6, 4, 4], output_dim=4)
    item_spec = M.TowerSpec(input_dim=24, hidden_dims=[8, 6, 4, 4], output_dim=4)
    model = M.init_model(user_spec, item_spec, RngState(seed), dropout_p=0.2)
    gen = np.random.default_rng(seed + 100)
    for p in model.parameters():
        with writing(p) as value:
            value[...] = gen.normal(scale=0.4, size=value.shape)
    gen = np.random.default_rng(seed)
    u = gen.normal(size=(3, 7))
    xi = gen.normal(size=(3, 24))
    xj = gen.normal(size=(3, 24))
    tri_labels = np.array([0.0, 1.0, 0.0])
    match_labels = np.array([1.0, 0.0, 1.0])
    params = model.parameters()

    def triplet_loss():
        # Fresh RngState per call freezes the dropout masks across probes.
        return M.triplet_loss_and_grads(
            model, u, xi, xj, tri_labels, training=True, rng=RngState(seed + 1)
        )

    def twonet_loss():
        return M.twonet_loss_and_grads(
            model, u, xi, match_labels, training=True, rng=RngState(seed + 2)
        )

    report_triplet = grad_check(triplet_loss, params, h=1e-4, tol=GRADCHECK_TOL)
    zero_grads(params)
    report_twonet = grad_check(twonet_loss, params, h=1e-4, tol=GRADCHECK_TOL)
    return report_triplet, report_twonet


def _cmd_gradcheck(args) -> int:
    report_triplet, report_twonet = gradcheck_models(args.seed)
    print(f"triplet loss: {report_triplet.summary()}")
    print(f"twonet loss:  {report_twonet.summary()}")
    return 0 if (report_triplet.passed and report_twonet.passed) else 3


_COMMANDS = {
    "synth": _cmd_synth,
    "build-pairs": _cmd_build_pairs,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "compare": _cmd_compare,
    "gradcheck": _cmd_gradcheck,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (D.DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NonFiniteLossError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
