"""End-to-end CLI tests: every subcommand plus the exit-code contract."""

import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from tripletrec import cli
from tripletrec import data as D
from tripletrec import evaluate as E
from tripletrec import model as M
from tripletrec.cli import build_parser, run
from tripletrec.train import TrainConfig, load_checkpoint

SYNTH = [
    "synth", "--tags", "2", "--items-per-tag", "3", "--users-per-tag", "2",
    "--noise", "0.1", "--frames", "2", "--frame-dim", "3", "--seed", "1",
]
TOWERS = ["--user-hidden", "4,3", "--item-hidden", "4,3", "--latent", "2"]


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert run(SYNTH + ["--out", str(out)]) == 0
    return out


@pytest.fixture()
def pairs_file(tmp_path, corpus_dir):
    out = tmp_path / "pairs.csv"
    code = run([
        "build-pairs", "--corpus", str(corpus_dir), "--strategy", "one-to-n",
        "--n", "2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture()
def ckpt_file(tmp_path, corpus_dir, pairs_file):
    out = tmp_path / "model.ckpt"
    code = run([
        "train", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
        "--model", "triplet", "--epochs", "2", "--batch", "8",
        "--dropout", "0.1", "--seed", "1", *TOWERS, "--ckpt", str(out),
    ])
    assert code == 0
    return out


def misfit_corpus(tmp_path, flag, value):
    """A corpus like ``corpus_dir``'s but for one synth flag, so that a
    checkpoint trained on that one does not fit it."""
    out = tmp_path / f"misfit{flag}"
    args = list(SYNTH)
    args[args.index(flag) + 1] = value
    assert run(args + ["--out", str(out)]) == 0
    return out


def rewrite_cell(path, line, col, text):
    """Gives one cell of a CSV file new text; a lone surrogate in the text
    becomes the raw byte it escapes, so the file need not be UTF-8."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
    rows[line - 1][col] = text
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    path.write_bytes(out.getvalue().encode("utf-8", "surrogateescape"))


class TestSynth:
    def test_writes_corpus_files(self, corpus_dir):
        assert (corpus_dir / "users.csv").exists()
        assert (corpus_dir / "items.csv").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(SYNTH + ["--out", str(a)])
        run(SYNTH + ["--out", str(b)])
        assert (a / "items.csv").read_bytes() == (b / "items.csv").read_bytes()


    def test_negative_seed_is_a_usage_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run(SYNTH + ["--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--noise=nan", "--noise=inf", "--topic-sharpness=-3",
                                      "--topic-sharpness=nan", "--topic-sharpness=inf"])
    def test_value_whose_corpus_breaks_its_contract_exits_1_writing_nothing(
        self, flag, tmp_path, capsys
    ):
        out = tmp_path / "corpus"
        assert run([*SYNTH, flag, "--out", str(out)]) == 1
        assert "must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_defaults_are_the_synth_config_defaults(self):
        args = build_parser().parse_args(["synth", "--out", "o"])
        assert cli._synth_config_from_args(args) == D.SynthConfig()

    def test_each_flag_sets_its_field(self):
        args = build_parser().parse_args([*SYNTH, "--topic-sharpness", "2.5", "--out", "o"])
        assert cli._synth_config_from_args(args) == D.SynthConfig(
            num_tags=2, users_per_tag=2, items_per_tag=3, feature_noise_std=0.1,
            topic_sharpness=2.5, seed=1, frames=2, frame_dim=3)


class TestBuildPairs:
    def test_one_to_n_count(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "p.csv"
        code = run([
            "build-pairs", "--corpus", str(corpus_dir), "--strategy", "one-to-n",
            "--n", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        # 2 tags x 2 users x 3 positives x 2 negatives = 24 triplets
        n_lines = len(out.read_text().strip().splitlines()) - 1
        assert n_lines == 24
        assert "24 triplets" in capsys.readouterr().out

    def test_ten_negatives_per_positive(self, tmp_path):
        corpus = tmp_path / "wide"
        assert run([
            "synth", "--tags", "2", "--items-per-tag", "10", "--users-per-tag",
            "2", "--noise", "0.1", "--frames", "2", "--frame-dim", "3",
            "--seed", "2", "--out", str(corpus),
        ]) == 0
        out = tmp_path / "p10.csv"
        assert run([
            "build-pairs", "--corpus", str(corpus), "--strategy", "one-to-n",
            "--n", "10", "--seed", "2", "--out", str(out),
        ]) == 0
        n_lines = len(out.read_text().strip().splitlines()) - 1
        assert n_lines == 10 * (4 * 10)  # 10 x positive count

    def test_missing_corpus_is_data_error(self, tmp_path):
        code = run([
            "build-pairs", "--corpus", str(tmp_path / "nope"), "--out",
            str(tmp_path / "p.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("name, line, col, text", [
        ("users.csv", 3, -1, "x"),
        ("items.csv", 2, 3, "0.5\udcff"),
        ("items.csv", 2, 2, "1" * 200_000),
        ("users.csv", 2, 0, "99999999999999999999"),
    ], ids=["tag-not-an-integer", "byte-not-utf8", "field-over-csv-limit", "id-outside-int64"])
    def test_csv_defect_exits_2_naming_the_file(self, tmp_path, corpus_dir, capsys,
                                                name, line, col, text):
        rewrite_cell(corpus_dir / name, line, col, text)
        code = run([
            "build-pairs", "--corpus", str(corpus_dir), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert str(corpus_dir / name) in capsys.readouterr().err


    def test_negative_seed_fails_before_reading_the_corpus(self, tmp_path, capsys):
        code = run(["build-pairs", "--corpus", str(tmp_path / "missing"), "--seed", "-1",
                    "--out", str(tmp_path / "pairs.csv")])
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_zero_negatives_fail_before_reading_the_corpus(self, tmp_path, capsys):
        code = run(["build-pairs", "--corpus", str(tmp_path / "missing"), "--strategy",
                    "one-to-n", "--n", "0", "--out", str(tmp_path / "pairs.csv")])
        assert code == 1
        assert "n must be >= 1, got 0" in capsys.readouterr().err


class TestTrain:
    def test_same_seed_gives_identical_checkpoints(self, tmp_path, corpus_dir, pairs_file):
        args = [
            "train", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--epochs", "1", "--batch", "8", "--seed", "7", *TOWERS,
        ]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run(args + ["--ckpt", str(a)]) == 0
        assert run(args + ["--ckpt", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_emits_json_lines(self, tmp_path, corpus_dir, pairs_file, capsys):
        code = run([
            "train", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--epochs", "2", "--batch", "8", "--seed", "1", *TOWERS,
            "--ckpt", str(tmp_path / "m.ckpt"),
        ])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["epoch"] for l in lines] == [1, 2]

    @pytest.mark.parametrize("flag, value, named", [
        ("--dropout", "1.5", "dropout probability must be in [0, 1), got 1.5"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--lr", "nan", "learning rate must be a finite number > 0, got nan"),
        ("--lr", "inf", "learning rate must be a finite number > 0, got inf"),
        ("--lr", "0", "learning rate must be a finite number > 0, got 0.0"),
        ("--lr", "-1", "learning rate must be a finite number > 0, got -1.0"),
    ], ids=["dropout-1.5", "seed--1", "lr-nan", "lr-inf", "lr-0", "lr--1"])
    def test_invalid_config_fails_before_reading_the_corpus(self, tmp_path, capsys, flag,
                                                            value, named):
        code = run([
            "train", "--corpus", str(tmp_path / "missing"), "--pairs",
            str(tmp_path / "missing.csv"), flag, value, "--ckpt", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_flag_defaults_are_the_train_config_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c", "--pairs", "p", "--ckpt", "k"])
        default = TrainConfig()
        corpus = SimpleNamespace(user_topics=np.zeros((1, default.user_tower.input_dim)),
                                 item_features=np.zeros((1, default.item_tower.input_dim)))
        config = cli._train_config_from_args(args, seed=args.seed, model_kind=args.model)
        assert cli._sized(config, corpus) == default

    def test_dropout_flag_is_both_towers_dropout(self, ckpt_file):
        assert json.loads(ckpt_file.read_bytes().split(b"\n", 1)[0])["config"]["dropout_p"] == 0.1
        loaded = load_checkpoint(ckpt_file)
        assert loaded.model.user_tower.dropout_p == loaded.model.item_tower.dropout_p == 0.1
        assert loaded.model.user_tower.spec == loaded.config.user_tower
        assert loaded.model.item_tower.spec == loaded.config.item_tower

    def test_non_finite_loss_maps_to_exit_3(self, monkeypatch):
        # overflow can't be provoked through the CLI alone (row normalization
        # saturates huge activations), so exercise the mapping directly
        from tripletrec import cli
        from tripletrec.nn import NonFiniteLossError

        def boom(args):
            raise NonFiniteLossError("epoch 1, batch starting at 0")

        monkeypatch.setitem(cli._COMMANDS, "gradcheck", boom)
        assert run(["gradcheck", "--seed", "1"]) == 3


class TestEval:
    def test_json_output_parses(self, corpus_dir, pairs_file, ckpt_file, capsys):
        code = run([
            "eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
            "--pairs", str(pairs_file), "--k", "3", "--json",
        ])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert 0.0 <= parsed["pairwise_accuracy"] <= 1.0
        assert "3" in parsed["precision_at_k"]

    def test_table_output(self, corpus_dir, ckpt_file, capsys):
        code = run([
            "eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
            "--k", "3",
        ])
        assert code == 0
        assert "precision@3" in capsys.readouterr().out

    def test_defective_checkpoint_exits_2(self, corpus_dir, ckpt_file, break_checkpoint,
                                          capsys):
        break_checkpoint(ckpt_file)
        code = run([
            "eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir), "--k", "3",
        ])
        assert code == 2
        assert str(ckpt_file) in capsys.readouterr().err

    def test_header_claiming_a_huge_tower_exits_2(self, corpus_dir, ckpt_file,
                                                  checkpoint_parts, capsys):
        # a dropout outside [0, 1) or a learning rate that is not finite and
        # positive is as invalid as a huge tower: it must not load only to
        # fail at the first embed or train step
        split, join = checkpoint_parts
        original = ckpt_file.read_bytes()
        for edit in (
            lambda config: config["item_tower"].update(input_dim=10**12),
            lambda config: config.update(dropout_p=1.5),
            lambda config: config.update(dropout_p=-0.1),
            lambda config: config.update(learning_rate=0),
            lambda config: config.update(learning_rate=-1.0),
        ):
            header, sections = split(original)
            edit(header["config"])
            ckpt_file.write_bytes(join(header, sections))
            code = run([
                "eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir), "--k", "3",
            ])
            assert code == 2
            assert str(ckpt_file) in capsys.readouterr().err

    def test_one_item_catalogue_exits_2(self, corpus_dir, ckpt_file, capsys):
        items = corpus_dir / "items.csv"
        items.write_bytes(b"".join(items.read_bytes().splitlines(keepends=True)[:2]))
        code = run(["eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir), "--k", "1"])
        assert code == 2
        assert "at least 2 catalogue items, got 1" in capsys.readouterr().err

    def test_corpus_wider_than_the_checkpoint_exits_2(self, tmp_path, ckpt_file, capsys):
        corpus = misfit_corpus(tmp_path, "--frame-dim", "5")
        capsys.readouterr()
        code = run(["eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus), "--k", "3"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "data error: tower expects input dim 6, got 10" in err

    def test_k_below_one_fails_before_reading_any_file(self, tmp_path, capsys):
        code = run(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                    "--corpus", str(tmp_path / "missing"), "--k", "0"])
        assert code == 1
        assert "k must be >= 1, got 0" in capsys.readouterr().err


class TestRetrieve:
    def test_for_user(self, corpus_dir, ckpt_file, capsys):
        code = run([
            "retrieve", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
            "--user", "0", "--k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4  # header + 3 rows
        assert out[0].startswith("# nearest items for user 0")

    def test_for_item_excludes_self(self, corpus_dir, ckpt_file, capsys):
        code = run([
            "retrieve", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
            "--item", "2", "--k", "5",
        ])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        ids = [int(r.split("\t")[1]) for r in rows]
        assert 2 not in ids
        assert len(ids) == 5

    def test_for_item_prints_the_neighbours_item_item_precision_scores(
            self, corpus_dir, ckpt_file, capsys, monkeypatch):
        store = D.load_corpus_dir(corpus_dir)
        scored = {}
        rank = M.rank_latent_rows_for_items

        def recording(item_ids, z_items, rows, k):
            ranked = rank(item_ids, z_items, rows, k)
            scored.update(zip(item_ids[rows].tolist(), ranked.tolist()))
            return ranked

        with monkeypatch.context() as patch:
            patch.setattr(M, "rank_latent_rows_for_items", recording)
            E.item_item_precision_at_k(load_checkpoint(ckpt_file).model,
                                       store.item_ids.tolist(), store, 5)
        assert sorted(scored) == store.item_ids.tolist()
        capsys.readouterr()
        for item in scored:
            assert run(["retrieve", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
                        "--item", str(item), "--k", "5"]) == 0
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            assert [int(r.split("\t")[1]) for r in rows] == scored[item]

    def test_unknown_user_is_data_error(self, corpus_dir, ckpt_file):
        code = run([
            "retrieve", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
            "--user", "999",
        ])
        assert code == 2

    def test_user_and_item_conflict_is_usage_error(self, corpus_dir, ckpt_file):
        code = run([
            "retrieve", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir),
            "--user", "0", "--item", "1",
        ])
        assert code == 1


    @pytest.mark.parametrize("query, flag, value, widths", [
        (["--user", "0"], "--tags", "3", (2, 3)),
        (["--item", "2"], "--frame-dim", "5", (6, 10)),
    ], ids=["user", "item"])
    def test_corpus_the_checkpoint_does_not_fit_exits_2(self, tmp_path, ckpt_file, capsys,
                                                         query, flag, value, widths):
        corpus = misfit_corpus(tmp_path, flag, value)
        capsys.readouterr()
        code = run(["retrieve", "--ckpt", str(ckpt_file), "--corpus", str(corpus), *query])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "data error: tower expects input dim {}, got {}".format(*widths) in err

    def test_k_below_one_fails_before_reading_any_file(self, tmp_path, capsys):
        code = run(["retrieve", "--ckpt", str(tmp_path / "missing.ckpt"),
                    "--corpus", str(tmp_path / "missing"), "--user", "0", "--k", "-2"])
        assert code == 1
        assert "k must be >= 1, got -2" in capsys.readouterr().err


class TestCompare:
    @pytest.mark.parametrize("flags, want", [([], ("unbalanced", 10)),
                                             (["--strategy", "one-to-n", "--n", "3"],
                                              ("one-to-n", 3))])
    def test_pairing_flags_parse_as_build_pairs_parses_them(self, flags, want):
        parse = build_parser().parse_args
        for args in (parse(["build-pairs", "--corpus", "c", "--out", "o", *flags]),
                     parse(["compare", "--corpus", "c", *flags])):
            assert (args.strategy, args.n) == want

    def test_json_is_single_document(self, corpus_dir, capsys):
        code = run([
            "compare", "--corpus", str(corpus_dir), "--seeds", "1,2,3",
            "--epochs", "1", "--batch", "8", *TOWERS, "--k", "2", "--json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        parsed = json.loads(captured.out)  # whole stdout is one JSON doc
        assert parsed["n_seeds"] == 3
        assert "epoch" in captured.err  # training lines went to stderr


    def test_negative_seed_fails_before_reading_the_corpus(self, tmp_path, capsys):
        assert run(["compare", "--corpus", str(tmp_path / "missing"), "--seeds=2,-1,3"]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_fewer_than_three_seeds_fail_before_reading_the_corpus(self, tmp_path, capsys):
        assert run(["compare", "--corpus", str(tmp_path / "missing"), "--seeds", "1,2"]) == 1
        assert "need at least 3 seeds for a comparison, got 2" in capsys.readouterr().err

    def test_a_repeated_seed_fails_before_reading_the_corpus(self, tmp_path, capsys):
        assert run(["compare", "--corpus", str(tmp_path / "missing"), "--seeds", "1,1,1"]) == 1
        assert "seed 1 given more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--k", "--n"])
    def test_count_below_one_fails_before_reading_the_corpus(self, flag, tmp_path, capsys):
        assert run(["compare", "--corpus", str(tmp_path / "missing"), flag, "0"]) == 1
        assert f"{flag[2:]} must be >= 1, got 0" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_and_prints_max_error(self, capsys):
        assert run(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "triplet" in out and "twonet" in out


class TestUsage:
    def test_unknown_flag(self):
        assert run(["synth", "--bogus", "1"]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_missing_file_is_data_error(self, tmp_path):
        code = run([
            "eval", "--ckpt", str(tmp_path / "none.ckpt"), "--corpus",
            str(tmp_path),
        ])
        assert code == 2
