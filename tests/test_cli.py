"""End-to-end CLI tests: every subcommand plus the exit-code contract."""

import csv
import io
import json

import pytest

from tripletrec.cli import run

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
        split, join = checkpoint_parts
        header, sections = split(ckpt_file.read_bytes())
        header["config"]["item_tower"]["input_dim"] = 10**12
        ckpt_file.write_bytes(join(header, sections))
        code = run([
            "eval", "--ckpt", str(ckpt_file), "--corpus", str(corpus_dir), "--k", "3",
        ])
        assert code == 2
        assert str(ckpt_file) in capsys.readouterr().err


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


class TestCompare:
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
