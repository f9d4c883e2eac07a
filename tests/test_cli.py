import csv
import dataclasses
import errno
import functools
import gc
import importlib.machinery
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import repscope.cli
import repscope.regression
from repscope import reports
from repscope.cli import main
from repscope.config import AnalysisConfig
from repscope.corpus import TokenizerConfig, load_corpus
from repscope.metrics import summary_repetition_score
from repscope.ngrams import build_repetition_index
from repscope.regression import RegressionSpec, build_design_matrix, ols_fit

from conftest import UNREADABLE_CORPORA, child_env, write_jsonl


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dir_snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def write_uninhabited_interaction(tmp_path: Path) -> Path:
    """A corpus whose design is rank deficient: no record is trained and
    tested on XSum, so the 'XSum - XSum' interaction column is all zero."""
    rng = np.random.default_rng(5)
    lines = []
    combos = [("Human", None, "CNN/DailyMail"), ("Human", None, "XSum"),
              ("BART", "XSum", "CNN/DailyMail"), ("BART", "CNN/DailyMail", "XSum"),
              ("BART", "CNN/DailyMail", "CNN/DailyMail")]
    for i in range(60):
        arch, train, test = combos[i % len(combos)]
        obj = {"id": f"s{i}", "summary": " ".join(f"w{rng.integers(0, 999)}" for _ in range(int(rng.integers(5, 30)))),
               "architecture": arch, "test_dataset": test}
        if train:
            obj["train_dataset"] = train
        lines.append(obj)
    return write_jsonl(tmp_path / "gap.jsonl", lines)


def single_error_line(err: str) -> str:
    """The one ``error:`` line of a failed run's stderr, which has no traceback."""
    error_lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error_lines) == 1 and "Traceback" not in err, err
    return error_lines[0]


class TestScore:
    def test_toy_corpus_outputs(self, tmp_path):
        lines = [
            {"id": "s1", "summary": "a b c d", "architecture": "Human", "test_dataset": "d"},
            {"id": "s2", "summary": "a b c d e", "architecture": "Human", "test_dataset": "d"},
            {"id": "s3", "summary": "x y z w", "architecture": "Human", "test_dataset": "d"},
        ]
        path = write_jsonl(tmp_path / "toy.jsonl", lines)
        out = tmp_path / "out"
        assert main(["score", str(path), "--output-dir", str(out)]) == 0
        dataset_rows = read_csv(out / "dataset_scores.csv")
        assert len(dataset_rows) == 1
        assert dataset_rows[0]["dataset"] == "toy"
        assert float(dataset_rows[0]["score"]) == pytest.approx(2 / 3)
        summary_rows = read_csv(out / "summary_scores_toy.csv")
        assert len(summary_rows) == 3
        length_rows = read_csv(out / "summary_lengths.csv")
        assert float(length_rows[0]["mean_length"]) == pytest.approx(13 / 3)
        assert (int(length_rows[0]["min_length"]), int(length_rows[0]["max_length"])) == (4, 5)

    def test_rerun_is_byte_identical(self, fixture_corpora, tmp_path):
        out = tmp_path / "reports"
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 0
        first = dir_snapshot(out)
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 0
        assert dir_snapshot(out) == first

    def test_load_failures_listed_per_file(self, tmp_path, capsys):
        good = write_jsonl(
            tmp_path / "good.jsonl",
            [{"id": "s1", "summary": "a", "architecture": "A", "test_dataset": "d"}],
        )
        bad1 = tmp_path / "bad1.jsonl"
        bad1.write_text("{broken\n")
        bad2 = tmp_path / "missing.jsonl"
        code = main(["score", str(good), str(bad1), str(bad2), "--output-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad1.jsonl:1" in err
        assert "missing.jsonl" in err

    @pytest.mark.parametrize("case", sorted(UNREADABLE_CORPORA))
    def test_unreadable_corpus_exits_1(self, tmp_path, capsys, case):
        content, lineno, message = UNREADABLE_CORPORA[case]
        path = tmp_path / "bad.jsonl"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["score", str(path), "--output-dir", str(out)]) == 1
        assert f"bad.jsonl:{lineno}: {message}" in single_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["named_pipe", "piped_stdin"])
    def test_corpus_that_is_not_a_regular_file_exits_1(self, fixture_corpora, tmp_path, source):
        # the manifest's digest reads each corpus a second time, which a pipe
        # cannot give; a child process, so that a run which opens the named
        # pipe (and waits for a writer) fails the test rather than hanging it
        if source == "named_pipe":
            corpus, data = str(tmp_path / "pipe.jsonl"), None
            os.mkfifo(corpus)
        else:
            corpus, data = "/dev/stdin", Path(fixture_corpora[0]).read_bytes()
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "repscope.cli", "score", corpus, "--output-dir", str(out)],
            input=data, env=child_env(), capture_output=True, timeout=60,
        )
        assert proc.returncode == 1
        assert single_error_line(proc.stderr.decode()) == (
            f"error: {corpus}: not a regular file; a corpus is read twice, "
            "to load it and for its digest"
        )
        assert not out.exists()

    def test_stdin_redirected_from_a_file_is_a_corpus(self, fixture_corpora, tmp_path):
        out = tmp_path / "out"
        with open(fixture_corpora[0], "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-m", "repscope.cli", "score", "/dev/stdin",
                 "--output-dir", str(out)],
                stdin=stdin, env=child_env(), capture_output=True, timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        assert inputs == [{"path": "/dev/stdin", "sha256": reports.sha256_file(fixture_corpora[0])}]

    def test_corpus_gone_before_its_digest_exits_1(self, fixture_corpora, tmp_path, capsys,
                                                   monkeypatch):
        load = repscope.cli.load_corpus

        def load_then_remove(path, *args):
            corpus = load(path, *args)
            os.remove(path)
            return corpus

        monkeypatch.setattr(repscope.cli, "load_corpus", load_then_remove)
        out = tmp_path / "out"
        assert main(["score", fixture_corpora[0], "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err).startswith(
            f"error: {fixture_corpora[0]}: cannot read it again for its digest: "
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "repeats", "abstractiveness", "regress",
                                         "report-all"])
    @pytest.mark.parametrize("content", ["", "\n  \n\t\n"], ids=["empty", "blank_lines"])
    def test_empty_corpus_exits_1_naming_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "empty.jsonl"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, str(path), "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err) == f"error: {path}: no records"
        assert not out.exists()

    def test_duplicate_corpus_names_rejected(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        lines = [{"id": "s1", "summary": "a", "architecture": "A", "test_dataset": "d"}]
        write_jsonl(a / "same.jsonl", lines)
        write_jsonl(b / "same.jsonl", lines)
        # report-all would note that the first one lacks paired inputs
        for command in ("score", "report-all"):
            code = main([command, str(a / "same.jsonl"), str(b / "same.jsonl"),
                         "--output-dir", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err
            assert "distinct names" in single_error_line(err) and "note:" not in err


class TestRepeats:
    def _toy(self, tmp_path):
        lines = [
            {"id": "s1", "summary": "a b c d", "architecture": "Human", "test_dataset": "d"},
            {"id": "s2", "summary": "a b c d e", "architecture": "Human", "test_dataset": "d"},
            {"id": "s3", "summary": "x y z w", "architecture": "Human", "test_dataset": "d"},
        ]
        return write_jsonl(tmp_path / "toy.jsonl", lines)

    def test_shared_four_gram_row(self, tmp_path):
        path = self._toy(tmp_path)
        out = tmp_path / "out"
        assert main(["repeats", str(path), "--output-dir", str(out)]) == 0
        rows = read_csv(out / "repeats.csv")
        assert len(rows) == 1
        assert rows[0]["ngram"] == "a b c d"
        assert rows[0]["freq"] == "2/3"
        assert rows[0]["example_id"] == "s1"
        assert rows[0]["example"] == "a b c d"

    def test_min_count_above_max_gives_empty_report(self, tmp_path):
        path = self._toy(tmp_path)
        out = tmp_path / "out"
        assert main(["repeats", str(path), "--min-count", "10", "--output-dir", str(out)]) == 0
        assert read_csv(out / "repeats.csv") == []
        assert (out / "repeats.jsonl").read_text() == ""

    @pytest.mark.parametrize("command", ["repeats", "report-all"])
    def test_limit_below_1_exits_1_before_any_corpus_is_read(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        missing = tmp_path / "missing.jsonl"
        assert main([command, str(missing), "--limit", "0", "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err) == "error: --limit must be >= 1, got 0"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["repeats", "report-all"])
    def test_min_count_below_2_exits_1_before_any_corpus_is_read(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        missing = tmp_path / "missing.jsonl"
        assert main([command, str(missing), "--min-count", "1", "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err) == "error: --min-count must be >= 2, got 1"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--limit", "0"], ["--min-count", "1"]])
    def test_usage_error_leaves_an_earlier_run_whole(self, tmp_path, capsys, flag):
        path = self._toy(tmp_path)
        out = tmp_path / "out"
        assert main(["repeats", str(path), "--output-dir", str(out)]) == 0
        earlier = dir_snapshot(out)
        assert "run_manifest.json" in earlier
        assert main(["repeats", str(path), *flag, "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err).startswith(f"error: {flag[0]} must be")
        assert dir_snapshot(out) == earlier

    def test_with_ids_flag(self, tmp_path):
        path = self._toy(tmp_path)
        out = tmp_path / "out"
        assert main(["repeats", str(path), "--with-ids", "--output-dir", str(out)]) == 0
        (line,) = (out / "repeats.jsonl").read_text().splitlines()
        assert json.loads(line) == {"ngram": ["a", "b", "c", "d"], "n": 4, "count": 2,
                                    "ids": ["s1", "s2"]}

    def test_export_order_matches_top_repeats(self, tmp_path):
        lines = [
            {"id": "s1", "summary": "a b c d e", "architecture": "H", "test_dataset": "d"},
            {"id": "s2", "summary": "a b c d e", "architecture": "H", "test_dataset": "d"},
            {"id": "s3", "summary": "a b c d zz", "architecture": "H", "test_dataset": "d"},
        ]
        path = write_jsonl(tmp_path / "toy.jsonl", lines)
        out = tmp_path / "out"
        assert main(["repeats", str(path), "--output-dir", str(out)]) == 0
        ngrams = [json.loads(l)["ngram"] for l in (out / "repeats.jsonl").read_text().splitlines()]
        assert ngrams[0] == ["a", "b", "c", "d"]  # count 3 first, then longer ties
        assert ngrams[1] == ["a", "b", "c", "d", "e"]

    def test_markdown_rows_stay_one_line_of_three_cells(self, tmp_path):
        # a "|" token in the n-gram and a line break in the example text
        text = "Sign up | for our daily\nbriefing now \u2026"
        lines = [
            {"id": f"s{i}", "summary": text, "architecture": "H", "test_dataset": "d"}
            for i in (1, 2)
        ]
        path = write_jsonl(tmp_path / "toy.jsonl", lines)
        out = tmp_path / "out"
        assert main(["repeats", str(path), "--formats", "markdown", "--output-dir", str(out)]) == 0
        body = (out / "repeats.md").read_text(encoding="utf-8").splitlines()[2:]
        assert body
        for line in body:
            cells = re.split(r"(?<!\\)\|", line)
            assert cells[0] == cells[-1] == "" and len(cells) == 5, line
        assert "| Sign up \\| for our daily briefing now \u2026 |" in body[0]


class TestAbstractiveness:
    def test_copy_and_disjoint_corpora(self, tmp_path):
        copy_lines = [
            {"id": "s1", "summary": "a b c d e", "input": "a b c d e",
             "architecture": "H", "test_dataset": "d"},
        ]
        disjoint_lines = [
            {"id": "s1", "summary": "a b c d e", "input": "v w x y z",
             "architecture": "H", "test_dataset": "d"},
        ]
        for name, lines, expected in (
            ("copy", copy_lines, 0.0),
            ("disjoint", disjoint_lines, 100.0),
        ):
            path = write_jsonl(tmp_path / f"{name}.jsonl", lines)
            out = tmp_path / f"out_{name}"
            assert main(["abstractiveness", str(path), "--output-dir", str(out)]) == 0
            rows = read_csv(out / "abstractiveness.csv")
            assert [int(r["n"]) for r in rows] == [1, 2, 3, 4]
            assert all(float(r["percent_novel"]) == expected for r in rows)

    def test_mixed_fixture_hand_counts(self, tmp_path):
        lines = [
            {"id": "r1", "summary": "a b c d", "input": "a b x y",
             "architecture": "H", "test_dataset": "d"},
            {"id": "r2", "summary": "a b", "input": "a b",
             "architecture": "H", "test_dataset": "d"},
            {"id": "r3", "summary": "q", "input": "z",
             "architecture": "H", "test_dataset": "d"},
            {"id": "r4", "summary": "", "input": "a",
             "architecture": "H", "test_dataset": "d"},
        ]
        path = write_jsonl(tmp_path / "mixed.jsonl", lines)
        out = tmp_path / "out"
        assert main(["abstractiveness", str(path), "--output-dir", str(out)]) == 0
        rows = {int(r["n"]): float(r["percent_novel"]) for r in read_csv(out / "abstractiveness.csv")}
        assert rows[1] == pytest.approx(300 / 7)
        assert rows[2] == pytest.approx(50.0)

    def test_missing_inputs_exit_1_with_ids(self, tmp_path, capsys):
        lines = [
            {"id": "has", "summary": "a b", "input": "a b", "architecture": "H", "test_dataset": "d"},
            {"id": "lacks", "summary": "c d", "architecture": "H", "test_dataset": "d"},
        ]
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        code = main(["abstractiveness", str(path), "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert "lacks" in capsys.readouterr().err


class TestRegress:
    def _synthetic(self, tmp_path, rng, n=1200):
        # known coefficients on the design the CLI will build; the response
        # is stored per record by planting scores via summary construction
        # is impossible, so regression inputs here are real pipeline scores
        archs = ["Human", "BART"]
        datasets = ["CNN/DailyMail", "XSum"]
        lines = []
        for i in range(n):
            arch = archs[int(rng.integers(2))]
            train = None if arch == "Human" else datasets[int(rng.integers(2))]
            test = datasets[int(rng.integers(2))]
            length = int(rng.integers(5, 40))
            obj = {
                "id": f"s{i}",
                "summary": " ".join(f"tok{rng.integers(0, 5000)}" for _ in range(length)),
                "architecture": arch,
                "test_dataset": test,
            }
            if train is not None:
                obj["train_dataset"] = train
            lines.append(obj)
        return write_jsonl(tmp_path / "synth.jsonl", lines)

    def test_regress_writes_fit_and_lr(self, fixture_corpora, tmp_path):
        out = tmp_path / "out"
        assert main(["regress", *fixture_corpora, "--output-dir", str(out)]) == 0
        fit_rows = read_csv(out / "regression_coefficients.csv")
        predictors = [r["predictor"] for r in fit_rows]
        assert predictors[0] == "Intercept"
        assert "BART" in predictors
        assert "XSum - XSum" in predictors
        lr = json.loads((out / "lr_test.json").read_text())
        assert set(lr) == {"statistic", "df", "p_value", "reject"}
        nested_rows = read_csv(out / "regression_nested.csv")
        assert len(nested_rows) < len(fit_rows)
        columns = json.loads((out / "design_columns.json").read_text())
        assert columns["columns"] == predictors
        assert columns["nested_columns"] == [r["predictor"] for r in nested_rows]

    def test_no_interactions_flag(self, fixture_corpora, tmp_path):
        out = tmp_path / "out"
        assert main(["regress", *fixture_corpora, "--no-interactions",
                     "--output-dir", str(out)]) == 0
        assert not (out / "lr_test.json").exists()
        assert not (out / "regression_nested.csv").exists()
        predictors = [r["predictor"] for r in read_csv(out / "regression_coefficients.csv")]
        assert not any(" - " in p for p in predictors)
        columns = json.loads((out / "design_columns.json").read_text())
        assert columns["nested_columns"] is None

    @pytest.mark.parametrize("command", ["regress", "report-all"])
    def test_no_interaction_columns_skips_lr_test(self, tmp_path, command):
        # every record tests on the reference test set, so no train x test
        # column exists and the nested design equals the full one
        combos = [("Human", None), ("BART", "CNN/DailyMail"), ("BART", "XSum")]
        lines = []
        for i in range(12):
            arch, train = combos[i % len(combos)]
            obj = {"id": f"s{i}", "summary": " ".join(f"w{i}x{j}" for j in range(3 + i % 5)),
                   "input": f"source text {i}", "architecture": arch,
                   "test_dataset": "CNN/DailyMail"}
            if train:
                obj["train_dataset"] = train
            lines.append(obj)
        path = write_jsonl(tmp_path / "one_test_set.jsonl", lines)
        out = tmp_path / "o"
        assert main([command, str(path), "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["notes"] == [
            "no train x test interaction columns in the design; LR test skipped"
        ]
        assert not list(out.glob("regression_nested.*"))
        assert not (out / "lr_test.json").exists()
        columns = json.loads((out / "design_columns.json").read_text())
        assert columns["nested_columns"] is None
        assert columns["columns"] == [
            "Intercept", "Summary length (z)", "BART", "Train XSum"
        ]

    def test_single_architecture_missing_reference_exits_2(self, tmp_path, capsys):
        lines = [
            {"id": f"s{i}", "summary": f"one two three four five w{i}",
             "architecture": "BART", "train_dataset": "CNN/DailyMail",
             "test_dataset": "CNN/DailyMail"}
            for i in range(6)
        ]
        path = write_jsonl(tmp_path / "only_bart.jsonl", lines)
        code = main(["regress", str(path), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "reference architecture" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_uninhabited_interaction_exits_2_naming_column(self, tmp_path, capsys):
        path = write_uninhabited_interaction(tmp_path)
        out = tmp_path / "o"
        code = main(["regress", str(path), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'XSum - XSum'" in err[0], err
        assert not out.exists()

    def test_colliding_column_names_exit_2_naming_column(self, tmp_path, capsys):
        # architecture "Train XSum" and train dataset "XSum" both name a column "Train XSum"
        combos = [("Human", None, "CNN/DailyMail"), ("Human", None, "XSum"),
                  ("Train XSum", "CNN/DailyMail", "CNN/DailyMail"),
                  ("BART", "XSum", "CNN/DailyMail"), ("BART", "XSum", "XSum")]
        lines = []
        for i in range(40):
            arch, train, test = combos[i % len(combos)]
            obj = {"id": f"s{i}", "summary": " ".join(f"w{i}x{j}" for j in range(3 + i % 7)),
                   "architecture": arch, "test_dataset": test}
            if train:
                obj["train_dataset"] = train
            lines.append(obj)
        path = write_jsonl(tmp_path / "clash.jsonl", lines)
        out = tmp_path / "o"
        assert main(["regress", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'Train XSum'" in err[0], err
        assert "rank deficient" not in err[0]
        assert not out.exists()

    def test_pipeline_score_regression_recovers_known_shift(self, tmp_path):
        # two groups: BART summaries share a stock phrase, humans do not;
        # the fitted BART coefficient must pick up the induced repetition gap
        rng = np.random.default_rng(11)
        lines = []
        for i in range(400):
            human = i % 2 == 0
            length = int(rng.integers(8, 30))
            words = [f"u{i}_{j}" for j in range(length)]
            if not human:
                words[2:6] = ["sign", "up", "for", "alerts"]
            obj = {
                "id": f"s{i}",
                "summary": " ".join(words),
                "architecture": "Human" if human else "BART",
                "test_dataset": "CNN/DailyMail",
            }
            if not human:
                obj["train_dataset"] = "CNN/DailyMail"
            lines.append(obj)
        path = write_jsonl(tmp_path / "groups.jsonl", lines)
        out = tmp_path / "out"
        assert main(["regress", str(path), "--output-dir", str(out)]) == 0
        rows = {r["predictor"]: r for r in read_csv(out / "regression_coefficients.csv")}
        bart_coef = float(rows["BART"]["coef"])
        # every BART summary holds one 4-gram shared by all 200 of them
        assert bart_coef == pytest.approx(math.log(201), abs=1e-8)
        assert float(rows["BART"]["p_value"]) < 1e-10


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"min_n": 5, "output_formats": ["csv"]}))
        lines = [
            {"id": "s1", "summary": "a b c d e", "architecture": "H", "test_dataset": "d"},
            {"id": "s2", "summary": "a b c d x", "architecture": "H", "test_dataset": "d"},
        ]
        path = write_jsonl(tmp_path / "toy.jsonl", lines)
        out1 = tmp_path / "out1"
        assert main(["score", str(path), "--config", str(config_path),
                     "--output-dir", str(out1)]) == 0
        # min_n 5: the shared 4-gram does not count
        assert float(read_csv(out1 / "dataset_scores.csv")[0]["score"]) == 0.0
        assert not (out1 / "dataset_scores.md").exists()
        out2 = tmp_path / "out2"
        assert main(["score", str(path), "--config", str(config_path), "--min-n", "4",
                     "--output-dir", str(out2)]) == 0
        assert float(read_csv(out2 / "dataset_scores.csv")[0]["score"]) == 1.0

    def test_manifest_config_round_trips(self, fixture_corpora, tmp_path):
        out = tmp_path / "out"
        assert main(["score", *fixture_corpora, "--output-dir", str(out),
                     "--min-n", "5", "--eq1-mode", "maximal_only"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        reloaded = AnalysisConfig.from_dict(manifest["config"])
        assert reloaded.min_n == 5
        assert reloaded.eq1_mode == "maximal_only"
        assert reloaded.output_dir == str(out)
        assert reloaded == AnalysisConfig.from_dict(reloaded.to_dict())
        assert {entry["path"] for entry in manifest["inputs"]} == set(fixture_corpora)
        assert all(len(entry["sha256"]) == 64 for entry in manifest["inputs"])
        # the manifest's config block, fed back as a config file, reproduces
        # the manifest byte for byte
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(manifest["config"]))
        first = (out / "run_manifest.json").read_bytes()
        assert main(["score", *fixture_corpora, "--config", str(config_path)]) == 0
        assert (out / "run_manifest.json").read_bytes() == first

        changed = AnalysisConfig(
            tokenizer=TokenizerConfig(case_fold=False, punctuation_mode="attached"),
            min_n=5,
            eq1_mode="maximal_only",
            abstractiveness_ns=(2, 3),
            regression=RegressionSpec(
                reference_architecture="BART",
                reference_train="XSum",
                reference_test="XSum",
                include_interactions=False,
                confidence_level=0.9,
                lr_critical_value=0.01,
                human_train_from_test=True,
            ),
            output_dir="elsewhere",
            output_formats=("csv", "json"),
        )
        default = AnalysisConfig()
        for section in (None, "tokenizer", "regression"):
            ours = getattr(changed, section) if section else changed
            theirs = getattr(default, section) if section else default
            for field in dataclasses.fields(ours):
                assert getattr(ours, field.name) != getattr(theirs, field.name), field.name
        assert AnalysisConfig.from_dict(changed.to_dict()) == changed
        assert AnalysisConfig.from_dict(json.loads(json.dumps(changed.to_dict()))) == changed

    def test_default_manifest_config_pinned(self, tmp_path, monkeypatch):
        # bench/digests.json skips run_manifest.json, so the config's JSON
        # form is pinned here: the hash for the default config written to
        # the relative --output-dir "reports"
        monkeypatch.chdir(tmp_path)
        write_jsonl(tmp_path / "toy.jsonl", [
            {"id": "s1", "summary": "a b c d", "architecture": "Human", "test_dataset": "d"},
        ])
        assert main(["score", "toy.jsonl", "--output-dir", "reports"]) == 0
        manifest = json.loads((tmp_path / "reports" / "run_manifest.json").read_text())
        assert manifest["config_sha256"] == (
            "46c2c2785f833ad5b3a65e2b7a4a2ac610e911679fe68ae65a7341de00fadd8e"
        )

    @pytest.mark.parametrize("config, key", [
        ({"tokenizer": 5}, "tokenizer"),
        ({"regression": []}, "regression"),
        ({"regression": {"include_interactions": "false"}}, "include_interactions"),
        ({"tokenizer": {"case_fold": "no"}}, "case_fold"),
        ({"min_nn": 7}, "'min_nn'"),
        ({"regression": {"confidence": 0.9}}, "'confidence'"),
        ({"min_n": 4.0}, "min_n"),
        ({"min_n": True}, "min_n"),
        ({"abstractiveness_ns": [1.5]}, "abstractiveness_ns"),
        ({"abstractiveness_ns": [True, 2]}, "abstractiveness_ns"),
        ({"output_formats": "csv"}, "output_formats"),
        ({"abstractiveness_ns": [2, 2]}, "abstractiveness_ns"),
        ({"output_formats": ["csv", "csv"]}, "output_formats"),
        ({"output_dir": "o\u0000x"}, "output_dir"),
        ({"eq1_mode": "some"}, "eq1_mode"),
        ({"output_dir": 5}, "output_dir"),
        ({"regression": {"reference_train": 3}}, "reference_train"),
        ({"regression": {"confidence_level": "high"}}, "confidence_level"),
        ({"regression": {"confidence_level": 1.5}}, "confidence_level"),
        ({"regression": {"lr_critical_value": 0}}, "lr_critical_value"),
    ])
    def test_malformed_config_exits_1_naming_key(
        self, fixture_corpora, tmp_path, capsys, config, key
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["report-all", *fixture_corpora, "--config", str(config_path),
                     "--output-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1 and key in error_lines[0], err
        assert "Traceback" not in err
        assert not out.exists()

    def test_failed_run_leaves_no_stale_manifest(self, fixture_corpora, tmp_path):
        out = tmp_path / "o"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        only_bart = write_jsonl(tmp_path / "only_bart.jsonl", [
            {"id": f"s{i}", "summary": f"one two three four five w{i}",
             "architecture": "BART", "train_dataset": "CNN/DailyMail",
             "test_dataset": "CNN/DailyMail"}
            for i in range(6)
        ])
        for failing, code in ((["score", str(bad)], 1), (["regress", str(only_bart)], 2)):
            assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 0
            assert (out / "run_manifest.json").exists()
            assert main([*failing, "--output-dir", str(out)]) == code
            assert not (out / "run_manifest.json").exists()

    def test_invalid_config_file_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        code = main(["score", "whatever.jsonl", "--config", str(config_path)])
        assert code == 1
        assert "config" in capsys.readouterr().err

    def test_config_that_is_a_directory_exits_1(self, fixture_corpora, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.mkdir()
        out = tmp_path / "out"
        code = main(["score", *fixture_corpora, "--config", str(config_path),
                     "--output-dir", str(out)])
        assert code == 1
        assert f"{config_path}: cannot open config" in single_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"min_n": 3, "output_formats": ["csv\xff"]}', "config is not valid UTF-8"),
        (b'{"min_n": ' + b"1" * 5000 + b"}", "invalid JSON in config"),
        (b"[" * 100_000, "invalid JSON in config"),
    ], ids=["not_utf8", "huge_int", "deep_nest"])
    def test_unreadable_config_exits_1(self, fixture_corpora, tmp_path, capsys, content, message):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        out = tmp_path / "out"
        code = main(["score", *fixture_corpora, "--config", str(config_path),
                     "--output-dir", str(out)])
        assert code == 1
        assert f"config.json: {message}" in single_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_tokenizer_flags(self, tmp_path):
        lines = [
            {"id": "s1", "summary": "Alpha Beta Gamma Delta", "architecture": "H",
             "test_dataset": "d"},
            {"id": "s2", "summary": "alpha beta gamma delta", "architecture": "H",
             "test_dataset": "d"},
        ]
        path = write_jsonl(tmp_path / "toy.jsonl", lines)
        out1 = tmp_path / "fold"
        assert main(["score", str(path), "--output-dir", str(out1)]) == 0
        assert float(read_csv(out1 / "dataset_scores.csv")[0]["score"]) == 1.0
        out2 = tmp_path / "nofold"
        assert main(["score", str(path), "--no-tokenizer-case-fold",
                     "--output-dir", str(out2)]) == 0
        assert float(read_csv(out2 / "dataset_scores.csv")[0]["score"]) == 0.0

    def test_bad_formats_flag_exits_1(self, tmp_path, capsys):
        code = main(["score", "x.jsonl", "--formats", "csv,yaml"])
        assert code == 1
        assert "yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["summary_lengths.csv", ".summary_lengths.csv.tmp"])
    def test_unwritable_report_leaves_earlier_tree_whole(
        self, fixture_corpora, tmp_path, capsys, name
    ):
        out = tmp_path / "out"
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 0
        blocked = out / name
        blocked.unlink(missing_ok=True)
        blocked.mkdir()
        earlier = {p.name: p.read_bytes() for p in out.iterdir()
                   if p.is_file() and p.name != "run_manifest.json"}
        capsys.readouterr()
        assert main(["score", fixture_corpora[0], "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert str(blocked) in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == earlier
        assert blocked.is_dir()
        assert not any(p.name.endswith(".tmp") for p in out.iterdir() if p != blocked)


class TestPublishing:
    """Texts and paths that no report may take, and writes that fail: each
    run exits 1 with one ``error:`` line and leaves no new report, no
    manifest and no temporary file behind."""

    LINES = [
        {"id": f"s{i}", "summary": "sign up for our daily briefing", "architecture": "A",
         "test_dataset": "d"}
        for i in (1, 2)
    ]

    @pytest.mark.parametrize("corpus_name, config", [
        (os.fsdecode(b"c\xff.jsonl"), "{}"),
        ("c.jsonl", '{"regression": {"reference_architecture": "B\\ud800"}}'),
    ], ids=["corpus_name_not_utf8", "lone_surrogate_in_config"])
    def test_text_utf8_cannot_encode_exits_1(self, tmp_path, capsys, corpus_name, config):
        corpus = write_jsonl(tmp_path / corpus_name, self.LINES)
        config_path = tmp_path / "config.json"
        config_path.write_text(config)
        out = tmp_path / "out"
        assert main(["score", str(corpus), "--config", str(config_path),
                     "--output-dir", str(out)]) == 1
        assert "which UTF-8 cannot encode" in single_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, corpora, config", [
        ("repeats", ["repeats.jsonl"], None),
        ("report-all", ["x.jsonl", "repeats_x.jsonl"], None),
        ("score", ["run_manifest.json"], None),
        ("repeats", [".repeats.jsonl.tmp"], None),
        ("score", ["x.jsonl"], "dataset_scores.json"),
        ("repeats", ["x.jsonl"], "run_manifest.json"),
    ], ids=["repeats-corpora0", "report-all-corpora1", "score-corpora2",
            "repeats-staging_name", "score-config_is_report", "repeats-config_is_manifest"])
    def test_output_that_is_an_input_exits_1(self, tmp_path, capsys, command, corpora, config):
        paths = [str(write_jsonl(tmp_path / name, self.LINES)) for name in corpora]
        flags = []
        if config is not None:
            (tmp_path / config).write_text('{"min_n": 4}')
            flags = ["--config", str(tmp_path / config)]
        before = dir_snapshot(tmp_path)
        assert main([command, *paths, *flags, "--output-dir", str(tmp_path)]) == 1
        named = flags[-1] if flags else paths[-1]
        assert single_error_line(capsys.readouterr().err).startswith(
            f"error: {named}: output is an input file"
        )
        assert dir_snapshot(tmp_path) == before

    @pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard_link"])
    def test_output_linked_to_an_input_exits_1(self, tmp_path, capsys, link):
        corpus = write_jsonl(tmp_path / "x.jsonl", self.LINES)
        original = corpus.read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        link(corpus, out / "repeats_x.jsonl")
        assert main(["report-all", str(corpus), "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err).startswith(
            f"error: {out / 'repeats_x.jsonl'}: output is an input file"
        )
        assert corpus.read_bytes() == original
        assert sorted(p.name for p in out.iterdir()) == ["repeats_x.jsonl"]

    def test_staging_failure_leaves_earlier_reports_whole(
        self, fixture_corpora, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 0
        earlier = {name: blob for name, blob in dir_snapshot(out).items()
                   if name != "run_manifest.json"}
        write_bytes = Path.write_bytes
        staged = []

        def disk_full_on_third_file(path, data):
            staged.append(path)
            if len(staged) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full_on_third_file)
        capsys.readouterr()
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {out / 'summary_scores_bart_xsum.csv'}: cannot write report: "
            "No space left on device"
        ], err
        # no staged file and no manifest is left, and each earlier report is as it was
        assert dir_snapshot(out) == earlier

    def test_manifest_that_is_a_directory_exits_1(self, fixture_corpora, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "run_manifest.json").mkdir(parents=True)
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err) == (
            f"error: {out / 'run_manifest.json'}: cannot remove the old manifest: Is a directory"
        )
        assert os.listdir(out) == ["run_manifest.json"]


class TestReportAll:
    def test_load_failure_after_a_noted_corpus_prints_only_the_error(self, tmp_path, capsys):
        noinput = write_jsonl(tmp_path / "noinput.jsonl", [
            {"id": f"s{i}", "summary": "a b c d e f", "architecture": "Human",
             "test_dataset": "d"} for i in (1, 2)
        ])
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{broken\n")
        out = tmp_path / "out"
        assert main(["report-all", str(noinput), str(broken), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "broken.jsonl:1" in single_error_line(err) and "note:" not in err
        assert not out.exists()

    def test_failed_publish_prints_only_the_error(self, tmp_path, capsys):
        # the corpus has no inputs, so the run has a note to print, but the
        # note belongs to a run that published its reports
        noinput = write_jsonl(tmp_path / "noinput.jsonl", [
            {"id": f"s{i}", "summary": "a b c d e f", "architecture": "Human",
             "test_dataset": "d"} for i in (1, 2)
        ])
        out = tmp_path / "out"
        (out / "dataset_scores.csv").mkdir(parents=True)
        assert main(["report-all", str(noinput), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert single_error_line(err) == (
            f"error: {out / 'dataset_scores.csv'}: cannot write report: Is a directory"
        )
        assert "note:" not in err

    @pytest.mark.parametrize("command", ["regress", "report-all"])
    def test_first_and_third_failures_named_in_order(self, fixture_corpora, tmp_path, capsys,
                                                     monkeypatch, command):
        def no_index(*args):
            raise AssertionError("a corpus was indexed after a load failed")

        monkeypatch.setattr(repscope.cli, "build_repetition_index", no_index)
        missing = tmp_path / "missing.jsonl"
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{broken\n")
        argv = [command, str(missing), fixture_corpora[0], str(broken)]
        assert main([*argv, "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: cannot open")
        assert err.index("missing.jsonl") < err.index("broken.jsonl:1")
        assert err.count("error:") == 1 and "note:" not in err

    def test_produces_every_report_family(self, fixture_corpora, tmp_path):
        out = tmp_path / "out"
        assert main(["report-all", *fixture_corpora, "--output-dir", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "dataset_scores.csv" in names
        assert "summary_scores_humans.csv" in names
        assert "repeats_bart_xsum.jsonl" in names
        assert "abstractiveness_humans.csv" in names
        assert "regression_coefficients.csv" in names
        assert "lr_test.json" in names
        assert "run_manifest.json" in names

    def test_single_corpus_commands_match_report_all(self, fixture_corpora, tmp_path):
        flags = ["--with-ids", "--limit", "7"]
        all_out = tmp_path / "all"
        assert main(["report-all", *fixture_corpora, *flags, "--output-dir", str(all_out)]) == 0
        for path in fixture_corpora:
            name = Path(path).stem
            for command, extra in (("repeats", flags), ("abstractiveness", [])):
                out = tmp_path / f"{command}_{name}"
                assert main([command, path, *extra, "--output-dir", str(out)]) == 0
                written = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
                assert len(written) == 3, written
                for filename in written:
                    stem, ext = filename.split(".")
                    twin = all_out / f"{stem}_{name}.{ext}"
                    assert (out / filename).read_bytes() == twin.read_bytes(), filename
        # score's and regress's reports of the pooled corpora bear report-all's names
        everything = dir_snapshot(all_out)
        for command, count in (("score", 8), ("regress", 6)):
            out = tmp_path / command
            assert main([command, *fixture_corpora, "--output-dir", str(out)]) == 0
            written = dir_snapshot(out)
            del written["run_manifest.json"]
            assert len(written) == count, sorted(written)
            assert written == {name: everything.get(name) for name in written}

    def test_repeats_example_is_the_summary_as_written(self, tmp_path):
        # the example cell quotes the summary itself: not its tokens joined,
        # which lose case, split edge punctuation and fold the line break,
        # and not its paired input
        summaries = {
            "s1": "\u201cSign Up for our FREE daily briefing,\u201d said "
                  "Z\u00fcrich\u2019s editor.\nMore to follow\u2026",
            "s2": "Sign up for our free daily briefing \u2014 Caf\u00e9 news, d\u00e9j\u00e0 vu.",
            "s3": "Nothing else repeats here.",
        }
        lines = [
            {"id": rid, "summary": text, "input": f"The source behind {rid}.",
             "architecture": "Human", "test_dataset": "d"}
            for rid, text in summaries.items()
        ]
        out = tmp_path / "out"
        path = write_jsonl(tmp_path / "quoted.jsonl", lines)
        assert main(["report-all", str(path), "--output-dir", str(out)]) == 0
        rows = read_csv(out / "repeats_quoted.csv")
        assert {row["ngram"] for row in rows} >= {"sign up for our", "our free daily briefing"}
        for row in rows:
            assert row["example"].encode() == summaries[row["example_id"]].encode()

    @pytest.mark.parametrize("inputs", [(None, None), ("a b c", None)],
                             ids=["no_record_has_input", "one_record_lacks_input"])
    def test_abstractiveness_skipped_without_inputs(self, tmp_path, capsys, inputs):
        lines = [
            {"id": "s1", "summary": "a b c d e f", "architecture": "Human", "test_dataset": "d"},
            {"id": "s2", "summary": "a b c d x y", "architecture": "Human", "test_dataset": "d"},
        ]
        for line, text in zip(lines, inputs):
            if text is not None:
                line["input"] = text
        path = write_jsonl(tmp_path / "noinput.jsonl", lines)
        out = tmp_path / "out"
        assert main(["report-all", str(path), "--output-dir", str(out)]) == 0
        assert not list(out.glob("abstractiveness_noinput.*"))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["notes"][0] == (
            "abstractiveness skipped for 'noinput': records lack paired inputs"
        )
        assert any("regression skipped" in note for note in manifest["notes"])


# Runs the commands that do not fit, then regress, in one fresh interpreter,
# and prints after each phase the scipy modules imported and how many times
# the LAPACK wrappers were loaded. The fit loads the wrappers' file alone, so
# no phase imports a scipy module.
SCIPY_CHILD = """
import json, sys
from repscope.cli import main
from repscope.regression import _lapack

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                  or m.endswith("_flapack"))

corpora = sys.argv[1:]
for argv in (["score", *corpora], ["repeats", corpora[0]], ["abstractiveness", corpora[0]]):
    assert main([*argv, "--output-dir", "out"]) == 0, argv
print(json.dumps([scipy_modules(), _lapack.cache_info().currsize]))
assert main(["regress", *corpora, "--output-dir", "out"]) == 0
print(json.dumps([scipy_modules(), _lapack.cache_info().currsize]))
"""


# Fits in one fresh interpreter, then prints the OpenBLAS thread setting and
# the process's thread count (-1 where /proc/self/task does not exist).
BLAS_CHILD = """
import os, sys
from repscope.cli import main

assert main(["regress", *sys.argv[1:], "--output-dir", "out"]) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1)
"""


class TestStartup:
    def test_only_fitting_loads_scipy(self, fixture_corpora, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_CHILD, *fixture_corpora],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        before_fit, after_fit = map(json.loads, proc.stdout.splitlines())
        assert before_fit == [[], 0] and after_fit == [[], 1]
        # the child's fit is the one ols_fit makes here, where scipy.linalg is loaded
        config = AnalysisConfig()
        records, scores = [], []
        for path in fixture_corpora:
            corpus = load_corpus(path, config.tokenizer)
            index = build_repetition_index(corpus, config.min_n)
            records += corpus.records
            scores += [summary_repetition_score(r, index, mode=config.eq1_mode).score
                       for r in corpus.records]
        fit = ols_fit(build_design_matrix(records, scores, config.regression))
        written = (tmp_path / "out" / "regression_coefficients.csv").read_bytes()
        assert written == reports.fit_csv(fit).encode("utf-8")

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_openblas_threads_default_to_one(self, fixture_corpora, tmp_path, preset, expected):
        # conftest imports repscope, so this session's environment already
        # carries the setting: drop it so the child starts without one
        env = child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD, *fixture_corpora],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        setting, threads = proc.stdout.split()
        assert setting == expected
        if preset is None and threads != "-1":
            assert threads == "1"


class TestFitInProcess:
    """regress and report-all fit in this process: no command forks, and a
    fault of the fit reaches the caller as raised."""

    @pytest.mark.parametrize("command", ["regress", "report-all"])
    def test_no_child_process(self, fixture_corpora, tmp_path, monkeypatch, command):
        out = tmp_path / "o"
        assert main([command, *fixture_corpora, "--output-dir", str(out)]) == 0
        normal = dir_snapshot(out)

        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        assert main([command, *fixture_corpora, "--output-dir", str(out)]) == 0
        assert dir_snapshot(out) == normal
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_the_wrapper_file_the_fit_imports_scipy_linalg(
        self, fixture_corpora, tmp_path, monkeypatch
    ):
        import scipy.linalg.lapack

        out = tmp_path / "o"
        assert main(["regress", *fixture_corpora, "--output-dir", str(out)]) == 0
        normal = dir_snapshot(out)
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_flapack(name, path=None, target=None):
            return None if name == "_flapack" else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_flapack)
        # a fresh cache, so that the loaded wrappers come back after the test
        lapack = functools.cache(repscope.regression._lapack.__wrapped__)
        monkeypatch.setattr(repscope.regression, "_lapack", lapack)
        assert main(["regress", *fixture_corpora, "--output-dir", str(out)]) == 0
        assert lapack() is scipy.linalg.lapack
        assert dir_snapshot(out) == normal

    def test_rank_deficient_regress(self, tmp_path, capsys):
        path = write_uninhabited_interaction(tmp_path)
        assert main(["regress", str(path), "--output-dir", str(tmp_path / "o")]) == 2
        line = single_error_line(capsys.readouterr().err)
        assert line.startswith("error: design matrix is rank deficient") and "'XSum - XSum'" in line

    def test_rank_deficient_report_all(self, tmp_path):
        path = write_uninhabited_interaction(tmp_path)
        out = tmp_path / "o"
        assert main(["report-all", str(path), "--output-dir", str(out)]) == 0
        notes = json.loads((out / "run_manifest.json").read_text())["notes"]
        skipped = [n for n in notes if n.startswith("regression skipped: design matrix is rank")]
        assert len(skipped) == 1 and "'XSum - XSum'" in skipped[0], notes

    def test_missing_second_corpus(self, fixture_corpora, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        argv = ["regress", fixture_corpora[0], missing, "--output-dir", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "missing.jsonl" in single_error_line(capsys.readouterr().err)

    def test_factor_fault_reaches_caller(self, fixture_corpora, tmp_path, monkeypatch):
        class LocalError(Exception):
            pass

        def failing(X, y):
            raise LocalError("factor failed")

        monkeypatch.setattr(repscope.regression, "_factor", failing)
        with pytest.raises(LocalError, match="^factor failed$"):
            main(["regress", *fixture_corpora, "--output-dir", str(tmp_path / "o")])


class TestFitMemory:
    """Each corpus is loaded and indexed once, one corpus is held at a time,
    and report-all reads the index only through the rows it prints."""

    @pytest.mark.parametrize("command", ["score", "regress", "report-all"])
    def test_one_corpus_held_at_a_time(self, fixture_corpora, tmp_path, monkeypatch, command):
        made = {"load_corpus": [], "build_repetition_index": []}
        alive_at_load = []

        def weakly_kept(name, fn):
            def wrapped(*args, **kwargs):
                if name == "load_corpus":
                    gc.collect()
                    alive_at_load.append([sum(ref() is not None for ref in refs)
                                          for refs in made.values()])
                result = fn(*args, **kwargs)
                made[name].append(weakref.ref(result))
                return result
            return wrapped

        for name in made:
            monkeypatch.setattr(repscope.cli, name, weakly_kept(name, getattr(repscope.cli, name)))
        assert main([command, *fixture_corpora, "--output-dir", str(tmp_path / "out")]) == 0
        # the earlier corpora and indexes alive when each corpus is loaded
        assert alive_at_load == [[0, 0]] * len(fixture_corpora)

    def test_report_all_never_builds_entries(self, fixture_corpora, tmp_path, monkeypatch):
        indexes = []
        build = repscope.cli.build_repetition_index

        def kept(*args, **kwargs):
            indexes.append(build(*args, **kwargs))
            return indexes[-1]

        monkeypatch.setattr(repscope.cli, "build_repetition_index", kept)
        assert main(["report-all", *fixture_corpora, "--output-dir", str(tmp_path / "out")]) == 0
        assert len(indexes) == len(fixture_corpora)
        assert all("entries" not in vars(index) for index in indexes)

    @pytest.mark.parametrize("command", ["regress", "report-all"])
    def test_each_corpus_loaded_and_indexed_once_for_two_fits(
        self, fixture_corpora, tmp_path, monkeypatch, command
    ):
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("load_corpus", "build_repetition_index", "ols_fit"):
            monkeypatch.setattr(repscope.cli, name, counted(name, getattr(repscope.cli, name)))
        assert main([command, *fixture_corpora, "--output-dir", str(tmp_path / "out")]) == 0
        n = len(fixture_corpora)
        # each corpus is indexed before the next one loads; the full and the nested fit
        assert calls == ["load_corpus", "build_repetition_index"] * n + ["ols_fit"] * 2
