import csv
import dataclasses
import errno
import functools
import gc
import hashlib
import importlib.machinery
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
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
from repscope.ngrams import RepetitionIndex, build_repetition_index
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


@pytest.fixture(autouse=True)
def no_child_left():
    """Every path through ``main`` reaps the workers it forked."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class CallLog:
    """Calls recorded in a file with the pid of the process that made them,
    so that a test sees the calls of the forked workers too."""

    def __init__(self, path: Path):
        self.path = path
        path.touch()

    def add(self, *item) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), *item]) + "\n")

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return wrapped

    def by_process(self) -> list[list]:
        """This process's calls in order, then each worker's, the workers in
        sorted order, as they run at once; a call of one item is the item
        itself."""
        calls = {os.getpid(): []}
        for line in self.path.read_text(encoding="utf-8").splitlines():
            pid, *item = json.loads(line)
            calls.setdefault(pid, []).append(item[0] if len(item) == 1 else item)
        mine, *workers = calls.values()
        return [mine, *sorted(workers)]


def shares(items: list) -> list[list]:
    """``items``, one per corpus in argument order, split as the processes
    take the corpora, in ``CallLog.by_process``'s order: with P > 1
    processes, none here, and worker k takes corpora k, k + P, ...; with P =
    1, all of them here."""
    processes = repscope.cli._processes(len(items))
    if processes == 1:
        return [items]
    return [[], *sorted(items[k::processes] for k in range(processes))]


# Runs the CLI in a fresh interpreter on two usable CPUs, so that a second
# corpus is read by a forked worker on any machine.
TWO_PROCESS_CHILD = """
import os, sys
from repscope.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(main(sys.argv[1:]))
"""


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
    def test_pipe_is_a_corpus(self, fixture_corpora, tmp_path, source):
        # a corpus is read once, so a pipe can be one; it is the second of
        # two corpora on two processes, so a forked worker reads it. A child
        # process, so that a run which never reads the pipe fails the test
        # rather than hanging it
        data = Path(fixture_corpora[1]).read_bytes()
        writer = None
        if source == "named_pipe":
            corpus = str(tmp_path / "pipe.jsonl")
            os.mkfifo(corpus)
            # blocks until the run opens the pipe
            writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', fixture_corpora[1], corpus])
        else:
            corpus = "/dev/stdin"
        out = tmp_path / "out"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", TWO_PROCESS_CHILD, "score", fixture_corpora[0], corpus,
                 "--output-dir", str(out)],
                input=data if writer is None else None, env=child_env(), capture_output=True,
                timeout=60,
            )
        finally:
            if writer is not None:
                writer.kill()
                writer.wait()
        assert proc.returncode == 0, proc.stderr
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        assert inputs == [
            {"path": fixture_corpora[0],
             "sha256": hashlib.sha256(Path(fixture_corpora[0]).read_bytes()).hexdigest()},
            {"path": corpus, "sha256": hashlib.sha256(data).hexdigest()},
        ]
        from_file = tmp_path / "from_file"
        assert main(["score", fixture_corpora[1], "--output-dir", str(from_file)]) == 0
        assert (out / f"summary_scores_{Path(corpus).stem}.csv").read_bytes() == (
            from_file / "summary_scores_bart_cnn.csv"
        ).read_bytes()

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
        digest = hashlib.sha256(Path(fixture_corpora[0]).read_bytes()).hexdigest()
        assert inputs == [{"path": "/dev/stdin", "sha256": digest}]

    @pytest.mark.parametrize("change", ["unchanged", "removed", "appended", "same_size"])
    def test_manifest_digest_is_of_the_bytes_loaded(self, fixture_corpora, tmp_path,
                                                    monkeypatch, change):
        # every byte is hashed, blank lines, \r\n line ends and a last line
        # without \n included, and only the bytes the load read: a change
        # after the load, even a same-size rewrite that keeps the file's
        # inode, size and modification time, does not reach the manifest
        lines = Path(fixture_corpora[0]).read_bytes().splitlines()
        original = b"\r\n".join([lines[0], b"", b" \t", *lines[1:]])
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(original)
        load = repscope.cli.load_corpus

        def load_then_change(path, *args):
            corpus = load(path, *args)
            if change == "removed":
                os.remove(path)
            elif change == "appended":
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"id": "late", "summary": "a", "architecture": "A",
                                         "test_dataset": "d"}) + "\n")
            elif change == "same_size":
                st = os.stat(path)
                with open(path, "r+b") as fh:
                    fh.write(original[::-1])
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
            return corpus

        monkeypatch.setattr(repscope.cli, "load_corpus", load_then_change)
        out = tmp_path / "out"
        assert main(["score", str(path), "--output-dir", str(out)]) == 0
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        assert inputs == [{"path": str(path), "sha256": hashlib.sha256(original).hexdigest()}]

    def test_directory_as_corpus_exits_1(self, fixture_corpora, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["score", fixture_corpora[0], "--output-dir", str(out)]) == 0
        corpus = tmp_path / "dir.jsonl"
        corpus.mkdir()
        assert main(["score", str(corpus), "--output-dir", str(out)]) == 1
        assert single_error_line(capsys.readouterr().err) == (
            f"error: {corpus}: cannot open: Is a directory"
        )
        # failed at its load, after the old manifest was removed
        assert not (out / "run_manifest.json").exists()

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

    def test_duplicate_corpus_names_rejected(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        lines = [{"id": "s1", "summary": "a", "architecture": "A", "test_dataset": "d"}]
        write_jsonl(a / "same.jsonl", lines)
        write_jsonl(b / "same.jsonl", lines)
        out = tmp_path / "o"
        assert main(["score", str(a / "same.jsonl"), "--output-dir", str(out)]) == 0
        earlier = dir_snapshot(out)
        assert "run_manifest.json" in earlier
        # refused from the paths alone: no corpus is read, and the earlier
        # run's manifest and reports stay
        loads = []
        monkeypatch.setattr(repscope.cli, "load_corpus", lambda *args: loads.append(args))
        for command in ("score", "regress", "report-all"):
            code = main([command, str(a / "same.jsonl"), str(b / "same.jsonl"),
                         "--output-dir", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert single_error_line(err) == (
                "error: corpus files must have distinct names, duplicated: 'same'"
            )
            assert "note:" not in err
        assert loads == []
        assert dir_snapshot(out) == earlier


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
        log = CallLog(tmp_path / "calls.jsonl")
        load, build = repscope.cli.load_corpus, repscope.cli.build_repetition_index

        def logged_load(path, *args):
            log.add("load", str(path))
            try:
                return load(path, *args)
            except repscope.cli.InputError:
                log.add("failed", str(path))
                raise

        def logged_build(corpus, *args):
            log.add("index", corpus.name)
            return build(corpus, *args)

        monkeypatch.setattr(repscope.cli, "load_corpus", logged_load)
        monkeypatch.setattr(repscope.cli, "build_repetition_index", logged_build)
        missing = tmp_path / "missing.jsonl"
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{broken\n")
        corpora = [str(missing), fixture_corpora[0], str(broken), *fixture_corpora[1:]]
        assert main([command, *corpora, "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: cannot open")
        assert err.index("missing.jsonl") < err.index("broken.jsonl:1")
        assert err.count("error:") == 1 and "note:" not in err
        # every corpus is loaded once, by the process it is dealt to, and no
        # process indexes a corpus after one of its own loads failed
        calls = log.by_process()
        loads = [[name for kind, name in seq if kind == "load"] for seq in calls]
        assert [loads[0], *sorted(loads[1:])] == shares(corpora)
        for seq in calls:
            kinds = [kind for kind, _ in seq]
            if "failed" in kinds:
                assert "index" not in kinds[kinds.index("failed"):], seq

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
    """regress and report-all fit in this process, and a fault of the fit
    reaches the caller as raised."""

    @pytest.mark.parametrize("command", ["regress", "report-all"])
    def test_no_child_process(self, fixture_corpora, tmp_path, monkeypatch, command):
        # where os.fork does not exist, this process takes every corpus and
        # writes the same reports
        out = tmp_path / "o"
        assert main([command, *fixture_corpora, "--output-dir", str(out)]) == 0
        normal = dir_snapshot(out)
        log = CallLog(tmp_path / "calls.jsonl")
        monkeypatch.setattr(repscope.cli, "load_corpus", log.wrap("load_corpus", load_corpus))
        monkeypatch.delattr(os, "fork")
        assert main([command, *fixture_corpora, "--output-dir", str(out)]) == 0
        assert dir_snapshot(out) == normal
        assert log.by_process() == [["load_corpus"] * len(fixture_corpora)]

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


# What each command computes per corpus, in its step of ``_each_corpus``
COMPUTED = {
    "score": {"build_repetition_index", "summary_repetition_score",
              "dataset_repetition_score", "length_statistics"},
    "repeats": {"build_repetition_index", "top_repeats"},
    "abstractiveness": {"abstractiveness_rows"},
    "regress": {"build_repetition_index", "summary_repetition_score", "build_design_matrix"},
    "report-all": {"build_repetition_index", "summary_repetition_score",
                   "dataset_repetition_score", "length_statistics", "top_repeats",
                   "abstractiveness_rows", "build_design_matrix"},
}


def command_corpora(command: str, fixture_corpora: list[str]) -> list[str]:
    """The corpora a test runs ``command`` on: repeats and abstractiveness
    take the first one alone."""
    return fixture_corpora[:1] if command in ("repeats", "abstractiveness") else fixture_corpora


class TestFitMemory:
    """Each corpus is loaded and indexed once, each process holds one corpus
    at a time, every command, through the one driver, computes only what its
    reports read, and report-all reads the index only through the rows it
    prints. The calls are logged with their pid, as workers make some."""

    @pytest.mark.parametrize("command", list(COMPUTED))
    def test_one_corpus_held_at_a_time(self, fixture_corpora, tmp_path, monkeypatch, command):
        # each process keeps weak references to what it made; a worker's
        # copy of ``made`` is empty at the fork, which comes before any load
        made = {"load_corpus": [], "build_repetition_index": []}
        log = CallLog(tmp_path / "calls.jsonl")

        def weakly_kept(name, fn):
            def wrapped(*args, **kwargs):
                if name == "load_corpus":
                    gc.collect()
                    log.add([sum(ref() is not None for ref in refs) for refs in made.values()])
                result = fn(*args, **kwargs)
                made[name].append(weakref.ref(result))
                return result
            return wrapped

        for name in made:
            monkeypatch.setattr(repscope.cli, name, weakly_kept(name, getattr(repscope.cli, name)))
        corpora = command_corpora(command, fixture_corpora)
        assert main([command, *corpora, "--output-dir", str(tmp_path / "out")]) == 0
        # the earlier corpora and indexes of its own process alive when each
        # corpus is loaded
        assert log.by_process() == shares([[0, 0]] * len(corpora))

    @pytest.mark.parametrize("command", list(COMPUTED))
    def test_each_command_computes_only_what_its_reports_read(
        self, fixture_corpora, tmp_path, monkeypatch, command
    ):
        log = CallLog(tmp_path / "calls.jsonl")
        for name in COMPUTED["report-all"]:
            monkeypatch.setattr(repscope.cli, name, log.wrap(name, getattr(repscope.cli, name)))
        corpora = command_corpora(command, fixture_corpora)
        assert main([command, *corpora, "--output-dir", str(tmp_path / "out")]) == 0
        assert {name for calls in log.by_process() for name in calls} == COMPUTED[command]

    def test_one_corpus_step_fault_reaches_caller_unchanged(
        self, fixture_corpora, tmp_path, monkeypatch
    ):
        # repeats runs its one corpus in this process, through the same driver
        raised = []

        def failing(corpus, *args):
            raised.append(WorkerFault(f"fault in {corpus.name}"))
            raise raised[-1]

        monkeypatch.setattr(repscope.cli, "build_repetition_index", failing)
        with pytest.raises(WorkerFault, match="^fault in humans$") as caught:
            main(["repeats", fixture_corpora[0], "--output-dir", str(tmp_path / "o")])
        assert caught.value is raised[0] and len(raised) == 1
        assert not (tmp_path / "o").exists()

    def test_report_all_never_builds_entries(self, fixture_corpora, tmp_path, monkeypatch):
        log = CallLog(tmp_path / "calls.jsonl")
        entries = RepetitionIndex.__dict__["entries"]

        def logged_entries(index):
            log.add("entries")
            return entries.__get__(index, RepetitionIndex)

        monkeypatch.setattr(RepetitionIndex, "entries", property(logged_entries))
        monkeypatch.setattr(repscope.cli, "build_repetition_index",
                            log.wrap("build", repscope.cli.build_repetition_index))
        assert main(["report-all", *fixture_corpora, "--output-dir", str(tmp_path / "out")]) == 0
        assert log.by_process() == shares(["build"] * len(fixture_corpora))

    @pytest.mark.parametrize("command", ["regress", "report-all"])
    def test_each_corpus_loaded_and_indexed_once_for_two_fits(
        self, fixture_corpora, tmp_path, monkeypatch, command
    ):
        log = CallLog(tmp_path / "calls.jsonl")
        for name in ("load_corpus", "build_repetition_index", "ols_fit"):
            monkeypatch.setattr(repscope.cli, name, log.wrap(name, getattr(repscope.cli, name)))
        assert main([command, *fixture_corpora, "--output-dir", str(tmp_path / "out")]) == 0
        # in each process, each corpus is indexed before the next one loads;
        # this process makes the full and the nested fit
        split = shares([["load_corpus", "build_repetition_index"]] * len(fixture_corpora))
        expected = [sum(share, []) for share in split]
        expected[0] += ["ols_fit"] * 2
        assert log.by_process() == expected


class WorkerFault(Exception):
    """Raised on purpose in a worker; defined at module level, so it pickles."""


def two_cpus(monkeypatch):
    """Two usable CPUs, so the corpora are shared by two forked workers on
    any machine: one takes corpora 0, 2, 4, ..., the other 1, 3, 5, ...,
    and this process none."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


# Runs report-all in one fresh interpreter, with os.fork wrapped to count its
# calls, then prints the forks and the process's thread count.
FORK_CHILD = """
import os, sys
from repscope.cli import main

forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
assert main(["report-all", *sys.argv[1:], "--output-dir", "out"]) == 0
print(len(forks), len(os.listdir("/proc/self/task")))
"""


# Runs score on two workers in one fresh interpreter that kills itself when
# it first waits for a worker to exit, after reading the first worker's
# result, so the second worker, which writes its pid to worker.pid, is left
# with a result larger than a pipe holds and no process to read it.
ORPHAN_CHILD = """
import os, signal, sys
import repscope.cli as cli

os.sched_getaffinity = lambda pid: {0, 1}
me, load = os.getpid(), cli.load_corpus

def die(*args):
    os.kill(me, signal.SIGKILL)

def load_and_tell(path, *args):
    if path == sys.argv[2]:
        with open("worker.pid", "w") as fh:
            fh.write(str(os.getpid()))
    return load(path, *args)

os.waitpid = die
cli.load_corpus = load_and_tell
cli.main(["score", *sys.argv[1:], "--output-dir", "out"])
"""


class TestWorkers:
    """With more than one usable CPU, every command deals its corpora out to
    one forked worker per usable CPU, at most one per corpus, and this
    process only merges, fits and publishes; the run reads as a run in one
    process. score, regress and report-all take several corpora, so these
    tests run them."""

    def test_tier1_takes_the_worker_path(self, fixture_corpora, tmp_path, monkeypatch):
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert main(["report-all", *fixture_corpora, "--output-dir", str(tmp_path / "o")]) == 0
        expected = min(len(os.sched_getaffinity(0)), len(fixture_corpora))
        assert repscope.cli._processes(len(fixture_corpora)) == expected
        assert len(forks) == (expected if expected > 1 else 0)

    @pytest.mark.parametrize("command", ["score", "regress", "report-all"])
    def test_trees_match_one_process(self, fixture_corpora, tmp_path, monkeypatch, capsys,
                                     command):
        # five corpora, two without inputs: report-all notes come from both
        # processes, and the test set "d" makes the design rank deficient,
        # which regress exits 2 for and report-all notes
        noinput = [
            str(write_jsonl(tmp_path / f"noinput{k}.jsonl", [
                {"id": f"s{i}", "summary": f"a b c d e f {k} {i}", "architecture": "Human",
                 "test_dataset": "d"} for i in range(3)
            ])) for k in (1, 2)
        ]
        corpora = [fixture_corpora[0], noinput[0], *fixture_corpora[1:], noinput[1]]
        runs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            # the same relative --output-dir, so that the manifests match too
            work = tmp_path / f"cpus{len(cpus)}"
            work.mkdir()
            monkeypatch.chdir(work)
            code = main([command, *corpora, "--output-dir", "out"])
            tree = dir_snapshot(work / "out") if code == 0 else None
            runs.append((code, tree, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (2 if command == "regress" else 0)
        if command == "report-all":
            assert runs[0][2].err.count("note:") == 3

    @pytest.mark.parametrize("command", ["score", "report-all"])
    def test_load_failures_in_both_shares_named_in_order(self, fixture_corpora, tmp_path,
                                                         monkeypatch, capsys, command):
        missing = [str(tmp_path / f"missing{k}.jsonl") for k in (1, 2)]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{broken\n")
        # one worker: humans, broken, missing2; the other: missing1, bart_cnn, bart_xsum
        corpora = [fixture_corpora[0], missing[0], str(broken), fixture_corpora[1],
                   missing[1], fixture_corpora[2]]
        two_cpus(monkeypatch)
        assert main([command, *corpora, "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {missing[0]}: cannot open: No such file or directory\n"
                       f"{broken}:1: invalid JSON: Expecting property name enclosed in "
                       "double quotes\n"
                       f"{missing[1]}: cannot open: No such file or directory\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fails_first", [False, True], ids=["raised", "after_load_failure"])
    def test_worker_exception_reaches_caller(self, fixture_corpora, tmp_path, monkeypatch,
                                             capsys, fails_first):
        # bart_cnn is a worker's; an exception is raised only if no corpus
        # before it failed to load
        build = repscope.cli.build_repetition_index

        def failing(corpus, *args):
            if corpus.name == "bart_cnn":
                raise WorkerFault(f"fault in {corpus.name} (pid {os.getpid()})")
            return build(corpus, *args)

        monkeypatch.setattr(repscope.cli, "build_repetition_index", failing)
        two_cpus(monkeypatch)
        missing = str(tmp_path / "missing.jsonl")
        first = missing if fails_first else fixture_corpora[0]
        argv = ["report-all", first, *fixture_corpora[1:], "--output-dir", str(tmp_path / "o")]
        if fails_first:
            assert main(argv) == 1
            assert single_error_line(capsys.readouterr().err) == (
                f"error: {missing}: cannot open: No such file or directory"
            )
        else:
            with pytest.raises(WorkerFault, match="^fault in bart_cnn") as raised:
                main(argv)
            assert f"(pid {os.getpid()})" not in str(raised.value)
        assert not (tmp_path / "o").exists()

    def test_worker_fault_keeps_its_traceback(self, fixture_corpora, tmp_path, monkeypatch):
        # pickle drops an exception's traceback: its text comes back as the
        # cause; bart_cnn is read in a worker at any split of two processes
        build = repscope.cli.build_repetition_index

        def fault_in_step(corpus, *args):
            if corpus.name == "bart_cnn":
                raise WorkerFault(f"fault in {corpus.name}")
            return build(corpus, *args)

        monkeypatch.setattr(repscope.cli, "build_repetition_index", fault_in_step)
        two_cpus(monkeypatch)
        with pytest.raises(WorkerFault, match="^fault in bart_cnn$") as raised:
            main(["report-all", *fixture_corpora, "--output-dir", str(tmp_path / "o")])
        cause = str(raised.value.__cause__)
        assert re.search(r'File ".*", line \d+, in fault_in_step\n', cause), cause
        assert cause.rstrip('"\n').endswith("WorkerFault: fault in bart_cnn")
        assert not (tmp_path / "o").exists()

    def test_this_process_loads_no_corpus_and_fits(self, fixture_corpora, tmp_path,
                                                   monkeypatch):
        log = CallLog(tmp_path / "calls.jsonl")
        for name in ("load_corpus", "build_repetition_index", "summary_repetition_score",
                     "ols_fit"):
            monkeypatch.setattr(repscope.cli, name, log.wrap(name, getattr(repscope.cli, name)))
        two_cpus(monkeypatch)
        assert main(["report-all", *fixture_corpora, "--output-dir", str(tmp_path / "o")]) == 0
        mine, *workers = log.by_process()
        assert mine == ["ols_fit", "ols_fit"]
        assert len(workers) == 2
        assert sorted(w.count("load_corpus") for w in workers) == [1, 2]

    def test_killed_worker_fails_the_run(self, fixture_corpora, tmp_path, monkeypatch):
        out = tmp_path / "o"
        assert main(["score", *fixture_corpora, "--output-dir", str(out)]) == 0
        before = dir_snapshot(out)
        load = repscope.cli.load_corpus

        def killed_in_worker(path, *args):
            if path == fixture_corpora[1]:
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path, *args)

        monkeypatch.setattr(repscope.cli, "load_corpus", killed_in_worker)
        two_cpus(monkeypatch)
        with pytest.raises(ChildProcessError, match=(
            rf"^the worker for {re.escape(fixture_corpora[1])} ended without a result "
            rf"\(wait status {signal.SIGKILL}\)$"
        )):
            main(["score", *fixture_corpora, "--output-dir", str(out)])
        del before["run_manifest.json"]
        assert dir_snapshot(out) == before

    def test_interrupt_kills_and_reaps_the_workers(self, fixture_corpora, tmp_path,
                                                   monkeypatch):
        # the second worker would sleep through the test: the interrupt here,
        # where this process waits for the first worker to exit, must kill it
        load, waitpid = repscope.cli.load_corpus, os.waitpid
        waits = []

        def sleepy(path, *args):
            if path == fixture_corpora[1]:
                time.sleep(60)
            return load(path, *args)

        def interrupted(*args):
            waits.append(args)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return waitpid(*args)

        monkeypatch.setattr(repscope.cli, "load_corpus", sleepy)
        monkeypatch.setattr(os, "waitpid", interrupted)
        two_cpus(monkeypatch)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["score", *fixture_corpora, "--output-dir", str(tmp_path / "o")])
        assert time.monotonic() - t0 < 30

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc/self/task, and two CPUs for OpenBLAS threads")
    def test_openblas_threads_mean_one_process(self, fixture_corpora, tmp_path):
        # with OpenBLAS threads running, a fork would copy one thread alone
        outputs = []
        for threads in ("2", "1"):
            env = dict(child_env(), OPENBLAS_NUM_THREADS=threads)
            work = tmp_path / f"threads{threads}"
            work.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", FORK_CHILD, *fixture_corpora],
                cwd=work, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            forks, tasks = map(int, proc.stdout.split())
            outputs.append((dir_snapshot(work / "out"), proc.stderr))
            if threads == "2":
                assert (forks, tasks > 1) == (0, True)
            else:
                assert (forks, tasks) == (min(len(os.sched_getaffinity(0)), 3), 1)
        assert outputs[0] == outputs[1]

    def test_worker_exits_when_this_process_dies(self, fixture_corpora, tmp_path):
        # a summary_scores file of more than 64 KiB, more than a pipe holds
        big = write_jsonl(tmp_path / "big.jsonl", [
            {"id": f"s{i}", "summary": "a b c d e", "architecture": "A", "test_dataset": "d"}
            for i in range(5000)
        ])
        proc = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_CHILD, fixture_corpora[0], str(big)],
            cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            # the worker shares the pipes, so they close only when it exits
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.kill(int((tmp_path / "worker.pid").read_text()), signal.SIGKILL)
            proc.communicate()
            raise
        assert proc.returncode == -signal.SIGKILL, err
        assert (tmp_path / "worker.pid").exists() and not (tmp_path / "out").exists()
