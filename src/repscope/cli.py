"""Command line front end: score / repeats / abstractiveness / regress / report-all.

Every command reads JSON-Lines corpora, writes reports into --output-dir,
and drops a run manifest (config hash, input digests, tool version) beside
them. The reports are collected during the run and published at its end,
the manifest last, so a run that fails leaves the earlier reports whole and
no manifest; a usage error, such as two corpora of one name, exits before
the old manifest is removed and before any corpus is read. Each corpus is
read once: its load hashes the bytes it reads, and the manifest records
that digest, so a pipe can be a corpus. Reports are deterministic:
rerunning a command on identical inputs with an identical config
reproduces every file byte for byte. Every command runs its corpora
through one driver, ``_each_corpus``: the corpora are dealt out in argument
order to one process per usable CPU, this one first and the others forked
once per run (one corpus, as ``repeats`` and ``abstractiveness`` take, runs
here), and each process takes its corpora one at a time: it loads each one
and runs the command's own step on it, which renders that corpus's reports
and keeps only what the command's cross-corpus reports read, before the
next load. This process merges what every process made in argument order,
so reports, notes and errors are those of a run in one process. ``regress``
and ``report-all`` then fit the pooled scores on each record's labels in
one regression, in this process: only that fit loads scipy's LAPACK
wrappers (``regression._factor``).

Exit codes: 0 success, 1 input error, 2 analysis error.
"""

from __future__ import annotations

import argparse
import copy
import os
import pickle
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, NoReturn

from . import __version__
from .config import OUTPUT_FORMATS, AnalysisConfig, load_config
from .corpus import Corpus, load_corpus
from .errors import AnalysisError, InputError, MissingPairedInputError
from .metrics import (
    SCORE_MODES,
    abstractiveness_rows,
    dataset_repetition_score,
    length_statistics,
    summary_repetition_score,
)
from .ngrams import build_repetition_index, index_export_lines, top_repeats
from .regression import build_design_matrix, likelihood_ratio_test, ols_fit
from . import reports

MANIFEST = "run_manifest.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repscope",
        description="Quantify cross-output self-repetition in summarizer corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file; flags override it")
    common.add_argument("--output-dir", metavar="DIR", help="directory for report files")
    common.add_argument(
        "--formats",
        metavar="LIST",
        help=f"comma-separated subset of {','.join(OUTPUT_FORMATS)}",
    )
    common.add_argument("--min-n", type=int, metavar="N", help="minimum repeating n-gram length")
    common.add_argument(
        "--eq1-mode",
        choices=SCORE_MODES,
        help="count all repeating n-gram types or only maximal ones",
    )
    common.add_argument(
        "--tokenizer-case-fold",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="lowercase text before tokenizing",
    )
    common.add_argument(
        "--tokenizer-punctuation",
        choices=("split", "attached"),
        help="split leading/trailing punctuation into separate tokens, or keep attached",
    )

    repeat_flags = argparse.ArgumentParser(add_help=False)
    repeat_flags.add_argument("--limit", type=int, default=50, help="max rows in the report")
    repeat_flags.add_argument(
        "--min-count", type=int, default=2, help="smallest containing-summary count to report"
    )
    repeat_flags.add_argument(
        "--with-ids", action="store_true", help="include containing summary ids in the export"
    )

    regress_flags = argparse.ArgumentParser(add_help=False)
    regress_flags.add_argument(
        "--no-interactions",
        action="store_true",
        help="fit without train x test interaction terms (skips the LR test)",
    )
    regress_flags.add_argument(
        "--confidence", type=float, metavar="LEVEL", help="confidence level for intervals"
    )

    sub = parser.add_subparsers(dest="command", required=True)
    # name, flags beyond the common ones, how many corpora, report body, help
    for name, flags, count, body, help_text in (
        ("score", [], "+", cmd_score, "dataset and per-summary repetition scores"),
        ("repeats", [repeat_flags], 1, cmd_repeats, "most widely shared n-grams"),
        ("abstractiveness", [], 1, cmd_abstractiveness,
         "percent of summary n-grams absent from paired inputs"),
        ("regress", [regress_flags], "+", cmd_regress,
         "regress per-summary scores on architecture, datasets, and length"),
        ("report-all", [repeat_flags, regress_flags], "+", cmd_report_all,
         "run every applicable report for the given corpora"),
    ):
        p = sub.add_parser(name, parents=[common, *flags], help=help_text)
        p.add_argument("corpora", nargs=count, metavar="CORPUS")
        p.set_defaults(func=body)

    return parser


def effective_config(args: argparse.Namespace) -> AnalysisConfig:
    """The config file (or the defaults) with every flag given applied."""
    config = load_config(args.config) if args.config else AnalysisConfig()
    formats = None
    if args.formats is not None:
        formats = tuple(sorted({f.strip() for f in args.formats.split(",") if f.strip()}))
    interactions = False if getattr(args, "no_interactions", False) else None
    try:
        return _replace_given(
            config,
            tokenizer=_replace_given(
                config.tokenizer,
                case_fold=args.tokenizer_case_fold,
                punctuation_mode=args.tokenizer_punctuation,
            ),
            regression=_replace_given(
                config.regression,
                include_interactions=interactions,
                confidence_level=getattr(args, "confidence", None),
            ),
            min_n=args.min_n,
            eq1_mode=args.eq1_mode,
            output_dir=args.output_dir,
            output_formats=formats,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _replace_given(obj, **changes):
    """``dataclasses.replace`` with the changes whose flag was given (not None)."""
    return replace(obj, **{k: v for k, v in changes.items() if v is not None})


def _entry(run: _Run, path: str, step, load_only: bool):
    """Load one corpus and, unless ``load_only``, run ``step`` on it with a
    part of ``run`` that collects its reports alone. Give the corpus's
    digest, that part's reports and notes, and what ``step`` returned; or,
    for a load failure, its message."""
    try:
        corpus = load_corpus(path, run.config.tokenizer)
    except InputError as exc:
        return str(exc)
    if load_only:
        return None
    part = run.part()
    value = step(part, corpus)
    return corpus.sha256, part.files, part.notes, value


def _share(run: _Run, paths: list[str], step) -> list:
    """``_entry`` of each path in turn, one corpus held at a time, or the
    exception its step raised. After the first load failure or exception of
    the share, the rest are only loaded, to name their own failures."""
    entries = []
    for path in paths:
        load_only = any(not isinstance(e, tuple) for e in entries)
        try:
            entries.append(_entry(run, path, step, load_only))
        except Exception as exc:  # raised by ``_each_corpus`` unless a load failed before it
            entries.append(exc)
    return entries


def _processes(count: int) -> int:
    """How many processes share ``count`` corpora: one per usable CPU, at most
    one per corpus. One where the process cannot fork, or runs a second OS
    thread (an OpenBLAS worker, say), which a fork would not copy."""
    try:
        if not hasattr(os, "fork") or len(os.listdir("/proc/self/task")) > 1:
            return 1
        return max(1, min(len(os.sched_getaffinity(0)), count))
    except (AttributeError, OSError):  # no sched_getaffinity, or no /proc
        return 1


def _work(run: _Run, paths: list[str], step, fd: int) -> NoReturn:
    """A forked worker's whole life: run its share, send the entries pickled
    through ``fd``, and exit without returning into the caller, with status 0
    only once they are sent."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            pickle.dump(_share(run, paths, step), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _each_corpus(run: _Run, step) -> list:
    """Load each corpus and run the command's ``step(part, corpus)`` on it,
    where ``part`` is a copy of ``run`` that collects that corpus's reports
    and notes; record each digest, merge each part into ``run``, and return
    what the steps returned, in argument order.

    The corpora are shared among ``_processes`` processes: corpus i goes to
    process i mod P, and process 0 is this one, so the split, and what a
    traced run counts here, is the same in every run. Each other process is
    forked once and runs its share in order, one corpus at a time. This
    process runs its own share, then reads each worker's entries and reaps
    it; on any exception it kills and reaps every worker left. The entries
    are merged in argument order as one process would have made them: every
    corpus that fails to load is named in one ``InputError``, an exception
    is raised only if no corpus before it failed to load, and after a load
    failure the later corpora only name their own. A worker that ends
    without its entries raises ``ChildProcessError``. ``_Run`` has refused
    duplicate names before the first load. One corpus runs in this process."""
    paths = run.corpora
    count = _processes(len(paths))
    workers = []  # (pid, read end of its pipe, its corpora), until it is reaped
    try:
        for k in range(1, count):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                # the worker keeps no read end, or its write would block for
                # good when this process dies before reading
                os.close(read)
                for _, pipe, _ in workers:
                    pipe.close()
                _work(run, paths[k::count], step, write)  # never returns
            os.close(write)
            workers.append((pid, open(read, "rb"), paths[k::count]))
        shares = [_share(run, paths[::count], step)]
        while workers:
            pid, pipe, names = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status or not data:
                raise ChildProcessError(f"the worker for {', '.join(names)} ended "
                                        f"without a result (wait status {status})")
            shares.append(pickle.loads(data))
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    values, failures = [], []
    for i, path in enumerate(paths):
        entry = shares[i % count][i // count]
        if isinstance(entry, str):
            failures.append(entry)
        elif failures:
            continue
        elif isinstance(entry, Exception):
            raise entry
        else:
            run.digests[path], files, notes, value = entry
            run.files.update(files)
            run.notes += notes
            values.append(value)
    if failures:
        raise InputError("\n".join(failures))
    return values


def _stat(path) -> os.stat_result | None:
    """``os.stat(path)``, following links; None if it fails, which
    ``os.path.exists`` reads as no file."""
    try:
        return os.stat(path)
    except OSError:
        return None


class _Run:
    """Collects the report texts of one invocation; ``finish`` publishes them.
    It is the only code that touches ``--output-dir``, and it never writes or
    removes a file the run reads: a corpus or the ``--config`` file.

    Every check that needs only the corpus paths runs here, before the old
    manifest is removed and before any corpus is read: two corpora that
    ``load_corpus`` would give one name are refused, as their reports would
    overwrite each other. ``digests`` maps each corpus loaded to the sha256
    its load hashed, for the manifest."""

    def __init__(
        self, command: str, config: AnalysisConfig, corpora: list[str], config_path: str | None
    ):
        self.command = command
        self.config = config
        self.corpora = corpora
        names = [Path(p).stem for p in corpora]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise InputError(
                "corpus files must have distinct names, duplicated: "
                + ", ".join(repr(d) for d in dupes)
            )
        # the (st_dev, st_ino) pairs ``os.path.samefile`` compares, taken once
        # here so that checking an output costs one stat, whatever the inputs
        stats = (_stat(p) for p in (*corpora, config_path) if p)
        self.read_ids = {(st.st_dev, st.st_ino) for st in stats if st is not None}
        self.output_dir = Path(config.output_dir)
        self.digests: dict[str, str] = {}
        self.files: dict[str, str] = {}
        self.notes: list[str] = []
        # The old manifest goes first, so a run that fails leaves none
        # listing files it did not write; ``finish`` writes the new one last.
        manifest = self.output_path(MANIFEST)
        try:
            manifest.unlink(missing_ok=True)
        except OSError as exc:
            raise InputError(
                f"{manifest}: cannot remove the old manifest: {exc.strerror or exc}"
            ) from exc

    def output_path(self, name: str) -> Path:
        """``output_dir / name``; ``InputError`` if that is a file the run
        reads, since writing or removing it would destroy the input."""
        path = self.output_dir / name
        st = _stat(path)
        if st is not None and (st.st_dev, st.st_ino) in self.read_ids:
            raise InputError(f"{path}: output is an input file; choose another --output-dir")
        return path

    def part(self) -> _Run:
        """A copy of this run that collects reports and notes of its own."""
        part = copy.copy(self)
        part.files, part.notes = {}, []
        return part

    def write(self, filename: str, text: str) -> None:
        self.files[filename] = text

    def emit(self, stem: str, *args, csv=None, markdown=None, json=None) -> None:
        """Write ``stem`` with the extension of each requested format whose
        renderer is given, rendered from ``args``."""
        for fmt, ext, render in (("csv", "csv", csv), ("markdown", "md", markdown),
                                 ("json", "json", json)):
            if render is not None and fmt in self.config.output_formats:
                self.write(f"{stem}.{ext}", render(*args))

    def note(self, message: str) -> None:
        self.notes.append(message)

    def _encode(self, name: str, text: str) -> bytes:
        try:
            return text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(
                f"{self.output_dir / name}: cannot write report: its text holds "
                f"{exc.object[exc.start:exc.end]!r}, which UTF-8 cannot encode"
            ) from exc

    def finish(self) -> None:
        """Encode every report and the manifest, and check each one's final
        and hidden staging path, before the directory is made: a path that is
        an input or a directory is refused. Then stage each report, rename
        each into place, the manifest last, and print the notes. So a failed
        run prints no note and leaves the earlier reports and no manifest."""
        data = {name: self._encode(name, text) for name, text in self.files.items()}
        config_dict = self.config.to_dict()
        config_json = self._encode(MANIFEST, reports.canonical_json(config_dict))
        manifest = {
            "tool": "repscope",
            "version": __version__,
            "command": self.command,
            "config": config_dict,
            "config_sha256": reports.sha256_bytes(config_json),
            "inputs": [{"path": p, "sha256": self.digests[p]} for p in self.corpora],
            "outputs": sorted(self.files),
            "notes": self.notes,
        }
        data[MANIFEST] = self._encode(MANIFEST, reports.canonical_json(manifest))
        targets = []
        for name, blob in data.items():
            path, tmp = self.output_path(name), self.output_path(f".{name}.tmp")
            for checked in (path, tmp):
                if checked.is_dir():
                    raise InputError(f"{checked}: cannot write report: Is a directory")
            targets.append((path, tmp, blob))
        staged: list[Path] = []
        path = self.output_dir
        try:
            self.output_dir.mkdir(parents=True, exist_ok=True)
            for path, tmp, blob in targets:
                staged.append(tmp)
                tmp.write_bytes(blob)
            for path, tmp, _ in targets:
                os.replace(tmp, path)
        except OSError as exc:
            for tmp in staged:
                tmp.unlink(missing_ok=True)
            raise InputError(f"{path}: cannot write report: {exc.strerror or exc}") from exc
        for message in self.notes:
            print(f"note: {message}", file=sys.stderr)


def _index_and_scores(run: _Run, corpus: Corpus):
    """The repetition index of ``corpus`` and the Eq.1 score of each summary."""
    index = build_repetition_index(corpus, run.config.min_n)
    return index, [summary_repetition_score(rec, index, mode=run.config.eq1_mode)
                   for rec in corpus.records]


def _score_row(corpus: Corpus, index):
    """What ``_emit_scores`` reads of one corpus."""
    return dataset_repetition_score(corpus, index), (corpus.name, length_statistics(corpus))


class _Labels(NamedTuple):
    """What the fit reads of one record: ``build_design_matrix`` reads only
    these four attributes."""

    architecture: str
    train_dataset: str | None
    test_dataset: str
    length_tokens: int


def _fit_rows(corpus: Corpus, summaries):
    """What ``_emit_regression`` reads of one corpus: one label row and one
    score per record."""
    return ([_Labels(r.architecture, r.train_dataset, r.test_dataset, r.length_tokens)
             for r in corpus.records], [s.score for s in summaries])


def _emit_scores(run: _Run, rows) -> None:
    """The dataset scores and length statistics, from each corpus's ``_score_row``."""
    datasets, lengths = zip(*rows)
    run.emit(
        "dataset_scores", datasets,
        csv=reports.dataset_scores_csv, markdown=reports.dataset_scores_markdown,
        json=reports.dataset_scores_json,
    )
    run.emit("summary_lengths", lengths, csv=reports.lengths_csv, markdown=reports.lengths_markdown)


def _emit_summary_scores(run: _Run, corpus: Corpus, summaries) -> None:
    run.write(f"summary_scores_{corpus.name}.csv", reports.summary_scores_csv(summaries))


def _emit_repeats(
    run: _Run, corpus: Corpus, index, args: argparse.Namespace, *, suffix: str = ""
) -> None:
    rows = top_repeats(index, args.limit, args.min_count)
    export = "".join(line + "\n" for line in index_export_lines(rows, with_ids=args.with_ids))
    run.write(f"repeats{suffix}.jsonl", export)
    texts = {rec.id: rec.text for rec in corpus.records}
    run.emit(
        f"repeats{suffix}", rows, texts,
        csv=reports.repeats_csv, markdown=reports.repeats_markdown,
    )


def _emit_abstractiveness(run: _Run, corpus: Corpus, *, suffix: str = "") -> None:
    rows = abstractiveness_rows(corpus, run.config.abstractiveness_ns)
    run.emit(
        f"abstractiveness{suffix}", rows,
        csv=reports.abstractiveness_csv, markdown=reports.abstractiveness_markdown,
        json=reports.abstractiveness_json,
    )


def _emit_regression(run: _Run, rows) -> None:
    """Fit the pooled scores of each corpus's ``_fit_rows`` on their labels and, when
    interactions are on, compare the fit with the nested one by the LR test."""
    labels = [label for corpus_labels, _ in rows for label in corpus_labels]
    scores = [score for _, corpus_scores in rows for score in corpus_scores]
    spec = run.config.regression
    # the nested design's columns are a subset of this one's, so building it
    # after the full fit raises no error that this build would not raise first
    design = build_design_matrix(labels, scores, spec)
    fit = ols_fit(design, confidence_level=spec.confidence_level)
    run.emit("regression_coefficients", fit, csv=reports.fit_csv, markdown=reports.fit_markdown)
    columns = {"columns": list(design.column_names), "nested_columns": None}

    if spec.include_interactions:
        nested = build_design_matrix(labels, scores, replace(spec, include_interactions=False))
        if set(nested.column_names) == set(design.column_names):
            run.note(
                "no train x test interaction columns in the design; LR test skipped"
            )
        else:
            nested_fit = ols_fit(nested, confidence_level=spec.confidence_level)
            run.emit(
                "regression_nested", nested_fit,
                csv=reports.fit_csv, markdown=reports.fit_markdown,
            )
            lr = likelihood_ratio_test(fit, nested_fit, critical_value=spec.lr_critical_value)
            run.write("lr_test.json", reports.lr_test_json(lr))
            columns["nested_columns"] = list(nested.column_names)

    run.write("design_columns.json", reports.canonical_json(columns))


# Report bodies: each runs its step on every corpus through ``_each_corpus``
# and writes its reports into ``run``; ``main`` publishes them.
def cmd_score(run: _Run, args: argparse.Namespace) -> None:
    def step(part: _Run, corpus: Corpus):
        index, summaries = _index_and_scores(part, corpus)
        _emit_summary_scores(part, corpus, summaries)
        return _score_row(corpus, index)

    _emit_scores(run, _each_corpus(run, step))


def cmd_repeats(run: _Run, args: argparse.Namespace) -> None:
    _each_corpus(run, lambda part, corpus: _emit_repeats(
        part, corpus, build_repetition_index(corpus, part.config.min_n), args))


def cmd_abstractiveness(run: _Run, args: argparse.Namespace) -> None:
    _each_corpus(run, _emit_abstractiveness)


def cmd_regress(run: _Run, args: argparse.Namespace) -> None:
    def step(part: _Run, corpus: Corpus):
        return _fit_rows(corpus, _index_and_scores(part, corpus)[1])

    _emit_regression(run, _each_corpus(run, step))


def cmd_report_all(run: _Run, args: argparse.Namespace) -> None:
    def step(part: _Run, corpus: Corpus):
        index, summaries = _index_and_scores(part, corpus)
        _emit_summary_scores(part, corpus, summaries)
        _emit_repeats(part, corpus, index, args, suffix=f"_{corpus.name}")
        try:
            _emit_abstractiveness(part, corpus, suffix=f"_{corpus.name}")
        except MissingPairedInputError:
            part.note(f"abstractiveness skipped for {corpus.name!r}: records lack paired inputs")
        return _score_row(corpus, index), _fit_rows(corpus, summaries)

    score_rows, fit_rows = zip(*_each_corpus(run, step))
    _emit_scores(run, score_rows)
    try:
        _emit_regression(run, fit_rows)
    except AnalysisError as exc:
        run.note(f"regression skipped: {exc}")


def main(argv: list[str] | None = None) -> int:
    """Resolve the config, check the flags, run the command's report body
    and publish its reports."""
    args = build_parser().parse_args(argv)
    try:
        config = effective_config(args)
        # checked before ``_Run`` removes the old manifest, as the config is
        if getattr(args, "limit", 1) < 1:
            raise InputError(f"--limit must be >= 1, got {args.limit}")
        if getattr(args, "min_count", 2) < 2:
            raise InputError(f"--min-count must be >= 2, got {args.min_count}")
        run = _Run(args.command, config, args.corpora, args.config)
        args.func(run, args)
        run.finish()
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
