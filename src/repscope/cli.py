"""Command line front end: score / repeats / abstractiveness / regress / report-all.

Every command reads JSON-Lines corpora, writes reports into --output-dir,
and drops a run manifest (config hash, input digests, tool version) beside
them. The reports are collected during the run and published at its end,
the manifest last, so a run that fails leaves the earlier reports whole and
no manifest; a usage error exits before the old manifest is removed.
Reports are deterministic: rerunning a command on identical inputs with an
identical config reproduces every file byte for byte. ``score``,
``regress`` and ``report-all`` share one step that loads and scores the
corpora (``_scored``). ``regress`` and ``report-all`` then pool the scores
of every corpus into one regression, fitted in this process: only that fit
loads scipy's LAPACK wrappers (``regression._factor``), and no command
forks.

Exit codes: 0 success, 1 input error, 2 analysis error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import OUTPUT_FORMATS, AnalysisConfig, load_config
from .corpus import Corpus, TokenizerConfig, load_corpus
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


def _load_corpora(paths: list[str], tokenizer: TokenizerConfig) -> list[Corpus]:
    corpora: list[Corpus] = []
    failures: list[str] = []
    for path in paths:
        try:
            corpora.append(load_corpus(path, tokenizer))
        except InputError as exc:
            failures.append(str(exc))
    if failures:
        raise InputError("\n".join(failures))
    names = [c.name for c in corpora]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise InputError(
            "corpus files must have distinct names, duplicated: "
            + ", ".join(repr(d) for d in dupes)
        )
    return corpora


def _score_corpus(corpus: Corpus, config: AnalysisConfig):
    # Corpora are scored one at a time: scoring is pure Python, so threads
    # would only contend for the GIL.
    index = build_repetition_index(corpus, config.min_n)
    summaries = [
        summary_repetition_score(rec, index, mode=config.eq1_mode) for rec in corpus.records
    ]
    dataset = dataset_repetition_score(corpus, index)
    return index, summaries, dataset


def _scored(run: _Run, args: argparse.Namespace):
    """The corpora, loaded, and each one's index, summary scores and
    dataset score."""
    corpora = _load_corpora(args.corpora, run.config.tokenizer)
    return corpora, [_score_corpus(c, run.config) for c in corpora]


def _stat(path) -> os.stat_result | None:
    """``os.stat(path)``, following links; None if it fails, which
    ``os.path.exists`` reads as no file."""
    try:
        return os.stat(path)
    except OSError:
        return None


def _digest(corpus: str) -> str:
    """The manifest's sha256 of a corpus, read again after its load."""
    try:
        return reports.sha256_file(corpus)
    except OSError as exc:
        raise InputError(f"{corpus}: cannot read it again for its digest: "
                         f"{exc.strerror or exc}") from exc


class _Run:
    """Collects the report texts of one invocation; ``finish`` publishes them.
    It is the only code that touches ``--output-dir``, and it never writes or
    removes a file the run reads: a corpus or the ``--config`` file. Each
    corpus is read twice, once to load it and once for its digest, so a
    corpus that is not a regular file is refused before it is opened."""

    def __init__(
        self, command: str, config: AnalysisConfig, corpora: list[str], config_path: str | None
    ):
        self.command = command
        self.config = config
        self.corpora = corpora
        inputs = {p: _stat(p) for p in (*corpora, config_path) if p}
        for path in corpora:
            if inputs[path] is not None and not stat.S_ISREG(inputs[path].st_mode):
                raise InputError(
                    f"{path}: not a regular file; a corpus is read twice, "
                    "to load it and for its digest"
                )
        # the (st_dev, st_ino) pairs ``os.path.samefile`` compares, taken once
        # here so that checking an output costs one stat, whatever the inputs
        self.read_ids = {(st.st_dev, st.st_ino) for st in inputs.values() if st is not None}
        self.output_dir = Path(config.output_dir)
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
        print(f"note: {message}", file=sys.stderr)

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
        and hidden staging path, before the directory is made: a path that
        is an input or a directory is refused. Then stage each report and
        rename each into place, the manifest last. So a failed run leaves
        the earlier reports as they were and no manifest."""
        data = {name: self._encode(name, text) for name, text in self.files.items()}
        config_dict = self.config.to_dict()
        config_json = self._encode(MANIFEST, reports.canonical_json(config_dict))
        manifest = {
            "tool": "repscope",
            "version": __version__,
            "command": self.command,
            "config": config_dict,
            "config_sha256": reports.sha256_bytes(config_json),
            "inputs": [{"path": p, "sha256": _digest(p)} for p in self.corpora],
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


def _emit_scores(run: _Run, corpora: list[Corpus], scored) -> None:
    run.emit(
        "dataset_scores", [dataset for (_, _, dataset) in scored],
        csv=reports.dataset_scores_csv, markdown=reports.dataset_scores_markdown,
        json=reports.dataset_scores_json,
    )
    rows = [(corpus.name, length_statistics(corpus)) for corpus in corpora]
    run.emit("summary_lengths", rows, csv=reports.lengths_csv, markdown=reports.lengths_markdown)
    for corpus, (_, summaries, _) in zip(corpora, scored):
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


def _emit_regression(run: _Run, corpora: list[Corpus], scored) -> None:
    """Fit the scores of every corpus pooled and, when interactions are on,
    compare the fit with the nested one without them by the LR test."""
    records = []
    scores = []
    for corpus, (_, summaries, _) in zip(corpora, scored):
        records.extend(corpus.records)
        scores.extend(s.score for s in summaries)
    spec = run.config.regression
    # the nested design's columns are a subset of this one's, so building it
    # after the full fit raises no error that this build would not raise first
    design = build_design_matrix(records, scores, spec)
    fit = ols_fit(design, confidence_level=spec.confidence_level)
    run.emit("regression_coefficients", fit, csv=reports.fit_csv, markdown=reports.fit_markdown)
    columns = {"columns": list(design.column_names), "nested_columns": None}

    if spec.include_interactions:
        nested = build_design_matrix(records, scores, replace(spec, include_interactions=False))
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


# Report bodies: each loads the corpora and writes its reports into ``run``;
# ``main`` publishes them.
def cmd_score(run: _Run, args: argparse.Namespace) -> None:
    _emit_scores(run, *_scored(run, args))


def cmd_repeats(run: _Run, args: argparse.Namespace) -> None:
    (corpus,) = _load_corpora(args.corpora, run.config.tokenizer)
    _emit_repeats(run, corpus, build_repetition_index(corpus, run.config.min_n), args)


def cmd_abstractiveness(run: _Run, args: argparse.Namespace) -> None:
    (corpus,) = _load_corpora(args.corpora, run.config.tokenizer)
    _emit_abstractiveness(run, corpus)


def cmd_regress(run: _Run, args: argparse.Namespace) -> None:
    _emit_regression(run, *_scored(run, args))


def cmd_report_all(run: _Run, args: argparse.Namespace) -> None:
    corpora, scored = _scored(run, args)
    _emit_scores(run, corpora, scored)
    for corpus, (index, _, _) in zip(corpora, scored):
        _emit_repeats(run, corpus, index, args, suffix=f"_{corpus.name}")
        try:
            _emit_abstractiveness(run, corpus, suffix=f"_{corpus.name}")
        except MissingPairedInputError:
            run.note(f"abstractiveness skipped for {corpus.name!r}: records lack paired inputs")
    try:
        _emit_regression(run, corpora, scored)
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
