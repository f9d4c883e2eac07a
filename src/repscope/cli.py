"""Command line front end: score / repeats / abstractiveness / regress / report-all.

Every command reads JSON-Lines corpora, writes reports into --output-dir,
and drops a run manifest (config hash, input digests, tool version) beside
them. The reports are collected during the run and published at its end,
the manifest last, so a run that fails leaves the earlier reports whole and
no manifest. Reports are deterministic: rerunning a command on identical
inputs with an identical config reproduces every file byte for byte.

Exit codes: 0 success, 1 input error, 2 analysis error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import OUTPUT_FORMATS, AnalysisConfig, load_config
from .corpus import Corpus, TokenizerConfig, load_corpus
from .errors import AnalysisError, InputError
from .metrics import (
    SCORE_MODES,
    abstractiveness,
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

    p = sub.add_parser("score", parents=[common], help="dataset and per-summary repetition scores")
    p.add_argument("corpora", nargs="+", metavar="CORPUS")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "repeats", parents=[common, repeat_flags], help="most widely shared n-grams"
    )
    p.add_argument("corpus", metavar="CORPUS")
    p.set_defaults(func=cmd_repeats)

    p = sub.add_parser(
        "abstractiveness",
        parents=[common],
        help="percent of summary n-grams absent from paired inputs",
    )
    p.add_argument("corpus", metavar="CORPUS")
    p.set_defaults(func=cmd_abstractiveness)

    p = sub.add_parser(
        "regress",
        parents=[common, regress_flags],
        help="regress per-summary scores on architecture, datasets, and length",
    )
    p.add_argument("corpora", nargs="+", metavar="CORPUS")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser(
        "report-all",
        parents=[common, repeat_flags, regress_flags],
        help="run every applicable report for the given corpora",
    )
    p.add_argument("corpora", nargs="+", metavar="CORPUS")
    p.set_defaults(func=cmd_report_all)

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


def _remove_manifest(path: Path) -> None:
    """Delete an earlier run's manifest, so that a run that fails leaves none
    listing files it did not write; ``_Run.finish`` writes the new one last."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise InputError(f"{path}: cannot remove the old manifest: {exc.strerror or exc}") from exc


class _Run:
    """Collects the report texts of one invocation; ``finish`` publishes them."""

    def __init__(self, command: str, config: AnalysisConfig, input_paths: list[str]):
        self.command = command
        self.config = config
        self.input_paths = input_paths
        self.output_dir = Path(config.output_dir)
        self.files: dict[str, str] = {}
        self.notes: list[str] = []

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

    def finish(self) -> None:
        """Stage every report as a hidden temporary file, then rename each into
        place, the manifest last. A report path that is a directory is rejected
        before anything is renamed, so a failed run leaves the earlier reports
        as they were and no manifest."""
        config_dict = self.config.to_dict()
        manifest = {
            "tool": "repscope",
            "version": __version__,
            "command": self.command,
            "config": config_dict,
            "config_sha256": reports.sha256_bytes(reports.canonical_json(config_dict).encode()),
            "inputs": [
                {"path": p, "sha256": reports.sha256_file(p)} for p in self.input_paths
            ],
            "outputs": sorted(self.files),
            "notes": self.notes,
        }
        files = {**self.files, MANIFEST: reports.canonical_json(manifest)}
        staged: list[Path] = []
        path = self.output_dir
        try:
            self.output_dir.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                path = self.output_dir / name
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                tmp = path.with_name(f".{name}.tmp")
                staged.append(tmp)
                tmp.write_text(text, encoding="utf-8")
            for name, tmp in zip(files, staged):
                path = self.output_dir / name
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


def _emit_repeats(run: _Run, corpus: Corpus, index, limit: int, min_count: int, with_ids: bool, *, suffix: str = "") -> None:
    rows = top_repeats(index, limit, min_count)
    by_id = {rec.id: rec for rec in corpus.records}
    examples = {}
    for row in rows:
        first_id = min(index.entries[row.ngram])
        examples[row.ngram] = (first_id, by_id[first_id].summary.text)
    export = "".join(line + "\n" for line in index_export_lines(index, rows, with_ids=with_ids))
    run.write(f"repeats{suffix}.jsonl", export)
    run.emit(
        f"repeats{suffix}", rows, examples,
        csv=reports.repeats_csv, markdown=reports.repeats_markdown,
    )


def _emit_abstractiveness(run: _Run, corpus: Corpus, *, suffix: str = "") -> None:
    rows = [abstractiveness(corpus, n) for n in run.config.abstractiveness_ns]
    run.emit(
        f"abstractiveness{suffix}", rows,
        csv=reports.abstractiveness_csv, markdown=reports.abstractiveness_markdown,
        json=reports.abstractiveness_json,
    )


def _emit_regression(run: _Run, corpora: list[Corpus], scored) -> None:
    records = []
    scores = []
    for corpus, (_, summaries, _) in zip(corpora, scored):
        records.extend(corpus.records)
        scores.extend(s.score for s in summaries)
    spec = run.config.regression
    design = build_design_matrix(records, scores, spec)
    fit = ols_fit(design, confidence_level=spec.confidence_level)
    run.emit("regression_coefficients", fit, csv=reports.fit_csv, markdown=reports.fit_markdown)
    columns = {"columns": list(design.column_names), "nested_columns": None}

    if spec.include_interactions:
        nested_design = build_design_matrix(
            records, scores, replace(spec, include_interactions=False)
        )
        if set(nested_design.column_names) == set(design.column_names):
            run.note(
                "no train x test interaction columns in the design; LR test skipped"
            )
        else:
            nested_fit = ols_fit(nested_design, confidence_level=spec.confidence_level)
            run.emit(
                "regression_nested", nested_fit,
                csv=reports.fit_csv, markdown=reports.fit_markdown,
            )
            lr = likelihood_ratio_test(fit, nested_fit, critical_value=spec.lr_critical_value)
            run.write("lr_test.json", reports.lr_test_json(lr))
            columns["nested_columns"] = list(nested_design.column_names)

    run.write("design_columns.json", reports.canonical_json(columns))


def cmd_score(args: argparse.Namespace, config: AnalysisConfig) -> int:
    corpora = _load_corpora(args.corpora, config.tokenizer)
    run = _Run("score", config, args.corpora)
    scored = [_score_corpus(c, config) for c in corpora]
    _emit_scores(run, corpora, scored)
    run.finish()
    return 0


def cmd_repeats(args: argparse.Namespace, config: AnalysisConfig) -> int:
    if args.limit < 1:
        raise InputError(f"--limit must be >= 1, got {args.limit}")
    corpora = _load_corpora([args.corpus], config.tokenizer)
    run = _Run("repeats", config, [args.corpus])
    index = build_repetition_index(corpora[0], config.min_n)
    _emit_repeats(run, corpora[0], index, args.limit, args.min_count, args.with_ids)
    run.finish()
    return 0


def cmd_abstractiveness(args: argparse.Namespace, config: AnalysisConfig) -> int:
    corpora = _load_corpora([args.corpus], config.tokenizer)
    run = _Run("abstractiveness", config, [args.corpus])
    _emit_abstractiveness(run, corpora[0])
    run.finish()
    return 0


def cmd_regress(args: argparse.Namespace, config: AnalysisConfig) -> int:
    corpora = _load_corpora(args.corpora, config.tokenizer)
    run = _Run("regress", config, args.corpora)
    scored = [_score_corpus(c, config) for c in corpora]
    _emit_regression(run, corpora, scored)
    run.finish()
    return 0


def cmd_report_all(args: argparse.Namespace, config: AnalysisConfig) -> int:
    if args.limit < 1:
        raise InputError(f"--limit must be >= 1, got {args.limit}")
    corpora = _load_corpora(args.corpora, config.tokenizer)
    run = _Run("report-all", config, args.corpora)
    scored = [_score_corpus(c, config) for c in corpora]
    _emit_scores(run, corpora, scored)
    for corpus, (index, _, _) in zip(corpora, scored):
        _emit_repeats(
            run, corpus, index, args.limit, args.min_count, args.with_ids,
            suffix=f"_{corpus.name}",
        )
        if all(rec.input is not None for rec in corpus.records):
            _emit_abstractiveness(run, corpus, suffix=f"_{corpus.name}")
        else:
            run.note(f"abstractiveness skipped for {corpus.name!r}: records lack paired inputs")
    try:
        _emit_regression(run, corpora, scored)
    except AnalysisError as exc:
        run.note(f"regression skipped: {exc}")
    run.finish()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = effective_config(args)
        _remove_manifest(Path(config.output_dir) / MANIFEST)
        return args.func(args, config)
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
