"""Traced run of the repscope CLI, in a process of its own.

Usage: python bench/trace_child.py SPANS_JSON -- ARGV...

Wraps the public functions the CLI calls, at the module attributes where it
looks them up, runs ``repscope.cli.main(ARGV)`` and writes the spans and
counters as JSON to SPANS_JSON. The program's own code is not edited. Each
span records name, start, end, parent, thread id, wall time and thread CPU
time (``time.thread_time``). Per-record calls are summed into one span per
parent (or per index, for Eq.1) with a call count. A function that no longer
exists is skipped; one that is never called reads 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

# (module, attribute, span name, how): how is "span" (one span per call),
# "sum" (calls summed per parent span) or "list" (a generator, consumed
# inside the span so its work is timed).
WRAPPED = [
    ("repscope.cli", "load_corpus", "corpus.load_corpus", "span"),
    ("repscope.corpus", "tokenize", "corpus.tokenize", "sum"),
    ("repscope.cli", "build_repetition_index", "ngrams.build_repetition_index", "span"),
    ("repscope.cli", "top_repeats", "ngrams.top_repeats", "span"),
    ("repscope.cli", "index_export_lines", "ngrams.index_export_lines", "list"),
    ("repscope.cli", "summary_repetition_score", "metrics.summary_repetition_score", "sum"),
    ("repscope.cli", "dataset_repetition_score", "metrics.dataset_repetition_score", "span"),
    ("repscope.cli", "length_statistics", "metrics.length_statistics", "span"),
    ("repscope.cli", "abstractiveness", "metrics.abstractiveness", "span"),
    ("repscope.cli", "build_design_matrix", "regression.build_design_matrix", "span"),
    ("repscope.cli", "ols_fit", "regression.ols_fit", "span"),
    ("repscope.cli", "likelihood_ratio_test", "regression.likelihood_ratio_test", "span"),
    ("repscope.regression", "t_two_sided_p", "special.t_two_sided_p", "sum"),
    ("repscope.regression", "t_critical", "special.t_critical", "sum"),
    ("repscope.regression", "chi2_sf", "special.chi2_sf", "sum"),
] + [
    ("repscope.reports", name, f"reports.{name}", "span")
    for name in (
        "dataset_scores_csv", "dataset_scores_markdown", "dataset_scores_json",
        "summary_scores_csv", "lengths_csv", "lengths_markdown",
        "repeats_csv", "repeats_markdown",
        "abstractiveness_csv", "abstractiveness_markdown", "abstractiveness_json",
        "fit_csv", "fit_markdown", "lr_test_json", "canonical_json",
        "sha256_bytes", "sha256_file",
    )
]


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and counters of one traced call, kept in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.sums: dict[tuple, dict] = {}
        self.counters: Counter = Counter()
        self.deferred: list = []  # counts taken after the run, outside every span
        self.root: int | None = None
        self.local = threading.local()
        self.lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _new_span(self, name: str, parent: int | None, summed: bool) -> dict:
        with self.lock:
            span = {
                "id": len(self.spans), "name": name, "parent": parent,
                "thread": threading.get_ident(), "start": None, "end": None,
                "wall_s": 0.0, "cpu_s": 0.0, "calls": 0, "summed": summed,
            }
            self.spans.append(span)
        return span

    def _parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def call(self, name: str, how: str, fn, args, kwargs):
        parent = self._parent()
        if how == "sum":
            # Eq.1 runs in a worker thread with no open span: group by index
            group = (id(_arg(args, kwargs, 1, "index"))
                     if name == "metrics.summary_repetition_score" else None)
            key = (name, parent, threading.get_ident(), group)
            span = self.sums.get(key)
            if span is None:
                span = self.sums[key] = self._new_span(name, parent, True)
        else:
            span = self._new_span(name, parent, False)
        stack = self._stack()
        stack.append(span["id"])
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if how == "list":
                result = iter(list(result))
        finally:
            t1 = time.perf_counter()
            cpu1 = time.thread_time()
            stack.pop()
            if span["start"] is None:
                span["start"] = t0 - self.origin
            span["end"] = t1 - self.origin
            span["wall_s"] += t1 - t0
            span["cpu_s"] += cpu1 - cpu0
            span["calls"] += 1
        self._count(name, args, kwargs, result)
        return result

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counters
        if name == "corpus.load_corpus":
            self.deferred.append(lambda: self._count_corpus(result))
        elif name == "ngrams.build_repetition_index":
            self.deferred.append(lambda: self._count_index(result))
        elif name == "metrics.summary_repetition_score":
            c["metrics.eq1_types"] += result.m
            c["metrics.eq1_raw_sum"] += result.raw_sum
        elif name == "metrics.dataset_repetition_score":
            c["metrics.repeating_summaries"] += result.repeating_summaries
        elif name == "metrics.abstractiveness":
            corpus, n = _arg(args, kwargs, 0, "corpus"), _arg(args, kwargs, 1, "n")
            self.deferred.append(
                lambda: c.update({"metrics.abstractiveness_windows": sum(
                    max(0, len(rec.summary.tokens) - n + 1) for rec in corpus.records
                )})
            )
        elif name == "regression.build_design_matrix" and "regression.rows" not in c:
            # the first design is the full one; the nested fit drops columns
            c["regression.rows"] = result.n_rows
            c["regression.cols"] = result.n_cols

    def _count_corpus(self, corpus) -> None:
        c = self.counters
        c["corpus.records"] += len(corpus.records)
        for rec in corpus.records:
            c["corpus.summary_tokens"] += len(rec.summary.tokens)
            if rec.input is not None:
                c["corpus.input_tokens"] += len(rec.input.tokens)

    def _count_index(self, index) -> None:
        c = self.counters
        c["ngrams.entries"] += len(index.entries)
        c["ngrams.max_n"] = max(c["ngrams.max_n"], index.max_observed_n)
        c["ngrams.entry_ids"] += sum(len(ids) for ids in index.entries.values())

    def install(self) -> list[tuple]:
        """Wrap every listed function that exists; return what to restore."""
        patched = []
        for module_name, attr, name, how in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, name, how))
            patched.append((module, attr, fn))
        return patched

    def _wrap(self, fn, name: str, how: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, how, fn, args, kwargs)

        return traced

    def run(self, main, argv: list[str]) -> int:
        root = self._new_span("cli.main", None, False)
        self.root = root["id"]
        self._stack().append(self.root)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return main(argv)
        finally:
            t1 = time.perf_counter()
            root.update(start=t0 - self.origin, end=t1 - self.origin, wall_s=t1 - t0,
                        cpu_s=time.thread_time() - cpu0, calls=1)
            self._stack().pop()
            for count in self.deferred:
                count()
            # drop the corpora and indexes now, as the untraced CLI does when
            # main returns, instead of at interpreter shutdown
            self.deferred.clear()

    def dump(self, path: str, exit_code: int, patched: list[tuple]) -> None:
        calls = Counter()
        for span in self.spans:
            calls[span["name"]] += span["calls"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"exit_code": exit_code,
                 "wrapped": [f"{module.__name__}.{attr}" for module, attr, _ in patched],
                 "calls": dict(sorted(calls.items())),
                 "counters": dict(sorted(self.counters.items())), "spans": self.spans},
                fh, indent=1,
            )


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    patched = tracer.install()
    cli = importlib.import_module("repscope.cli")
    try:
        exit_code = tracer.run(cli.main, argv)
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)
    tracer.dump(spans_path, exit_code, patched)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
