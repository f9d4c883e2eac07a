"""repscope benchmark: ``report-all`` on seeded synthetic workloads.

Usage:
  python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: one ``python -m repscope.cli report-all`` child runs
at a time and the next starts when it exits. ``REPSCOPE_THREADS`` is removed
from the child's environment, so the default fan-out (CPU count) is what is
measured. Each child is timed from outside: wall time from spawn to exit,
user + sys time and peak RSS from ``os.wait4``.

--trace 0 reports the end-to-end metrics. --trace 1 first times untraced
runs for half the window, then runs ``bench/trace_child.py`` for the other
half and reports the per-layer metrics derived from its spans. Metric names
and units come from BENCHMARK.json. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Every run passes a correctness gate: exit code 0 and no ``error:`` line, the
expected notes, every listed output present, a report tree byte-identical
across runs, reference values from ``bench/oracle.py``, and the digest pinned
in ``bench/digests.json`` for the workload and seed, when one is pinned.
The exit code is 0 only when every run passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

WORKLOAD_FLAGS = {
    "stock-phrases": [],
    "long-repeats": ["--eq1-mode", "maximal_only"],
    "paired-inputs": [],
}
OUT = "out"  # relative, so the manifest is the same in every run
SETUP_RUNS = 5
MIN_RUNS = 3  # per timed phase; 2 per phase with --trace 1
DEADLINE_S = 170.0  # the whole run ends within 180 s
SCORE_SPANS = (
    "ngrams.build_repetition_index",
    "metrics.summary_repetition_score",
    "metrics.dataset_repetition_score",
)
LAYERS = ("corpus", "ngrams", "metrics", "regression", "special", "reports")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPSCOPE_THREADS", None)
    # absolute, so the child imports this checkout's package from any cwd
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "REPSCOPE_THREADS": "unset",
    }


class Child:
    """One child process, timed from outside."""

    def __init__(self, argv: list[str], cwd: Path, deadline: float):
        err_path = cwd / "stderr.txt"
        with err_path.open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def tree_digest(out_dir: Path, skip: tuple[str, ...] = ()) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel not in skip:
            digest.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def expected_notes(corpus_paths: list[Path]) -> list[str]:
    def has_input(path: Path) -> bool:
        with path.open(encoding="utf-8") as fh:
            return "input" in json.loads(fh.readline())

    if all(has_input(p) for p in corpus_paths):
        return []
    return [
        f"abstractiveness skipped for {p.stem!r}: records lack paired inputs"
        for p in corpus_paths
    ]


def gate(child: Child, out_dir: Path, notes: list[str]) -> list[str]:
    """Per-run checks that need no reference values."""
    problems = []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    problems += [line for line in child.stderr.splitlines() if line.startswith("error:")]
    manifest_path = out_dir / "run_manifest.json"
    if not manifest_path.is_file():
        return problems + ["no run_manifest.json"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("notes") != notes:
        problems.append(f"notes {manifest.get('notes')} != {notes}")
    missing = [name for name in manifest.get("outputs", []) if not (out_dir / name).is_file()]
    if missing:
        problems.append(f"missing outputs {missing}")
    return problems


class Workload:
    """One workload's generated corpora, its runs and their checks."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.dir = WORK / f"{name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.paths = workloads.write_workload(name, seed, self.dir)
        self.args = ["report-all", *(p.name for p in self.paths), "--output-dir", OUT,
                     *WORKLOAD_FLAGS[name]]
        self.notes = expected_notes(self.paths)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tree: str | None = None  # digest of the first tree, manifest included
        self.reports: str | None = None  # the same without run_manifest.json

    def sizes(self) -> dict:
        sizes = {}
        for path in self.paths:
            records = tokens = 0
            with path.open(encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line)
                    records += 1
                    tokens += len(obj["summary"].split()) + len(obj.get("input", "").split())
            sizes[path.stem] = {"records": records, "whitespace_tokens": tokens,
                                "bytes": path.stat().st_size}
        return sizes

    def run(self, argv: list[str]) -> Child | None:
        """Run one child and gate it; None when it failed."""
        out_dir = self.dir / OUT
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        child = Child(argv, self.dir, self.deadline)
        problems = gate(child, out_dir, self.notes)
        if not problems:
            tree = tree_digest(out_dir)
            if self.tree is None:
                self.tree = tree
                self.reports = tree_digest(out_dir, skip=("run_manifest.json",))
                problems += self.check_first_tree(out_dir)
            elif tree != self.tree:
                problems.append("report tree differs from the first run's")
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]
            return None
        return child

    def check_first_tree(self, out_dir: Path) -> list[str]:
        problems = oracle.check_tree(self.paths, out_dir)
        pinned = self.pinned()
        if pinned is not None and pinned != self.reports:
            problems.append(f"report digest {self.reports} != pinned {pinned}")
        return problems

    def pinned(self) -> str | None:
        pins = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        return pins.get(self.name, {}).get(str(self.seed))

    def loop(self, argv: list[str], seconds: float, min_runs: int) -> list[Child]:
        """Closed loop: start the next run while it is expected to end within
        ``seconds``, and at least ``min_runs`` runs."""
        done: list[Child] = []
        t0 = time.monotonic()
        last = 0.0
        failures = 0
        while len(done) + failures < min_runs or time.monotonic() - t0 + last <= seconds:
            if time.monotonic() + last > self.deadline or failures >= 3:
                break
            child = self.run(argv)
            if child is None:
                failures += 1
                continue
            done.append(child)
            last = child.wall_s
        return done


def report_all_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "repscope.cli", *args]


def traced_argv(args: list[str], spans: Path) -> list[str]:
    return [sys.executable, str(BENCH / "trace_child.py"), str(spans), "--", *args]


def measure_setup(work: Workload) -> list[float]:
    argv = report_all_argv(["--version"])
    Child(argv, work.dir, work.deadline)  # compiles bytecode, fills the page cache
    return [Child(argv, work.dir, work.deadline).wall_s for _ in range(SETUP_RUNS)]


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 20:
        return f"median of {len(samples)}; a tail percentile needs >= 20 runs"
    p = int(100 * (1 - 10 / len(samples)))
    return f"median of {len(samples)}; p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f}"


def end_to_end(work: Workload, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(work)
    runs = work.loop(report_all_argv(work.args), seconds, MIN_RUNS)
    metrics = {
        "setup_s": statistics.median(setup),
        "success_frac": (work.attempted - work.failed) / max(1, work.attempted),
    }
    if runs:
        metrics.update(
            report_all_s=statistics.median(c.wall_s for c in runs),
            cpu_s=statistics.median(c.cpu_s for c in runs),
            peak_rss_mb=statistics.median(c.peak_rss_mb for c in runs),
        )
    detail = {
        "setup_s": setup,
        "runs": [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb}
                 for c in runs],
        "report_all_s": tail_note([c.wall_s for c in runs]),
    }
    return metrics, detail


# per-layer metrics from spans


def self_times(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    """Wall and CPU self time of each span. Wall: the span's wall time minus
    the part its children cover; a child in the parent's thread covers its own
    wall time (summed spans included), children in other threads cover the
    union of their intervals. CPU: the span's thread CPU time minus that of
    its children in the same thread."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    wall, cpu = {}, {}
    for span in spans:
        kids = children.get(span["id"], [])
        same = [k for k in kids if k["thread"] == span["thread"]]
        other = union([k for k in kids if k["thread"] != span["thread"]])
        wall[span["id"]] = max(0.0, span["wall_s"] - sum(k["wall_s"] for k in same) - other)
        cpu[span["id"]] = max(0.0, span["cpu_s"] - sum(k["cpu_s"] for k in same))
    return wall, cpu


def union(spans: list[dict]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s["start"], s["end"]) for s in spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(doc: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and each layer's CPU self time."""
    spans = [s for s in doc["spans"] if s["calls"]]
    by_id = {s["id"]: s for s in spans}
    selfs, cpu_selfs = self_times(spans)

    def wall(name: str) -> float:
        return sum((s["wall_s"] for s in spans if s["name"] == name), 0.0)

    def calls(prefix: str) -> int:
        return sum(s["calls"] for s in spans if s["name"].startswith(prefix))

    root = next(s for s in spans if s["name"] == "cli.main")
    scoring = [s for s in spans if s["name"] in SCORE_SPANS]
    # renderers the CLI called; canonical_json inside lr_test_json is not counted twice
    reports = [s for s in spans if s["name"].startswith("reports.")
               and not s["name"].startswith("reports.sha256_")
               and not by_id[s["parent"]]["name"].startswith("reports.")]
    counters = doc["counters"]
    metrics = {
        "corpus.load_s": wall("corpus.load_corpus"),
        "corpus.tokenize_s": wall("corpus.tokenize"),
        "corpus.tokenize_calls": calls("corpus.tokenize"),
        "ngrams.index_s": wall("ngrams.build_repetition_index"),
        "ngrams.top_repeats_s": wall("ngrams.top_repeats"),
        "ngrams.export_s": wall("ngrams.index_export_lines"),
        "metrics.eq1_s": wall("metrics.summary_repetition_score"),
        "metrics.eq1_calls": calls("metrics.summary_repetition_score"),
        "metrics.dataset_score_s": wall("metrics.dataset_repetition_score"),
        "metrics.lengths_s": wall("metrics.length_statistics"),
        "metrics.abstractiveness_s": wall("metrics.abstractiveness"),
        "metrics.abstractiveness_calls": calls("metrics.abstractiveness"),
        "regression.design_s": wall("regression.build_design_matrix"),
        "regression.ols_s": wall("regression.ols_fit"),
        "regression.lr_s": wall("regression.likelihood_ratio_test"),
        "special.tails_s": sum(s["wall_s"] for s in spans if s["name"].startswith("special.")),
        "special.calls": calls("special."),
        "reports.render_s": sum(s["wall_s"] for s in reports),
        "reports.sha256_s": wall("reports.sha256_bytes") + wall("reports.sha256_file"),
        "cli.total_s": root["wall_s"],
        "cli.score_wall_s": union(scoring),
        "cli.score_wait_s": sum(s["wall_s"] - s["cpu_s"] for s in scoring),
    }
    layer_cpu = {}
    for layer in LAYERS + ("cli",):
        mine = [s["id"] for s in spans if s["name"].startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = sum(selfs[i] for i in mine)
        layer_cpu[layer] = sum(cpu_selfs[i] for i in mine)
    for name in ("corpus.records", "corpus.summary_tokens", "corpus.input_tokens",
                 "ngrams.entries", "ngrams.max_n", "ngrams.entry_ids",
                 "metrics.eq1_types", "metrics.eq1_raw_sum", "metrics.repeating_summaries",
                 "metrics.abstractiveness_windows", "regression.rows", "regression.cols"):
        metrics[name] = counters.get(name, 0)
    return metrics, layer_cpu


COUNT_UNITS = ("count", "B")


def per_layer(work: Workload, seconds: float, units: dict[str, str]) -> tuple[dict, dict]:
    t0 = time.monotonic()
    plain = work.loop(report_all_argv(work.args), seconds / 2, 2)
    traced: list[tuple[Child, dict]] = []
    last = 0.0
    while len(traced) < 2 or (time.monotonic() - t0 + last <= seconds
                              and time.monotonic() + last <= work.deadline):
        spans = RESULTS / f"{work.name}-seed{work.seed}-spans{len(traced)}.json"
        child = work.run(traced_argv(work.args, spans))
        if child is None:
            break
        traced.append((child, json.loads(spans.read_text(encoding="utf-8"))))
        last = child.wall_s
    if not plain or not traced:
        return {}, {}
    out_bytes = sum(p.stat().st_size for p in (work.dir / OUT).rglob("*") if p.is_file())
    samples, cpu_samples = [], []
    for _, doc in traced:
        sample, layer_cpu = layer_metrics(doc)
        samples.append(dict(sample, **{"reports.bytes": out_bytes}))
        cpu_samples.append(layer_cpu)
    plain_median = statistics.median(c.wall_s for c in plain)
    metrics = {}
    exact, varying = [], []
    for name in samples[0]:
        values = [s[name] for s in samples]
        if units.get(name) in COUNT_UNITS:
            metrics[name] = values[0]
            (exact if len(set(values)) == 1 else varying).append(name)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(c.wall_s for c, _ in traced) - plain_median
    detail = {
        "untraced_wall_s": [c.wall_s for c in plain],
        "traced_wall_s": [c.wall_s for c, _ in traced],
        "exact_counts": exact,
        "varying_counts": varying,
        "spans": [f"{work.name}-seed{work.seed}-spans{i}.json" for i in range(len(traced))],
        "layer_self_s": {layer: metrics[f"{layer}.self_s"] for layer in LAYERS + ("cli",)},
        # thread CPU self time: wall self time of threaded layers includes GIL waits
        "layer_cpu_self_s": {
            layer: statistics.median(c[layer] for c in cpu_samples) for layer in cpu_samples[0]
        },
    }
    for name in varying:  # counts are a pure function of the inputs
        work.problems.append(f"count {name} varies across traced runs")
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    work = Workload(name, seed, time.monotonic() + DEADLINE_S)
    record = {"workload": name, "why": workloads.WHY[name], "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(), "sizes": work.sizes()}
    if trace:
        metrics, detail = per_layer(work, seconds, units)
    else:
        metrics, detail = end_to_end(work, seconds)
    record.update(detail, metrics=metrics, attempted=work.attempted, failed=work.failed,
                  problems=work.problems, report_digest=work.reports,
                  digest_pinned=work.pinned() is not None)
    return record


def spec_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_FLAGS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repscope" / "cli.py").is_file():
        print(f"error: no repscope sources under {SRC}", file=sys.stderr)
        return 2
    units = spec_metrics(bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOAD_FLAGS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
            out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            metrics = record["metrics"]
            correct = not record["problems"] and set(metrics) == set(units)
            print(f"{name} (seed {args.seed}): {'ok' if correct else 'FAILED'}; "
                  f"{record['attempted']} runs; details in {out.relative_to(ROOT)}")
            for problem in record["problems"]:
                print(f"  problem: {problem}")
            for metric in sorted(set(units) - set(metrics)):
                print(f"  problem: metric {metric} not measured")
            for metric, value in metrics.items():
                print(f"  {metric:32s} {value:>14.6g} {units.get(metric, '?')}")
            prefix = "" if len(names) == 1 else f"{name}/"
            result["correct"] &= correct
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
            result["metrics"].update(
                {f"{prefix}{m}": {"value": v, "unit": units[m]}
                 for m, v in metrics.items() if m in units}
            )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
