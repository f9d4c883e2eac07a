"""Pin the report digest of each workload for a range of seeds.

Usage: python3 bench/pin.py FIRST_SEED LAST_SEED

Runs ``report-all`` once per workload and seed at scale 1, gates the run
like bench/run.py does (oracle included) and records the digest of the
report tree, run_manifest.json excluded, in bench/digests.json. A seed that
already has a digest is checked against it, not overwritten. Pin only from
a commit whose reports are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    path = run.BENCH / "digests.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    failed = 0
    try:
        for name in run.WORKLOAD_FLAGS:
            for seed in range(first, last + 1):
                work = run.Workload(name, seed, time.monotonic() + run.DEADLINE_S)
                work.run(run.report_all_argv(work.args))
                shutil.rmtree(run.WORK, ignore_errors=True)
                if work.problems:
                    failed += 1
                    print(f"{name} seed {seed}: {work.problems}", file=sys.stderr)
                    continue
                pins.setdefault(name, {})[str(seed)] = work.reports
                print(f"{name} seed {seed}: {work.reports}")
    finally:
        ordered = {
            name: dict(sorted(pins[name].items(), key=lambda item: int(item[0])))
            for name in sorted(pins)
        }
        path.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
