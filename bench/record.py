"""Capture reference.json: the exact-value digests every job must reproduce.

    python3 bench/record.py

Runs every job of every workload once for each seed in the workload's seed
pool, on the code in this checkout, and writes ``bench/reference.json``:

* ``schema``: per command, the general paths (list indices and degree keys
  as ``*``) of the exact-value leaves of ``result``.  Digests cover only
  these paths, so fields a later change adds do not alter them.
* ``digests``: per job key and seed, the digest of those leaves.

Run it only on the commit whose results are the reference; every job must
exit 0 with ``ok: true`` there.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import worker
import workloads


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    qtoric = worker.import_qtoric()
    reports = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT, prefix=".bench_record") as tmp:
        for name in workloads.WORKLOADS:
            paths = worker.write_models(workloads.workload_models(name), Path(tmp), qtoric)
            for args in workloads.workload_args(name):
                for seed in workloads.seed_pool(name):
                    job = {"args": args, "seed": seed, "key": workloads.job_key(args)}
                    ms, code, outcome, error, lib = worker.run_job(job, paths)
                    report = worker.report_of(outcome, lib) if code == 0 else {}
                    if code != 0 or report.get("ok") is not True:
                        print(f"FAILED {job['key']} --seed {seed}: exit {code} {error}",
                              file=sys.stderr)
                        return 1
                    reports[(job["key"], seed)] = (args[0], report["result"])
                    print(f"{ms:9.1f} ms  {job['key']} --seed {seed}", flush=True)
    schema: dict[str, set] = {}
    for command, result in reports.values():
        schema.setdefault(command, set()).update(
            worker.general_path(path) for path, _ in worker.exact_leaves(result))
    digests: dict[str, dict] = {}
    for (key, seed), (command, result) in reports.items():
        digests.setdefault(key, {})[str(seed)] = worker.digest(result, schema[command])
    reference = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "seed_pools": {name: list(workloads.seed_pool(name)) for name in workloads.WORKLOADS},
        "schema": {c: sorted(p) for c, p in sorted(schema.items())},
        "digests": digests,
    }
    out = worker.BENCH / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(reports)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
