"""The qtoric benchmark: fixed job mixes through the CLI, checked exactly.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; qtoric is imported from its ``src``.  Each
workload is a fixed job list (workloads.py).  Jobs run in a closed loop with
one client: one job at a time, each an in-process ``qtoric.cli.main(argv)``
call or a direct library call.  Every pass over the list runs in a fresh
interpreter (worker.py), and workloads never run in parallel.

A job is a command with one seed of the workload's seed pool (see
workloads.py).  A run makes a whole number of rounds, as many as fit in
``seconds`` at the seed commit and at least one; a round runs every job once,
as one pass per pool seed.  Every run of a workload therefore does the same
work; the workload seed only sets the order of the passes and of the jobs in
each.  Every job's output is checked: exit 0, ``ok: true``, and a digest of
its exact values equal to the one captured on the seed commit
(reference.json).  Anything else counts as a failed job.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: fresh interpreter until the first job is ready (import qtoric,
  write and resolve the model files); median over every process of the run.
* ``wall_s``: one round, the whole job list once; median over rounds.
* ``job_ms.p50`` / ``job_ms.tail``: per-job latency over every job of every
  round; the tail is the highest percentile with at least ten samples beyond
  it.
* ``peak_rss_mb``: peak resident memory of a pass process; median.

With ``--trace 1`` untraced and traced passes alternate and the last line
carries the per-layer metrics of the traced passes (medians), including
``trace.overhead_frac``.  The spans of the first traced pass are written to
``.bench_trace/<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_SAMPLES = 9      # set-up is timed in at least this many fresh processes
RUN_LIMIT_S = 170.0    # a run must end within 180 s


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in benchmark[section]}
                 for section in ("end_to_end", "per_layer"))


class RunError(RuntimeError):
    """A worker process crashed, hung or broke the protocol."""


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(stats: dict, report_bytes: int, names) -> dict[str, float]:
    """The per-layer figures ``names`` of one traced pass (all but the overhead).

    A name ending in ``.calls`` or ``.self_s`` reads that field of the traced
    function it starts with; the others are derived below.
    """
    derived = stats["_derived"]

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    special = {
        "toric.box_degrees.degrees": get("toric.box_degrees", "extra"),
        "linalg.in_cone.accept_ratio": _ratio(get("linalg.in_cone", "extra"),
                                              get("linalg.in_cone", "calls")),
        "series.NovikovSeries.coefficient.beyond_box":
            get("series.NovikovSeries.coefficient", "extra"),
        "series.coeff_bits.max": derived["coeff_bits_max"],
        "toric.enumerate_fixed_points.hit_ratio": _ratio(
            derived["fixed_points_hits"],
            derived["fixed_points_hits"] + derived["fixed_points_misses"]),
        "scalars.with_resampling.attempts_per_call": _ratio(
            get("scalars.with_resampling.attempts", "calls"),
            get("scalars.with_resampling", "calls")),
        "cli.report_bytes": report_bytes,
    }
    out = {}
    for metric in names:
        if metric == "trace.overhead_frac":
            continue
        if metric in special:
            out[metric] = special[metric]
        elif metric.endswith(".calls"):
            out[metric] = get(metric[:-len(".calls")], "calls")
        elif metric.endswith(".self_s"):
            out[metric] = get(metric[:-len(".self_s")], "self_s")
        else:
            raise KeyError(f"no rule computes the per-layer metric {metric!r}")
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def failure(record: dict, reference: dict) -> str | None:
    """Why a job record fails the correctness gate, or None when it passes."""
    if record["exit"] != 0:
        return f"exit {record['exit']}: {record['error']}"
    if not record["ok"]:
        return "ok is not true"
    want = reference["digests"].get(record["key"], {}).get(str(record["seed"]))
    if want is None:
        return "no reference digest"
    if record["digest"] != want:
        return f"exact values differ from the seed commit ({record['digest']} != {want})"
    return None


class Runner:
    """Starts the worker processes of one run, one at a time, and times set-up."""

    def __init__(self, plan: list[list[dict]], models: list[str], schema: dict, work: Path):
        self.work = work
        self.count = 0
        self.start = perf_counter()
        self.setup_s: list[float] = []
        work.mkdir(parents=True, exist_ok=True)
        (work / "setup.json").write_text(json.dumps({"models": models, "schema": schema}))
        for index, jobs in enumerate(plan):
            (work / f"pass{index}.json").write_text(json.dumps(jobs))

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def run(self, mode: str, index: int = 0, spans: Path | None = None) -> dict | None:
        """Start one worker; returns its pass report (None in setup mode)."""
        self.count += 1
        argv = [sys.executable, str(BENCH / "worker.py"), str(self.work),
                str(self.work / f"w{self.count}"), mode, str(index)]
        if spans is not None:
            argv.append(str(spans))
        began = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._left())
            line = proc.stdout.readline() if ready else ""
            if line != "ready\n":
                raise RunError(f"worker gave no ready line ({line!r})")
            self.setup_s.append(perf_counter() - began)
            out, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise RunError(f"worker still running after {RUN_LIMIT_S} s into the run")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise RunError(f"worker exited {proc.returncode}")
        if mode == "setup":
            return None
        lines = out.strip().splitlines()
        if not lines:
            raise RunError("worker printed no result")
        return json.loads(lines[-1])

    def _left(self) -> float:
        return max(RUN_LIMIT_S - self.elapsed(), 0.1)


def run_workload(plan: list[list[dict]], per_round: int, models: list[str],
                 reference: dict, trace: bool, work: Path,
                 spans: Path | None = None) -> dict:
    """Run the passes of ``plan``; returns metrics, counts and failure reasons.

    Every ``per_round`` consecutive passes of ``plan`` make one round, which
    runs the workload's job list once.  With ``trace``, a third of the passes
    run twice, untraced then traced, and no end-to-end metrics are taken.
    """
    runner = Runner(plan, models, reference["schema"], work)
    plain, traced = [], []
    if trace:
        for i in range(max(1, round(len(plan) / 3))):
            plain.append(runner.run("pass", i))
            traced.append(runner.run("traced", i, spans if i == 0 else None))
    else:
        for i in range(len(plan)):
            plain.append(runner.run("pass", i))
        while len(runner.setup_s) < SETUP_SAMPLES:
            runner.run("setup")
    records = [r for p in plain + traced for r in p["jobs"]]
    failures = [(r["key"], r["seed"], why) for r in records
                if (why := failure(r, reference)) is not None]
    out = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "pass_walls": [p["wall_s"] for p in plain],
        "elapsed_s": runner.elapsed(),
    }
    if not trace:
        latencies = [r["ms"] for p in plain for r in p["jobs"]]
        tail_ms, tail_pct = tail(latencies)
        walls = out["pass_walls"]
        rounds = [sum(walls[i:i + per_round]) for i in range(0, len(walls), per_round)]
        out.update(samples=len(latencies), tail_percentile=tail_pct, round_walls=rounds)
        out["end_to_end"] = {
            "setup_s": statistics.median(runner.setup_s),
            "wall_s": statistics.median(rounds),
            "job_ms.p50": statistics.median(latencies),
            "job_ms.tail": tail_ms,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
    if trace:
        unrestored = sorted({name for p in traced for name in p["unrestored"]})
        if unrestored:
            raise RunError(f"attributes not restored after tracing: {unrestored}")
        names = declared_metrics()[1]
        per_pass = [layer_metrics(p["stats"], sum(r["bytes"] for r in p["jobs"]), names)
                    for p in traced]
        layers = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
        untraced_wall = statistics.median(out["pass_walls"])
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
        out["per_layer"] = layers
        out["traced_wall_s"] = traced_wall
        out["spans"] = traced[0]["stats"]["_derived"]["spans"]
    return out


def probe_known_defect(reference: dict, work: Path) -> str:
    """Run the known-defect job once, untimed, and say whether it still fails."""
    defect = workloads.KNOWN_DEFECT
    job = {"args": defect["args"], "seed": workloads.JOB_SEEDS[0],
           "key": workloads.job_key(defect["args"])}
    models = workloads.workload_models(defect["workload"])
    runner = Runner([[job]], models, reference["schema"], work)
    record = runner.run("pass")["jobs"][0]
    command = "qtoric " + " ".join(defect["args"])
    if record["exit"] == defect["exit"] and defect["message"] in (record["error"] or ""):
        return (f"known library defect still reproduces (not in the timed job list): "
                f"{command} exits {record['exit']}: {defect['message']}")
    return (f"known library defect no longer reproduces: {command} exits "
            f"{record['exit']} ({record['error']})")


def result_line(result: dict, names: dict[str, str], values: dict[str, float]) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "qtoric" / "__init__.py").is_file():
        print(f"error: no qtoric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    reference = json.loads((BENCH / "reference.json").read_text())
    plan = workloads.run_plan(args.workload, args.seed, args.seconds)
    work = SCRATCH / f"{args.workload}-{args.seed}"
    spans = None
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        spans = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        result = run_workload(plan, workloads.POOL_SIZE[args.workload],
                              workloads.workload_models(args.workload), reference,
                              bool(args.trace), work, spans)
        defect = None
        if args.workload == workloads.KNOWN_DEFECT["workload"]:
            defect = probe_known_defect(reference, work / "defect")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    walls = ", ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(f"workload {args.workload}, seed {args.seed}: {len(result['pass_walls'])} "
          f"untraced passes of {len(plan[0])} jobs in {result['elapsed_s']:.1f} s "
          f"(pass walls {walls} s); {result['failed']} of {result['attempted']} jobs "
          f"failed (failed_frac {_ratio(result['failed'], result['attempted']):.4f})")
    for key, seed, why in result["failures"]:
        print(f"  FAILED {key} --seed {seed}: {why}")
    if defect:
        print(defect)
    if args.trace:
        print(f"traced wall {result['traced_wall_s']:.3f} s, {result['spans']} spans "
              f"in the first traced pass")
        for name, unit in per_layer.items():
            print(f"  {name} = {result['per_layer'][name]:.6g} {unit}")
        print(result_line(result, per_layer, result["per_layer"]))
    else:
        e2e = result["end_to_end"]
        for name, unit in end_to_end.items():
            note = ""
            if name == "job_ms.tail":
                note = (f"  (p{result['tail_percentile']:.1f} of {result['samples']} "
                        f"job samples)")
            print(f"  {name} = {e2e[name]:.6g} {unit}{note}")
        print(result_line(result, end_to_end, e2e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
