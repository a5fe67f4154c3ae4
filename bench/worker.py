"""One workload process: set up, then run the job list once and report.

    python3 bench/worker.py <run-dir> <work-dir> <setup|pass|traced> <pass> [spans.jsonl]

The parent writes ``setup.json`` (model texts and digest schema) and one
``pass<n>.json`` job list per pass into ``run-dir``.  The process imports
qtoric from the checkout's ``src``, writes the model files into ``work-dir``
and resolves each of them, then prints ``ready``: the parent times set-up up
to that line.  In ``setup`` mode it stops there.  Otherwise it runs the job
list of pass number ``pass`` once, in order, one job at a time, and
prints one JSON line with the pass wall time, peak RSS and, per job, its
latency, exit code, ``ok`` flag and digest of exact values.  In ``traced``
mode the layers are wrapped for the pass (see tracer.py) and the line also
carries the per-layer statistics, and the spans go to ``spans.jsonl`` when
that path is given.

Only the jobs are timed; digests are computed after the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB_GUARD_S = 60  # a job still running after this long counts as failed

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


class JobTimeout(BaseException):
    """Raised by the guard alarm; a BaseException so no library handler eats it."""


def import_qtoric():
    """Import qtoric from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qtoric" / "__init__.py").is_file():
        raise SystemExit(f"no qtoric sources under {src}")
    sys.path.insert(0, str(src))
    import qtoric
    if Path(qtoric.__file__).resolve().parent != src / "qtoric":
        raise SystemExit(f"qtoric was imported from {qtoric.__file__}, not {src}")
    import qtoric.cli  # noqa: F401  (what the qtoric command imports)
    return qtoric


# -- exact values ------------------------------------------------------------


def exact_leaves(node, path=()):
    """(path, text) for every integer and rational-string leaf; booleans skipped."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from exact_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from exact_leaves(value, path + (index,))
    elif isinstance(node, bool) or node is None:
        return
    elif isinstance(node, int):
        yield path, str(node)
    elif isinstance(node, str) and _RATIONAL.fullmatch(node):
        yield path, node


def general_path(path) -> str:
    """The path with list indices and degree keys ('[1, 2]') replaced by '*'."""
    return "/".join("*" if isinstance(p, int) or p.startswith("[") else p for p in path)


def digest(result, schema) -> str:
    """Hash of the exact leaves whose general path the seed commit produced.

    Leaves at paths outside ``schema`` (fields added later, such as a
    diagnostics block) do not enter the digest.
    """
    lines = sorted(f"{'/'.join(map(str, path))}={text}"
                   for path, text in exact_leaves(result)
                   if general_path(path) in schema)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:24]


# -- jobs --------------------------------------------------------------------


def write_models(texts, work_dir: Path, qtoric) -> dict[str, str]:
    """Write each model file, resolve it, and return name -> path."""
    paths = {}
    for text in texts:
        name = text.split("\n", 1)[0].split()[1]
        path = work_dir / f"{name}.model"
        path.write_text(text)
        qtoric.resolve_model(str(path))
        paths[name] = str(path)
    return paths


def resolve_args(args, paths) -> list[str]:
    return [paths[a[1:]] if a.startswith("@") else a for a in args]


def run_cli(argv):
    """Call the CLI in-process; returns (exit code, stdout text)."""
    from qtoric import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue()


def run_lib(argv):
    """The identities the CLI does not expose; returns per-fixed-point pairs."""
    from qtoric import models, qdiff, scalars, series, toric
    name, path = argv[0], argv[1]
    bound = int(argv[argv.index("--deg") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    model = models.resolve_model(path)
    data = model.data
    box = series.truncation_box(data, bound, model.ample)
    ctx = scalars.sample_context(data.N, seed)
    pairs = []
    for fp in toric.enumerate_fixed_points(data):
        if name == "lib:point_series":
            left, right = series.point_series(fp.q_monomials, box, ctx)
        else:
            left, right = qdiff.gamma_reconstruction(data, fp, box, ctx)
        pairs.append((fp.J, left, right, left == right))
    return pairs


def lib_report(pairs) -> dict:
    return {
        "ok": all(agree for _, _, _, agree in pairs),
        "result": {"components": [
            {"alpha": [j + 1 for j in J],
             "coefficients": {str(list(d)): str(c) for d, c in sorted(left.coeffs.items())}}
            for J, left, _, _ in pairs
        ]},
    }


def report_of(outcome, lib) -> dict:
    """The JSON report of a CLI job, or the same shape for a library job."""
    return lib_report(outcome) if lib else json.loads(outcome)


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(job, paths):
    """Run one job under the guard.

    Returns (ms, exit code, raw outcome, error, whether it is a library job).
    """
    argv = resolve_args(job["args"], paths) + ["--seed", str(job["seed"])]
    lib = argv[0].startswith("lib:")
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_GUARD_S)
    start = perf_counter()
    try:
        if lib:
            outcome, code = run_lib(argv), 0
        else:
            code, outcome = run_cli(argv)
        error = None
    except JobTimeout:
        outcome, code, error = None, None, f"timed out after {JOB_GUARD_S} s"
    except Exception:  # the job boundary: record the failure, run the next job
        outcome, code, error = None, None, traceback.format_exc(limit=3)
    finally:
        ms = (perf_counter() - start) * 1000
        signal.setitimer(signal.ITIMER_REAL, 0)
    return ms, code, outcome, error, lib


def check(job, ms, code, outcome, error, lib, schema) -> dict:
    """Turn a raw outcome into the record the parent compares with the reference."""
    record = {"key": job["key"], "seed": job["seed"], "ms": ms, "exit": code,
              "ok": False, "digest": None, "error": error, "bytes": 0}
    if outcome is None:
        return record
    if not lib:
        record["bytes"] = len(outcome.encode())
    try:
        report = report_of(outcome, lib)
    except ValueError as exc:
        record["error"] = f"unreadable output: {exc}"[:300]
        return record
    record["ok"] = report.get("ok") is True
    if "error" in report:
        record["error"] = str(report["error"])[:300]
    if "result" in report:
        record["digest"] = digest(report["result"], schema.get(job["args"][0], ()))
    return record


def main(argv) -> int:
    run_dir, work_dir, mode, index = Path(argv[0]), Path(argv[1]), argv[2], int(argv[3])
    setup = json.loads((run_dir / "setup.json").read_text())
    qtoric = import_qtoric()
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = write_models(setup["models"], work_dir, qtoric)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    jobs = json.loads((run_dir / f"pass{index}.json").read_text())
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    raw = []
    start = perf_counter()
    try:
        for number, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = number
            raw.append((job,) + run_job(job, paths))
    finally:
        wall_s = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    schema = {k: frozenset(v) for k, v in setup["schema"].items()}
    out = {
        "mode": mode,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [check(job, *rest, schema) for job, *rest in raw],
    }
    if tracer is not None:
        out["stats"] = tracer.summary()
        out["unrestored"] = tracer.unrestored()
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
