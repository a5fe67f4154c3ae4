"""Generated models and the fixed job list of every workload.

A job is a dict with its argument list, its pinned ``--seed`` and its key:

    {"args": ["verify-recursion", "@f3", "--m", "2", "--deg", "3",
              "--edge", "1,3:2", "--samples", "1"], "seed": 23,
     "key": "verify-recursion @f3 ..."}

``@name`` stands for the model file ``name.model`` that each worker writes
into its own temp directory.  The first argument is a ``qtoric`` CLI command,
or ``lib:point_series`` / ``lib:gamma_reconstruction`` for the two identities
the CLI does not expose.  The key omits the seed; with it, it names the
reference digest captured on the seed commit (``reference.json``).

Everything here is plain data and stdlib only: the parent process builds job
lists without importing qtoric.
"""

from __future__ import annotations

import random

WORKLOADS = ("recursion-symbolic", "cone-box", "series-numeric", "cli-mixed")

# A run is a number of rounds; a round runs every job of the workload once:
# one pass (fresh interpreter) per seed of the workload's seed pool.  These
# are the seconds of one round at the seed commit (2-core x86-64 VM, Python
# 3.11); they set how many rounds a run of a given --seconds makes.
NOMINAL_ROUND_S = {"recursion-symbolic": 10.0, "cone-box": 8.0,
                   "series-numeric": 8.0, "cli-mixed": 9.0}

# The cost of one job moves by up to 2.6x with its --seed (the bit size of
# the sampled q and parameters), so a run's cost would follow the workload
# seed if jobs drew their seeds freely.  Instead every pass runs all its jobs
# with one seed of the workload's pool, and every round covers the whole
# pool: runs differ in the order of the passes and of the jobs within a
# pass, not in the work done.
POOL_SIZE = {"recursion-symbolic": 1, "cone-box": 2, "series-numeric": 4, "cli-mixed": 3}
JOB_SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)


def model_text(name: str, rows, omega, bundle: str = "") -> str:
    lines = [f"name {name}", f"matrix {len(rows)} {len(rows[0])}"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    lines.append("omega " + " ".join(str(x) for x in omega))
    return "\n".join(lines) + "\n" + bundle


def hirzebruch_rows(a: int):
    return [[1, 1, 0, -a], [0, 0, 1, 1]]


def hirzebruch(a: int) -> str:
    return model_text(f"f{a}", hirzebruch_rows(a), [1, 1])


def projective(n: int) -> str:
    return model_text(f"p{n}", [[1] * (n + 1)], [1])


LINE, PLANE = [[1, 1]], [[1, 1, 1]]


def product(name: str, *factors) -> str:
    """The product of toric models given by their charge matrices."""
    width = sum(len(rows[0]) for rows in factors)
    matrix, start = [], 0
    for rows in factors:
        matrix += [[0] * start + row + [0] * (width - start - len(row)) for row in rows]
        start += len(rows[0])
    return model_text(name, matrix, [1] * len(matrix))


def lines_product(k: int) -> str:
    return product(f"p1x{k}", *[LINE] * k)


def plane_bundle(a: int, b: int) -> str:
    """P(O + O(a) + O(b)) over the projective plane."""
    rows = [[1, 1, 1, 0, -a, -b], [0, 0, 0, 1, 1, 1]]
    return model_text(f"pp2_{a}{b}", rows, [1, 1])


def bundle_on_plane(parity: str) -> str:
    """The bundled p2_o1_o2 models: O(1) + O(2) over the plane, E or PiE."""
    name = "p2_o1_o2" if parity == "E" else "p2_o1_o2_pi"
    return model_text(name, [[1, 1, 1]], [1], f"bundle {parity} 2\n1 2\n")


CLI_MIXED_MODELS = (
    [hirzebruch(a) for a in range(6)]
    + [projective(n) for n in range(1, 6)]
    + [plane_bundle(a, b) for a, b in ((0, 1), (1, 1), (0, 2), (1, 2))]
    + [lines_product(3)]
)


def _name(text: str) -> str:
    return text.split("\n", 1)[0].split()[1]


def _rank(text: str) -> int:
    return int(text.split("\n", 2)[1].split()[1])


def _job(*args) -> list[str]:
    return [str(a) for a in args] + ["--samples", "1"]


def edges(blocks) -> list[str]:
    """Every T-invariant curve of a model as a CLI ``--edge`` value.

    For the projective spaces and Hirzebruch surfaces here a fixed point
    takes one column from each block (1-based column groups), and its edges
    leave it through each column outside it: ``'a1,a2:j0'``.
    """
    points = [[]]
    for block in blocks:
        points = [point + [j] for point in points for j in block]
    columns = sorted(j for block in blocks for j in block)
    return [",".join(map(str, point)) + f":{j0}"
            for point in points for j0 in columns if j0 not in point]


SURFACE_EDGES = edges([[1, 2], [3, 4]])
# verify-recursion sweeps: (model, --deg, the values of --m, the edges).  F_3
# at m = 2 is the slowest sweep of the symbolic-q wall; F_3 at m = 1 is left
# out, and P^4 keeps the four edges out of one fixed point (its edges are
# alike up to a permutation of the weights), so that a run fits two rounds.
RECURSION_SWEEPS = (("@f1", 3, (1, 2), SURFACE_EDGES), ("@f2", 3, (1, 2), SURFACE_EDGES),
                    ("@f3", 3, (2,), SURFACE_EDGES),
                    ("@p4", 5, (1, 2), [e for e in edges([[1, 2, 3, 4, 5]])
                                        if e.startswith("1:")]))


def _cli_mixed_jobs(text: str) -> list[list[str]]:
    model, k = "@" + _name(text), _rank(text)
    trace_phi = "3*P1^2" + "".join(f"*P{i}" for i in range(2, k + 1)) + " - P1 + 5/2"
    xd_phi = "(p1 - l1)*(p1 - l2 - z) + 3/2"
    return [
        _job("inspect", model),
        _job("kirwan", model),
        _job("trace", model, "--phi", trace_phi),
        _job("integrate-xd", model, "--degree", ",".join(["0"] * k), "--phi", xd_phi),
        _job("integrate-xd", model, "--degree", ",".join(["1"] * k), "--phi", xd_phi),
        _job("verify-coh", model, "--deg", 3),
        _job("verify-dq", model, "--deg", 3),
        _job("ifunction", model, "--deg", 3),
    ]


def workload_models(workload: str) -> list[str]:
    """Model file texts a workload's worker writes and resolves during set-up."""
    if workload == "recursion-symbolic":
        return [hirzebruch(1), hirzebruch(2), hirzebruch(3), projective(4)]
    if workload == "cone-box":
        return [lines_product(3), lines_product(4),
                product("p1xp1xp2", LINE, LINE, PLANE),
                product("p1xp2xp2", LINE, PLANE, PLANE),
                product("f1xp1", hirzebruch_rows(1), LINE),
                product("f2xp1", hirzebruch_rows(2), LINE)]
    if workload == "series-numeric":
        return [bundle_on_plane("E"), bundle_on_plane("PiE"), projective(2),
                projective(4)]
    if workload == "cli-mixed":
        return list(CLI_MIXED_MODELS)
    raise ValueError(f"unknown workload {workload!r}")


def workload_args(workload: str) -> list[list[str]]:
    """The fixed job list of a workload, before seeds and order are applied."""
    if workload == "recursion-symbolic":
        return [_job("verify-recursion", model, "--m", m, "--deg", deg, "--edge", edge)
                for model, deg, ms, model_edges in RECURSION_SWEEPS
                for m in ms for edge in model_edges]
    if workload == "cone-box":
        # Rank 3 and 4 at degrees where a job takes 0.1-0.6 s, so that the
        # job costs spread out.  Their cost hardly depends on the seed, so
        # the readings of one command form a group; an odd number of
        # commands keeps the median inside a group, not between two.
        return ([_job("ifunction", model, "--deg", deg)
                 for model, deg in (("@p1x3", 4), ("@p1x3", 5),
                                    ("@p1x4", 2), ("@p1xp1xp2", 3), ("@p1xp1xp2", 4),
                                    ("@p1xp2xp2", 3), ("@f1xp1", 3), ("@f2xp1", 3),
                                    ("@f2xp1", 4))]
                + [_job("verify-dq", model, "--deg", deg)
                   for model, deg in (("@p1x3", 3), ("@p1x3", 4), ("@p1xp1xp2", 3),
                                      ("@p1xp2xp2", 3), ("@f1xp1", 3), ("@f2xp1", 3))])
    if workload == "series-numeric":
        # Rank-1 models only: their boxes are a line of degrees, so the cone
        # layers stay idle and the time is series arithmetic.
        return (
            [_job("ifunction", model, "--bundle", "--deg", 20)
             for model in ("@p2_o1_o2", "@p2_o1_o2_pi")]
            + [_job(cmd, model, "--deg", deg)
               for model, deg in (("@p4", 24), ("@p4", 40), ("@p2", 30))
               for cmd in ("verify-dq", "verify-coh")]
            + [_job(lib, model, "--deg", deg)
               for lib in ("lib:point_series", "lib:gamma_reconstruction")
               for model, deg in (("@p2", 20), ("@p4", 16))]
        )
    if workload == "cli-mixed":
        return [args for text in CLI_MIXED_MODELS for args in _cli_mixed_jobs(text)]
    raise ValueError(f"unknown workload {workload!r}")


# Library defect kept visible: at the seed commit this job exits 2 because a
# coefficient has more than 4300 decimal digits and str() refuses to render it
# (Python's int-to-str conversion limit).  It is run once per series-numeric
# run, outside the timed job list, and its outcome is reported on its own line.
KNOWN_DEFECT = {
    "workload": "series-numeric",
    "args": _job("ifunction", "@p2_o1_o2", "--bundle", "--deg", 30),
    "exit": 2,
    "message": "Exceeds the limit (4300 digits) for integer string conversion",
}


def job_key(args: list[str]) -> str:
    return " ".join(args)


def seed_pool(workload: str) -> tuple[int, ...]:
    """The job seeds of a workload; reference.json has a digest for each."""
    return JOB_SEEDS[:POOL_SIZE[workload]]


def rounds(workload: str, seconds: float) -> int:
    """How many rounds a run of ``seconds`` makes."""
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def run_plan(workload: str, seed: int, seconds: float) -> list[list[dict]]:
    """The job list of every pass of a run: one pass per pool seed and round.

    The workload seed sets the order of the pool seeds and of the jobs in
    every pass.
    """
    rng = random.Random(f"{workload}/{seed}")
    base = [{"args": args, "key": job_key(args)} for args in workload_args(workload)]
    plan = []
    for _ in range(rounds(workload, seconds)):
        pool = list(seed_pool(workload))
        rng.shuffle(pool)
        for job_seed in pool:
            jobs = [dict(job, seed=job_seed) for job in base]
            rng.shuffle(jobs)
            plan.append(jobs)
    return plan
