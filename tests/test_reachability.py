"""Every public library function is reached by the commands, or kept for a named role.

The eight commands run in-process (``cli.main``) on every bundled model, with
the extra paths listed in ``runs``, and ``point_series`` and
``gamma_reconstruction`` run on one fixed point as ``bench/worker.run_lib``
runs them, under a profile hook that records every code object called.  A
public function or method of a ``src/qtoric`` module (a name without a
leading underscore, or a constructor) that is never reached must be in
``KEPT`` with its role; a ``KEPT`` name that is reached, or no longer exists,
fails too.  Exception classes are left out: their methods run on error paths,
which these runs do not take.  The library's caches are cleared first, so a
cached function is reached here even when an earlier test filled its cache.

A role is one of three: ``model constructor``, ``demo entry point:
demos/<file>`` or ``bench hook: bench/<file>``.  A file role fails when the
file is missing or no longer mentions the name.  ``scalars.QRational`` is a
stub with no arithmetic, kept only because the benchmark's tracer patches its
constructor; its role is keyed to the class name, so when the tracer stops
naming ``QRational`` the stub is due to leave ``src``.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import qtoric
from qtoric import cli, models, qdiff, scalars, series, toric
from test_qdiff import F1_SKEW

COMMON = ["--seed", "11", "--samples", "1"]

# The QRational stub stays in src only because bench/tracer.py patches its
# __init__: its role is keyed to the class name.
TRACER_STUB = "scalars.QRational."

BENCH_TRACER = "bench hook: bench/tracer.py"

KEPT = {
    "models.bundled_model_names": "model constructor",
    "models.hirzebruch": "model constructor",
    "models.product_of_lines": "model constructor",
    "models.projective_space": "model constructor",
    "qdiff.verify_shifted_identity": "demo entry point: demos/04_q_difference_system.py",
    "recursion.edge_euler_class": "demo entry point: demos/05_residue_recursion_and_bundles.py",
    "scalars.QRational.__init__": BENCH_TRACER,
    "series.NovikovSeries.coefficient": BENCH_TRACER,
    "series.NovikovSeries.scale": "demo entry point: demos/03_series_and_q_exponential.py",
    "series.TruncationBox.contains": BENCH_TRACER,
    "series.adams": "demo entry point: demos/03_series_and_q_exponential.py",
}

# The roles a kept name may have: a file role names a demo or a bench file.
ROLE = re.compile(r"model constructor|demo entry point: (demos/\S+)|bench hook: (bench/\S+)")


def runs(tmp_path):
    """The argument lists: all eight commands per bundled model, then the
    paths those do not take."""
    out = []
    for name in models.bundled_model_names():
        zero = ",".join("0" * models.load_bundled_model(name).data.K)
        out += [["inspect", name], ["kirwan", name],
                ["trace", name, "--phi", "P1^2 - 1/L1"],
                ["ifunction", name, "--deg", "2"],
                ["verify-dq", name, "--deg", "2"],
                ["verify-recursion", name, "--deg", "2"],
                ["verify-coh", name, "--deg", "2"],
                ["integrate-xd", name, "--degree", zero, "--phi", "p1 + l1*z"]]
    # F_1 in a skew basis, given as a file path; its ample class pairs
    # negatively with e_2, so verify-dq's source d - e_2 can lie beyond the box.
    skew = tmp_path / "f1_skew.model"
    skew.write_text(F1_SKEW + "truncation ample 2 -1\n")
    out += [["ifunction", "p2_o1_o2", "--deg", "2", "--bundle"],
            ["verify-recursion", "f1", "--deg", "2", "--m", "2"],
            ["integrate-xd", "f1", "--degree", "1,0", "--phi", "p1*p2"],  # D_4 = -1
            ["verify-dq", str(skew), "--deg", "6"]]
    return [argv + COMMON for argv in out]


def run_lib():
    """``point_series`` and ``gamma_reconstruction`` at one fixed point."""
    model = models.resolve_model("f1")
    data = model.data
    box = series.truncation_box(data, 2, model.ample)
    ctx = scalars.sample_context(data.N, 11)
    fp = toric.enumerate_fixed_points(data)[0]
    left, right = series.point_series(fp.q_monomials, box, ctx)
    assert left == right
    left, right = qdiff.gamma_reconstruction(data, fp, box, ctx)
    assert left == right


def _code(obj, filename):
    """The code object behind a function, method, property or cached
    function, when it was written in ``filename``."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    obj = getattr(obj, "fget", None) or getattr(obj, "func", None) or obj
    code = getattr(inspect.unwrap(obj), "__code__", None) if callable(obj) else None
    return code if code is not None and code.co_filename == filename else None


def library():
    """Each module's public functions and methods by dotted name, and the modules."""
    public, modules = {}, []
    for info in pkgutil.iter_modules(qtoric.__path__):
        module = importlib.import_module(f"qtoric.{info.name}")
        modules.append(module)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not inspect.isclass(obj):
                public[f"{info.name}.{name}"] = _code(obj, module.__file__)
            elif obj.__module__ == module.__name__ and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") or attr == "__init__":
                        public[f"{info.name}.{name}.{attr}"] = _code(member, module.__file__)
    return {name: code for name, code in public.items() if code is not None}, modules


def test_every_public_function_is_reached_or_kept(tmp_path):
    public, modules = library()
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    argvs = runs(tmp_path)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        run_lib()
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(argvs)
    unreached = {name for name, code in public.items() if code not in reached}
    assert sorted(unreached - KEPT.keys()) == []
    assert sorted(KEPT.keys() - unreached) == []


def mention(name):
    """The word a kept name's demo or bench file must contain."""
    return "QRational" if name.startswith(TRACER_STUB) else name.rsplit(".", 1)[-1]


def test_every_kept_role_is_a_named_file_that_still_uses_the_name():
    root = Path(__file__).resolve().parent.parent
    for name, role in KEPT.items():
        match = ROLE.fullmatch(role)
        assert match, f"{name}: {role!r} is not a kept role"
        path = match.group(1) or match.group(2)
        if path is not None:
            assert (root / path).is_file(), f"{name}: {path} is missing"
            text = (root / path).read_text()
            assert re.search(rf"\b{re.escape(mention(name))}\b", text), \
                f"{name}: {path} no longer mentions {mention(name)}"
