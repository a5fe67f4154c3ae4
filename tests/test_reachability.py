"""Every public library function is reached by the commands, or kept for a named role.

The eight commands run in-process (``cli.main``) on every bundled model, with
the extra paths listed in ``RUNS``, and ``point_series`` and
``gamma_reconstruction`` run on one fixed point as ``bench/worker.run_lib``
runs them, under a profile hook that records every code object called.  A
public function or method of a ``src/qtoric`` module (a name without a
leading underscore, or a constructor) that is never reached must be in
``KEPT`` with its role; a ``KEPT`` name that is reached, or no longer exists,
fails too.  Exception classes are left out: their methods run on error paths,
which these runs do not take.  The library's caches are cleared first, so a
cached function is reached here even when an earlier test filled its cache.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import qtoric
from qtoric import cli, models, qdiff, scalars, series, toric
from test_qdiff import F1_SKEW

COMMON = ["--seed", "11", "--samples", "1"]

KEPT = {
    "localization.cotangent_euler": "test oracle: the Fraction route of recursion_oracle",
    "models.bundled_model_names": "model constructor: lists the bundled models the tests load",
    "models.hirzebruch": "model constructor",
    "models.product_of_lines": "model constructor",
    "models.projective_space": "model constructor",
    "qdiff.apply_p": "test oracle: the operator words of word_oracle",
    "qdiff.apply_translation": "test oracle: the operator words of word_oracle",
    "qdiff.apply_word": "test oracle: the operator words of word_oracle",
    "qdiff.verify_shifted_identity": "demo entry point: demos/04",
    "recursion.edge_euler_class": "demo entry point: demos/05",
    "scalars.QPoly.__init__": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.constant": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.degree": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.divmod": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.evaluate": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.is_zero": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.monic": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.q_power": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.scale": "test oracle: the dense q-polynomial field",
    "scalars.QPoly.subst_power": "test oracle: the dense q-polynomial field",
    "scalars.QRational.__init__": "bench hook: bench/tracer.py counts its calls",
    "scalars.QRational.constant": "test oracle: the dense q-rational field",
    "scalars.QRational.evaluate": "test oracle: the dense q-rational field",
    "scalars.QRational.is_zero": "test oracle: the dense q-rational field",
    "scalars.QRational.q": "test oracle: the dense q-rational field",
    "scalars.QRational.subst_power": "test oracle: the dense q-rational field",
    "scalars.finite_ratio": "test oracle: the finite ratio one depth at a time",
    "scalars.finite_ratio_sym": "test oracle: the finite ratio over the dense field",
    "scalars.poly_gcd": "test oracle: the dense q-rational field",
    "scalars.q_factor": "test oracle: the dense q-rational field",
    "scalars.residue_at": "test oracle: residues over the dense field",
    "series.NovikovSeries.coefficient": "bench hook: bench/tracer.py wraps it",
    "series.NovikovSeries.map_coefficients": "test oracle: series arithmetic",
    "series.NovikovSeries.scale": "test oracle: series arithmetic",
    "series.TruncationBox.contains": "demo entry point: adams (demos/03) and multiply",
    "series.adams": "demo entry point: demos/03",
    "series.constant_series": "test oracle: series arithmetic",
    "series.multiply": "test oracle: series arithmetic",
    "toric.ToricData.column": "test oracle: map_space_model's columns",
    "toric.equivariant_p_values": "test oracle: p(alpha) against localization_oracle",
    "toric.fixed_point": "test oracle: the tests' lookup of a fixed point by its columns",
    "toric.map_space_model": "test oracle: localization_oracle's extended model",
}


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
