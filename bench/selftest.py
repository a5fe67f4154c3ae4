"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They run a tiny job list (three cli-mixed jobs) through the same code as a
real run, so they take a few seconds.  The file name keeps pytest from
collecting it with the library's tests.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import worker
import workloads

END_TO_END, PER_LAYER = run.declared_metrics()
REFERENCE = json.loads((run.BENCH / "reference.json").read_text())


def tiny_jobs() -> list[dict]:
    seed = workloads.seed_pool("cli-mixed")[0]
    return [{"args": args, "seed": seed, "key": workloads.job_key(args)}
            for args in workloads.workload_args("cli-mixed")[:3]]


class TinyRun(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".bench_selftest"))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_tiny(self, reference, trace):
        return run.run_workload([tiny_jobs(), tiny_jobs()], 1,
                                workloads.workload_models("cli-mixed"), reference,
                                trace=trace, work=self.work / "run")

    def test_every_named_metric_is_printed_with_its_unit(self):
        for trace, declared, section in ((False, END_TO_END, "end_to_end"),
                                         (True, PER_LAYER, "per_layer")):
            result = self.run_tiny(REFERENCE, trace)
            line = json.loads(run.result_line(result, declared, result[section]))
            self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(line["correct"], result["failures"])
            self.assertEqual(line["failed"], 0)
            self.assertEqual(line["attempted"], 6)
            self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, declared)
            for name, metric in line["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                for name in declared:
                    self.assertGreater(line["metrics"][name]["value"], 0, name)

    def test_tampered_digest_fails_the_job(self):
        reference = copy.deepcopy(REFERENCE)
        job = tiny_jobs()[1]
        digests = reference["digests"][job["key"]]
        digests[str(job["seed"])] = "0" * len(digests[str(job["seed"])])
        result = self.run_tiny(reference, trace=False)
        self.assertEqual(result["attempted"], 6)
        self.assertEqual(result["failed"], 2)
        self.assertTrue(all(key == job["key"] and "differ" in why
                            for key, _, why in result["failures"]))
        line = json.loads(run.result_line(result, END_TO_END, result["end_to_end"]))
        self.assertFalse(line["correct"])


class Restoration(unittest.TestCase):
    def test_tracing_leaves_every_attribute_original(self):
        qtoric = worker.import_qtoric()
        from qtoric import scalars, series

        def snapshot():
            owners = [m for name, m in sys.modules.items()
                      if name == "qtoric" or name.startswith("qtoric.")]
            owners += [series.NovikovSeries, scalars.QRational]
            return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}

        before = snapshot()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(qtoric.cli.main, before[(id(qtoric.cli), "main")])
            self.assertIsNot(qtoric.recursion.component_series,
                             before[(id(qtoric.recursion), "component_series")])
            code, out = worker.run_cli(["verify-dq", "f1", "--deg", "3", "--seed", "5",
                                        "--samples", "1"])
            self.assertEqual(code, 0)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.unrestored(), [])
        after = snapshot()
        self.assertEqual(after.keys(), before.keys())
        self.assertTrue(all(after[k] is before[k] for k in before))
        self.assertGreater(tracer.stats["qdiff.verify_dq_system"].calls, 0)


if __name__ == "__main__":
    unittest.main()
