"""Self-test of the benchmark: tiny instances, metric names, oracle rejection.

    python3 perfbench/selftest.py

Runs a tiny instance (workloads.SIZES[True]) of every workload, untraced and
traced, and checks that every metric of BENCHMARK.json prints in the last
line with its unit, that every other line names a metric with its unit and
sample count, and that only the known defect fails.  It checks that the
tracer also wraps the names one module imports from another and the traced
class methods.  Then it feeds each kind of oracle a deliberately wrong value
and checks that it is rejected.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class TinyWorkloads(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected_failures = result["attempted"] // 3 if workload == "cusp-montecarlo" else 0
                    self.assertEqual(result["failed"], expected_failures)
                    self.assertEqual([m["name"] for m in SPEC[key]], list(result["metrics"]))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                        self.assertTrue(math.isfinite(m["value"]), name)
                    table = {}
                    for line in lines:
                        if not line.startswith("#"):
                            name, _value, unit, samples = line.split()
                            self.assertTrue(samples.startswith("n="), line)
                            table[name] = unit
                    for name in ("pass_s", "setup_s", "peak_rss_mb", "error_rate", *result["metrics"]):
                        self.assertIn(name, table)
                    for name, unit in table.items():
                        self.assertEqual(unit, units.get(name, unit))


class TracerWrapsEveryName(unittest.TestCase):
    def test_reimported_names_and_methods(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import tracer
        from compopnum import cli, geometry, opmatrix, series, symbols

        t = tracer.Tracer()
        t.install()
        self.assertIs(cli.assemble, opmatrix.assemble)
        self.assertIs(cli.singular_spectrum, opmatrix.singular_spectrum)
        self.assertIs(opmatrix.power_coefficient_table, series.power_coefficient_table)
        self.assertIs(opmatrix.dirichlet_power_norms, series.dirichlet_power_norms)
        geometry.CuspRegion().annulus_area(0.5)
        geometry.BlaschkeProduct((0.5,), 1).abs2([0.1, 0.2])
        symbols.parse_symbol("compose(affine:r=0.5,theta=0,cusp)").evaluate(0.25)
        stats = t.summary()
        self.assertEqual(stats["geometry.CuspRegion.annulus_area"]["calls"], 1)
        self.assertEqual(stats["geometry.BlaschkeProduct.abs2"]["points"], 2)
        self.assertEqual(stats["symbols.evaluate"]["points"], 1)  # nested factor calls not counted
        for name, st in stats.items():
            self.assertGreaterEqual(st.get("self_s", 0.0), 0.0, name)


class OracleRejects(unittest.TestCase):
    def setUp(self):
        self.oracle = workloads.load_oracle()

    def jobs(self, workload, tiny=False):
        return {job.metric or job.label: job for job in workloads.jobs(workload, 1, self.oracle, tiny)[0]}

    def assert_rejects(self, job, observed):
        with self.assertRaises(workloads.OracleError):
            job.verify(observed)

    def test_recorded_values(self):
        for workload in ("cusp-spectrum", "cusp-geometry"):
            for job in self.jobs(workload).values():
                want = self.oracle[job.label]
                job.verify(want)  # the recorded value itself passes
                for key, value in want.items():
                    if isinstance(value, float):
                        self.assert_rejects(job, {**want, key: value * (1 + 1e-5)})
                    elif isinstance(value, list) and value and isinstance(value[0], float):
                        self.assert_rejects(job, {**want, key: [value[0] * 1.01, *value[1:]]})
                    else:
                        self.assert_rejects(job, {**want, key: "wrong"})

    def test_contraction_closed_form(self):
        jobs = self.jobs("contraction-spectrum")
        r = workloads.jobs("contraction-spectrum", 1, self.oracle)[1]["r"]
        values = [r**n for n in range(1, 513)]
        jobs["an_s"].verify({"floor": 1e-9, "values": values})
        self.assert_rejects(jobs["an_s"], {"floor": 1e-9, "values": [values[0] * (1 + 1e-9), *values[1:]]})
        self.assert_rejects(jobs["an_s"], {"floor": 1.0, "values": values})
        c = {f"upper-law[r={s}].{k}": 1 / math.sqrt(5) for s in (0.3, 0.5, 0.7) for k in ("C_5_40", "C_5_80")}
        jobs["verify_s"].verify(c)
        self.assert_rejects(jobs["verify_s"], {**c, "upper-law[r=0.7].C_5_80": 0.45})

    def test_monte_carlo_within_sigmas(self):
        cusp, rotated, affine = workloads.jobs("cusp-montecarlo", 1, self.oracle)[0]
        exact = self.oracle[workloads.cusp_annulus_key(workloads.T_CUSP)]
        sigma = exact * 1e-3
        cusp.verify({"value": exact + 4 * sigma, "std_error": sigma})
        self.assert_rejects(cusp, {"value": exact + 6 * sigma, "std_error": sigma})
        self.assert_rejects(cusp, {"value": exact, "std_error": 0.0})
        self.assert_rejects(rotated, {"value": 0.0, "std_error": 0.0})  # the known defect
        self.assertIsNotNone(rotated.known_defect)
        self.assertIsNone(affine.known_defect)


if __name__ == "__main__":
    unittest.main(verbosity=2)
