"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs the real benchmark on the solve workload (about 15 s), plus in-process
checks of the references, the failure accounting and the tracer.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import squint  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from worker import _digest, run_op, run_pass  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    """Every metric BENCHMARK.json names is emitted, with its unit."""

    def _assert_matches(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end(self):
        result = _bench("--workload", "solve", "--seed", "2", "--seconds", "1",
                        "--trace", "0")
        self._assert_matches(result, _spec()["end_to_end"])
        # the high-gain probes fail in every pass, and nothing else does
        reqs = workloads.solve_requests(2)
        known = sum(1 for r in reqs if r["known_defect"])
        self.assertEqual(result["failed"] * len(reqs), result["attempted"] * known)

    def test_per_layer(self):
        result = _bench("--workload", "solve", "--seed", "2", "--seconds", "1",
                        "--trace", "1")
        self._assert_matches(result, _spec()["per_layer"])
        self.assertGreater(result["metrics"]["resolution.solves"]["value"], 0)

    def test_design_names_declared_metrics(self):
        spec = _spec()
        names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} | {"fail_frac"}
        with open(os.path.join(HERE, "design.json")) as fh:
            design = json.load(fh)
        self.assertEqual(set(design["workloads"]), {w["name"] for w in spec["workloads"]})
        for row in design["predictions"]:
            for name in row["layer_metrics"] + row["should_move"]:
                self.assertIn(name, names)

    def test_missing_source_tree_exits_nonzero(self):
        saved = run.ROOT
        run.ROOT = os.path.join(HERE, "no-such-tree")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "scan", "--seed", "1"])
        finally:
            run.ROOT = saved
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


class WrongReferenceFails(unittest.TestCase):
    """A reference that does not match the output is counted as a failure."""

    def _first(self, workload, check):
        return next(r for r in workloads.REQUESTS[workload](1) if r["check"] == check)

    def _wrong(self, req, **changes):
        bad = json.loads(json.dumps(req))
        bad["ref"].update(changes)
        return bad

    def test_scan_closed_form(self):
        req = self._first("scan", "closed_form")
        _, out, err = run_op(squint, req)
        self.assertEqual(err, "")
        self.assertEqual(workloads.check(squint, req, out), "")
        self.assertNotEqual(
            workloads.check(squint, self._wrong(req, G=req["ref"]["G"] * 1.001), out), "")

    def test_resolve_root(self):
        req = self._first("solve", "root")
        _, out, _ = run_op(squint, req)
        self.assertEqual(workloads.check(squint, req, out), "")
        cfg = dict(req["ref"]["config"], G=req["ref"]["config"]["G"] * 1.001)
        self.assertNotEqual(workloads.check(squint, self._wrong(req, config=cfg), out), "")

    def test_fail_frac_rises(self):
        ops = [{"label": "x", "s": 0.1, "error": "", "known_defect": None, "digest": "a"}
               for _ in range(4)]
        good = {"ops": ops}
        bad = {"ops": [dict(ops[0], error="kappa off")] + ops[1:]}
        self.assertEqual(sum(bool(e) for _, e in run.judge([good, good])), 0)
        judged = run.judge([bad, good, good])
        self.assertEqual(sum(bool(e) for _, e in judged), 3)   # once per pass
        changed = {"ops": [dict(ops[0], digest="b")] + ops[1:]}
        self.assertEqual(sum(bool(e) for _, e in run.judge([good, changed])), 1)

    def test_high_gain_probe_is_a_known_failure(self):
        req = next(r for r in workloads.solve_requests(1) if r["known_defect"])
        _, out, err = run_op(squint, req)
        self.assertNotEqual(err or workloads.check(squint, req, out), "")


class Tracing(unittest.TestCase):
    def test_outputs_identical_and_counted(self):
        reqs = [r for r in workloads.solve_requests(3)[:8]]
        reqs += [workloads.scan_requests(3)[0], workloads.oracle_requests(3)[1]]
        plain, _ = run_pass(squint, reqs)
        tracer = Tracer()
        traced, _ = run_pass(squint, reqs, tracer)
        self.assertEqual([_digest(o) for _, o, _ in plain], [_digest(o) for _, o, _ in traced])
        self.assertEqual(tracer.missing, [])
        m = layer_metrics(tracer)
        self.assertEqual(m["cli.calls"][0], 9)
        self.assertGreaterEqual(m["interferometer.evaluate.calls"][0], 1000)
        self.assertGreater(m["fock.apply_unitary.calls"][0], 0)
        self.assertEqual(m["resolution.solves"][0], 8)
        self.assertEqual(m["gaussian.builds_per_evaluate"][0], 4)

    def test_restore_unpatches(self):
        before = (squint.interferometer.evaluate, squint.resolution._CRITERIA["modified"],
                  squint.fock.apply_unitary_fock)
        tracer = Tracer().install()
        try:
            self.assertIsNot(squint.resolution.evaluate, before[0])
            self.assertIsNot(squint.resolution._CRITERIA["modified"], before[1])
        finally:
            tracer.restore()
        after = (squint.interferometer.evaluate, squint.resolution._CRITERIA["modified"],
                 squint.fock.apply_unitary_fock)
        self.assertEqual(before, after)

    def test_self_time_subtracts_direct_children(self):
        spans = [[-1, "a", 0.0, 10.0], [0, "b", 1.0, 4.0], [1, "c", 2.0, 3.0],
                 [0, "b", 5.0, 6.0]]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])


class Requests(unittest.TestCase):
    def test_seeded(self):
        for name, make in workloads.REQUESTS.items():
            self.assertEqual(make(5), make(5), name)
            self.assertNotEqual(make(5), make(6), name)

    def test_cli_parses_back_every_value(self):
        # seed 131021059 draws a scan delta1 that repr writes as -2.28...e-06
        parser = squint.cli._build_parser()
        for seed in [*range(200), 131021059]:
            for name, make in workloads.REQUESTS.items():
                for req in make(seed):
                    if req["argv"] is None or "config" not in req["ref"]:
                        continue
                    args = parser.parse_args(req["argv"])
                    for field, value in req["ref"]["config"].items():
                        self.assertEqual(getattr(args, field), value, (name, seed, field))


if __name__ == "__main__":
    unittest.main()
