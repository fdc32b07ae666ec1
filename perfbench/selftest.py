"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They run two short ``fedtiny-select`` runs (about 10 s) and check that
tracing never changes results, that an altered result record counts as a
failed run, and that the printed metric and workload names are the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import copy
import json
import unittest

import run
from workloads import REFERENCE_SEED, WORKLOADS

WORKLOAD = "fedtiny-select"
HELD_OUT_SEED = 3


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        runner = run.Runner(WORKLOAD, HELD_OUT_SEED, run.clock())
        cls.untraced = runner.run()
        cls.traced = runner.run(trace=True)
        cls.declared = json.loads(
            (run.ROOT / "BENCHMARK.json").read_text()
        )

    def test_runs_finish(self) -> None:
        self.assertTrue(self.untraced["ok"], self.untraced.get("error"))
        self.assertTrue(self.traced["ok"], self.traced.get("error"))

    def test_tracing_never_changes_results(self) -> None:
        self.assertEqual(self.untraced["digest"], self.traced["digest"])
        self.assertEqual(
            run.check_outputs(WORKLOAD, HELD_OUT_SEED,
                              [self.untraced, self.traced], None, {}),
            0,
        )

    def test_altered_record_is_a_failed_run(self) -> None:
        altered = copy.deepcopy(self.untraced)
        altered["record"]["rounds"][-1]["test_accuracy"] += 1e-9
        altered["digest"] = run.digest(altered["record"])
        self.assertNotEqual(altered["digest"], self.untraced["digest"])
        # Repeat check: two disagreeing runs both fail.
        self.assertEqual(
            run.check_outputs(WORKLOAD, HELD_OUT_SEED,
                              [self.untraced, altered], None, {}),
            2,
        )
        # Cross-executor check: a twin that disagrees fails the runs.
        self.assertEqual(
            run.check_outputs(WORKLOAD, HELD_OUT_SEED,
                              [self.untraced], altered, {}),
            1,
        )
        # Reference check at the reference seed.
        self.assertEqual(
            run.check_outputs(WORKLOAD, REFERENCE_SEED, [altered], None,
                              {WORKLOAD: self.untraced["digest"]}),
            1,
        )
        self.assertEqual(
            run.check_outputs(WORKLOAD, REFERENCE_SEED, [self.untraced],
                              None, {WORKLOAD: self.untraced["digest"]}),
            0,
        )

    def test_crashed_run_is_a_failed_run(self) -> None:
        crashed = {"kind": "run", "ok": False, "error": "exit 1"}
        self.assertEqual(
            run.check_outputs(WORKLOAD, HELD_OUT_SEED,
                              [self.untraced, crashed], None, {}),
            1,
        )

    def test_names_match_benchmark_json(self) -> None:
        declared = self.declared
        self.assertEqual(
            [w["name"] for w in declared["workloads"]], list(WORKLOADS)
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]},
            run.END_TO_END,
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["per_layer"]},
            run.PER_LAYER,
        )
        setups = [self.untraced["setup_s"]]
        printed = run.end_to_end_metrics([self.untraced], setups)
        self.assertEqual(sorted(printed), sorted(run.END_TO_END))
        printed = run.per_layer_metrics(self.traced, self.untraced)
        self.assertEqual(sorted(printed), sorted(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
