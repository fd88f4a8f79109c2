"""Self-tests for the benchmark: determinism of job lists and gate sensitivity.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENG = None


def setUpModule():
    global ENG
    ENG = workloads.load_engine(run.ROOT)


def _find(ctx, prefix):
    return next(j for rnd in ctx.rounds for j in rnd if j.kind.startswith(prefix))


class JobLists(unittest.TestCase):
    def test_same_seed_same_job_list(self):
        for name in ("levels", "certify", "radical"):
            self.assertEqual(joblib.job_rounds(name, 11), joblib.job_rounds(name, 11), name)

    def test_other_seed_other_job_list(self):
        for name in ("levels", "certify", "radical"):
            self.assertNotEqual(joblib.job_rounds(name, 11), joblib.job_rounds(name, 12), name)

    def test_round_composition_is_fixed(self):
        kinds = [sorted(j.kind for j in rnd) for rnd in joblib.job_rounds("certify", 3)]
        self.assertTrue(all(k == kinds[0] for k in kinds))
        self.assertIn("tensor/reproducer", kinds[0])

    def test_kac_first_level(self):
        # t = 2: h_{1,3} = h_{1,1} = 0, so the first degenerate level is 1
        h, c = joblib.h_rs(1, 3, joblib.Fraction(2)), joblib.c_of_t(joblib.Fraction(2))
        self.assertEqual(joblib.kac_first_level(h, c, 5), 1)
        h = joblib.h_rs(2, 2, joblib.Fraction(2))
        self.assertEqual(joblib.kac_first_level(h, c, 5), 4)
        self.assertIsNone(joblib.kac_first_level(joblib.Fraction(1, 2), joblib.Fraction(1, 3), 5))


class Gates(unittest.TestCase):
    def test_perturbed_kernel_vector_fails(self):
        ctx = workloads.Radical(ENG, 5)
        job = next(j for j in ctx.rounds[0] if j.id.endswith("/kac") and j.spec["level"] == 8)
        result = ctx.execute(job)
        self.assertTrue(result)
        self.assertTrue(ctx.gate(job, result).ok)
        bad = [list(v) for v in result]
        bad[0][0] = bad[0][0] + 1
        self.assertFalse(ctx.gate(job, bad).ok)
        self.assertFalse(ctx.gate(job, result[1:]).ok)
        self.assertFalse(ctx.gate(job, [[2 * x for x in result[0]]] + result[1:]).ok)

    def test_corrupted_level_table_fails(self):
        ctx = workloads.Levels(ENG, 5)
        job = _find(ctx, "split 2/kac")
        vm, table = ctx.execute(job)
        self.assertTrue(ctx.gate(job, (vm, table)).ok)
        bad = [list(row) for row in table]
        bad[-1][2] += 1
        bad[-1][1] -= 1
        self.assertFalse(ctx.gate(job, (vm, bad)).ok)

    def _certify(self):
        return workloads.Certify(ENG, 5, config_dir=os.path.join(run.ROOT, ".bench_out", "selftest"))

    def test_flipped_tensor_verdict_fails(self):
        ctx = self._certify()
        job = _find(ctx, "tensor/trivial")
        code, out, err = ctx.execute(job)
        self.assertTrue(ctx.gate(job, (code, out, err)).ok)
        data = json.loads(out)
        data["generated_by_pure_tensors"] = not data["generated_by_pure_tensors"]
        verdict = ctx.gate(job, (1 - code, json.dumps(data), err))
        self.assertFalse(verdict.ok)
        # only the ROADMAP reproducer is a known defect; a new false negative is not
        self.assertFalse(verdict.known)

    def test_corrupted_certificate_fails_replay(self):
        ctx = self._certify()
        job = _find(ctx, "endo-probe/split2")
        code, out, err = ctx.execute(job)
        self.assertTrue(ctx.gate(job, (code, out, err)).ok)
        data = json.loads(out)
        tampered = copy.deepcopy(data)
        app = next(a for a in tampered["applications"] if a["output"])
        app["output"][0][3] = str(ENG.scalars.scalar(app["output"][0][3]) + 1)
        verdict = ctx.gate(job, (code, json.dumps(tampered), err))
        self.assertFalse(verdict.ok)
        self.assertIn("replay", verdict.reason)
        flipped = dict(data, status="fail")
        self.assertFalse(ctx.gate(job, (code, json.dumps(flipped), err)).ok)

    def test_generation_check_reproducer_counts_as_failure(self):
        ctx = self._certify()
        job = _find(ctx, "tensor/reproducer")
        verdict = ctx.gate(job, ctx.execute(job))
        self.assertFalse(verdict.ok)
        self.assertTrue(verdict.known)


class Metrics(unittest.TestCase):
    def test_setup_times_come_from_fresh_processes(self):
        times, cals = run.time_setups("certify", 5)
        self.assertGreaterEqual(len(times), run.SETUP_MIN_RUNS)
        self.assertGreaterEqual(sum(times), run.SETUP_MIN_TOTAL_S)
        self.assertEqual(len(cals), len(times))
        self.assertTrue(all(t > 0 for t in times + cals))

    def test_timed_run_stops_at_a_cycle_end(self):
        jobs = [joblib.Job(f"fake/{i}", "fake") for i in range(3)]
        ctx = SimpleNamespace(
            rounds=[jobs[:2], jobs[2:]], execute=lambda job: time.sleep(0.01), gate=lambda job, result: workloads.PASS
        )
        durations, cals, failures, cycles = run.run_timed(ctx, 0.05)
        self.assertEqual(len(durations), 3 * cycles)
        self.assertEqual(len(cals), len(durations))
        done = sum(run.scaled(durations, cals)) >= 0.05 or sum(durations) >= run.WALL_CAP * 0.05
        self.assertTrue(done)
        self.assertEqual(failures, [])

    def test_scaled_times_follow_the_calibration(self):
        ref = run.CAL_REF_S
        for got, want in zip(run.scaled([1.0, 3.0], [ref, 2 * ref]), [1.0, 1.5]):
            self.assertAlmostEqual(got, want)

    def test_tail_has_ten_samples_beyond(self):
        value, pct = run.tail([float(x) for x in range(1, 31)])
        self.assertEqual(value, 20.0)
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_missing_wrapped_name_reads_absent_and_zero(self):
        tracer = tracing.Tracer()
        tracer._patch("virloop.verma", "VermaModule.no_such_method", lambda fn: fn)
        tracer._patch("virloop.no_such_module", "fn", lambda fn: fn)
        self.assertEqual(len(tracer.absent), 2)
        metrics = tracer.metrics()
        self.assertEqual({n for n, _ in tracing.PER_LAYER}, set(metrics))
        self.assertTrue(all(m["value"] == 0 for m in metrics.values()))

    def test_install_uninstall_restores_engine(self):
        before = ENG.verma.VermaModule.__init__, ENG.cli.main
        tracer = tracing.Tracer()
        tracer.install()
        self.assertEqual(tracer.absent, [])
        self.assertIsNot(ENG.cli.main, before[1])
        tracer.uninstall()
        self.assertEqual((ENG.verma.VermaModule.__init__, ENG.cli.main), before)


if __name__ == "__main__":
    unittest.main()
