"""Tests of the benchmark's own pieces: its GF(q) rank routines, formulas,
brute-force ball, reference scaling, tracer and output checks.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import sys
import tempfile
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import refclock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Instance  # noqa: E402


class RankTest(unittest.TestCase):
    def test_rank_mod_q_small_cases(self):
        self.assertEqual(oracle.rank_mod_q([[1, 0, 0], [0, 1, 0]], 3), 2)
        self.assertEqual(oracle.rank_mod_q([[0, 0], [0, 0]], 5), 0)
        r1, r2 = [1, 2, 0, 1], [0, 1, 1, 2]
        r3 = [(a + 2 * b) % 3 for a, b in zip(r1, r2)]
        self.assertEqual(oracle.rank_mod_q([r1, r2, r3], 3), 2)
        self.assertEqual(oracle.rank_mod_q([[2, 4], [1, 2]], 5), 1)

    def test_packed_gf2_rank_matches_digit_rank(self):
        rng = random.Random(7)
        for _ in range(300):
            vecs = [rng.randrange(1 << 6) for _ in range(rng.randrange(1, 8))]
            digits = [oracle.to_digits(v, 2, 6) for v in vecs]
            self.assertEqual(oracle.rank_gf2_packed(vecs),
                             oracle.rank_mod_q(digits, 2))

    def test_rank_distance_is_a_metric_on_samples(self):
        rng = random.Random(3)
        for q, m in ((2, 5), (3, 3), (5, 2)):
            words = [[rng.randrange(q ** m) for _ in range(4)]
                     for _ in range(6)]
            for u in words:
                self.assertEqual(oracle.rank_distance(u, u, q, m), 0)
                for v in words:
                    duv = oracle.rank_distance(u, v, q, m)
                    self.assertEqual(duv, oracle.rank_distance(v, u, q, m))
                    for w in words:
                        self.assertLessEqual(
                            duv, oracle.rank_distance(u, w, q, m)
                            + oracle.rank_distance(w, v, q, m))


class FormulaTest(unittest.TestCase):
    def test_gaussian_binomials(self):
        self.assertEqual(oracle.gaussian_binomial(4, 2, 2), 35)
        self.assertEqual(oracle.gaussian_binomial(4, 2, 3), 130)
        self.assertEqual(oracle.gaussian_binomial(3, 0, 4), 1)

    def test_list_sizes(self):
        self.assertEqual(oracle.explicit_list_size(2, 6, 2, 1), 21)
        self.assertEqual(oracle.explicit_list_size(2, 10, 2, 1), 341)
        self.assertEqual(oracle.counting_radius(6, 3, 2), 2)
        self.assertEqual(oracle.counting_list_bound(2, 6, 2, 2), 21)
        self.assertEqual(oracle.counting_radius(12, 2, 3), 6)


class BallTest(unittest.TestCase):
    def test_field_product(self):
        fld = oracle.PrimeExtension(2, [1, 1, 0, 0, 1])   # x^4 + x + 1
        for a in range(1, 16):
            self.assertEqual(fld.power(a, 15), 1)
        self.assertEqual(fld.mul(2, 8), 3)                 # x * x^3 = x + 1

    def test_tiny_ball(self):
        # Gab[2,1] over GF(2^2) = GF(2)[x]/(x^2+x+1), points 1 and x: the
        # code is {(a, a x)} = {(0,0), (1,x), (x,x+1), (x+1,1)}.  From
        # (1, 0) the differences are (1,0), (0,x), (x+1,x+1) of rank 1 and
        # (x,1) of rank 2.
        args = (2, 2, 1, [1, 1, 1], [1, 2])
        self.assertEqual(len(oracle.brute_force_ball(*args, [0, 0], 2)), 4)
        self.assertEqual(oracle.brute_force_ball(*args, [1, 0], 1),
                         [(0, 0), (1, 2), (2, 3)])


class ReferenceScalingTest(unittest.TestCase):
    def test_scale(self):
        nominal = refclock.NOMINAL_UNIT_S
        self.assertAlmostEqual(refclock.scale(2.0, 2 * nominal), 1.0)
        self.assertAlmostEqual(refclock.scale(1.5, nominal), 1.5)

    def test_reference_work_reads_its_nominal_time(self):
        # A call made of k reference units reads about k nominal units,
        # however fast the machine runs it.
        k = 200
        clock = refclock.Clock()
        expected = k * refclock.NOMINAL_UNIT_S
        scaled = statistics.median(
            clock.time(lambda: [refclock.reference_unit() for _ in range(k)]
                       ).scaled_s for _ in range(5))
        self.assertGreater(scaled, 0.7 * expected)
        self.assertLess(scaled, 1.3 * expected)

    def test_samples_are_excluded_from_raw_time(self):
        # A sample that sleeps 3 ms every 5 ms makes the call last about
        # 2.5 times as long; its raw seconds must read as without samples.
        def work():
            for _ in range(5_000_000):
                pass

        # Without the exclusion the ratio is above 2.5.  Timings alternate,
        # so that a change of the machine's speed meets both kinds.
        clock = refclock.Clock()
        sampled, bare = [], []
        with mock.patch.object(refclock, "reference_unit",
                               lambda: time.sleep(0.003)):
            for _ in range(3):
                sampled.append(clock.time(work))
                with mock.patch.object(refclock, "SAMPLE_INTERVAL_S", 100.0):
                    bare.append(clock.time(work))
        self.assertTrue(all(t.samples > 10 for t in sampled))
        self.assertTrue(all(t.samples == 0 for t in bare))
        ratio = (statistics.median(t.raw_s for t in sampled)
                 / statistics.median(t.raw_s for t in bare))
        self.assertGreater(ratio, 0.5)
        self.assertLess(ratio, 1.8)


class TracerTest(unittest.TestCase):
    def test_counts_self_time_and_restores(self):
        from ranklab import gabidulin, subspace_code
        code = gabidulin.make_code(2, 2, 2, 1)
        original = subspace_code.codewords
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(subspace_code.codewords, original)
            words = list(subspace_code.codewords(code))
            gabidulin.rank_distance(words[1], words[2])
        finally:
            tracer.uninstall()
        self.assertIs(subspace_code.codewords, original)
        self.assertIs(gabidulin.codewords, original)
        stats = tracer.stats
        self.assertEqual(stats["gabidulin.codewords"].calls, 1)
        self.assertEqual(stats["gabidulin.codewords"].words, 4)
        self.assertEqual(stats["gabidulin.rank_distance"].calls, 1)
        self.assertEqual(stats["gfmatrix.rank_gf2"].calls, 1)
        self.assertGreaterEqual(stats["gabidulin.rank_distance"].self_s, 0)

    def test_ball_words_are_the_rank_tests_it_makes(self):
        # One rank test per codeword on both the q = 2 and the odd-q path;
        # rank tests made elsewhere are not the ball's words.
        from ranklab import gabidulin
        for q, m, k in ((2, 4, 2), (3, 2, 1)):
            code = gabidulin.make_code(q, m, m, k)
            center = next(iter(gabidulin.codewords(code)))
            tracer = Tracer()
            tracer.install()
            try:
                gabidulin.enumerate_ball(code, center, 1)
                gabidulin.rank_distance(center, center)
            finally:
                tracer.uninstall()
            self.assertEqual(tracer.stats["gabidulin.enumerate_ball"].words,
                             code.size)

    def test_a_cheaper_ball_oracle_reads_fewer_words(self):
        from ranklab import gabidulin
        code = gabidulin.make_code(2, 4, 4, 2)

        def cheap_ball(code, center, tau, budget=0):
            for w in itertools.islice(gabidulin.codewords(code), 3):
                gabidulin.rank_distance(center, w)
            return []

        with mock.patch.object(gabidulin, "enumerate_ball", cheap_ball):
            tracer = Tracer()
            tracer.install()
            try:
                center = next(iter(gabidulin.codewords(code)))
                gabidulin.enumerate_ball(code, center, 1)
            finally:
                tracer.uninstall()
        self.assertEqual(tracer.stats["gabidulin.enumerate_ball"].words, 3)


class ScheduleTest(unittest.TestCase):
    def test_every_call_once_and_staggered(self):
        import run
        for workload in run.WORKLOADS.values():
            runner = run.Runner(workload, 1, "", None)
            sched = runner.schedule()
            rounds = max(workload.reps.values())
            self.assertTrue(all(0 <= r < rounds for r, *_ in sched))
            for i in range(len(workload.instances)):
                for s, stage in enumerate(run.STAGES):
                    mine = [(r, last) for r, j, t, last in sched
                            if (j, t) == (i, s)]
                    self.assertEqual(len(mine), workload.reps[stage])
                    self.assertEqual([last for _, last in mine],
                                     [False] * (len(mine) - 1) + [True])
        q2 = run.Runner(run.WORKLOADS["q2-exhaustive"], 1, "", None)
        lifts = [r for r, _, t, _ in q2.schedule() if t == 2]
        self.assertEqual(len(set(lifts)), len(lifts))


class OutputCheckTest(unittest.TestCase):
    def test_checks_pass_and_catch_a_moved_codeword(self):
        from ranklab.adversarial import (build_explicit_instance,
                                         instance_to_dict)
        inst = Instance("tiny", "explicit", 2, 4, 4, 2, s=1)
        data = instance_to_dict(build_explicit_instance(2, 2, 1, 4, 4))
        self.assertTrue(all(ok for _, ok, _ in
                            checks.check_instance_file(inst, data)))
        data["codewords"][0][0] ^= 1
        self.assertFalse(all(ok for _, ok, _ in
                             checks.check_instance_file(inst, data)))

    def test_known_ball_requires_the_oracle_checks(self):
        from ranklab.adversarial import (build_explicit_instance,
                                         instance_to_dict, verify_instance)
        from ranklab.subspace_code import verify_lifted_instance
        inst = Instance("tiny", "explicit", 2, 4, 4, 2, s=1)
        built = build_explicit_instance(2, 2, 1, 4, 4)
        data = instance_to_dict(built)
        exact = len(oracle.ball_of_instance(data))
        for check, report, name in (
                (checks.check_verify_report, verify_instance(built),
                 "ball_oracle_containment"),
                (checks.check_lift_report, verify_lifted_instance(built),
                 "ball_relation_inequality")):
            report = report.to_dict()
            self.assertTrue(check(inst, data, report, exact)[0][1])
            for c in report["checks"]:
                if c["name"] == name:
                    c["status"] = "skipped"
            self.assertFalse(check(inst, data, report, exact)[0][1], name)
            self.assertTrue(check(inst, data, report, None)[0][1], name)
            report["checks"] = [c for c in report["checks"]
                                if c["name"] != name]
            self.assertFalse(check(inst, data, report, exact)[0][1], name)

    def test_missing_output_is_a_failed_check(self):
        import run
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(run.WORKLOADS["odd-exhaustive"], 1, tmp, None)
            runner._check("verify", runner.workload.instances[0])
        self.assertEqual((runner.tally.attempted, runner.tally.failed), (1, 1))
        self.assertFalse(runner.tally.correct)


if __name__ == "__main__":
    unittest.main()
