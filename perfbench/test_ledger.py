"""Unit tests of the benchmark's arithmetic (perfbench/ledger.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import ledger


def trial(**overrides):
    t = {"trial": 0, "kind": "drop", "wall_ms": 100.0, "injected": 1000,
         "delivered": 990, "dropped": 10, "unroutable": 0, "events": 5000,
         "fault_injected": True, "ranks": {"mars": 1, "syndb": 2},
         "mars_telemetry_bytes": 4000}
    t.update(overrides)
    return t


class QuantileTest(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(ledger.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(ledger.quantile([4, 1, 3, 2], 0.5), 2.5)

    def test_ends_are_min_and_max(self):
        values = [5.0, 1.0, 9.0, 7.0]
        self.assertEqual(ledger.quantile(values, 0.0), 1.0)
        self.assertEqual(ledger.quantile(values, 1.0), 9.0)

    def test_interpolates_between_order_statistics(self):
        # 0.8 of the way along 4 values sits at position 2.4.
        self.assertAlmostEqual(ledger.quantile([10, 20, 30, 40], 0.8), 34.0)

    def test_single_value(self):
        self.assertEqual(ledger.quantile([7.5], 0.9), 7.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            ledger.quantile([], 0.5)
        with self.assertRaises(ValueError):
            ledger.quantile([1, 2], 1.5)


class KindAggregateTest(unittest.TestCase):
    def test_one_kind_is_the_plain_median(self):
        kinds = ledger.by_kind([trial(wall_ms=w) for w in (30, 10, 20)])
        self.assertAlmostEqual(ledger.kind_median_wall_ms(kinds), 20)

    def test_kinds_weigh_alike(self):
        trials = ([trial(kind="drop", wall_ms=w) for w in (9, 10, 11)] +
                  [trial(kind="ecmp", wall_ms=w) for w in (1000, 900)])
        kinds = ledger.by_kind(trials)
        self.assertEqual(list(kinds), ["drop", "ecmp"])
        # medians 10 and 950: geometric mean sqrt(9500)
        self.assertAlmostEqual(ledger.kind_median_wall_ms(kinds),
                               9500 ** 0.5)

    def test_throughput_pools_every_trial(self):
        trials = [trial(kind="drop", injected=1000, wall_ms=100),
                  trial(kind="drop", injected=3000, wall_ms=100),
                  trial(kind="ecmp", injected=2000, wall_ms=1000)]
        # 6000 pkts / 1.2 s
        self.assertAlmostEqual(ledger.pkts_per_s(trials), 5000)

    def test_throughput_weighs_a_costly_kind_by_its_cost(self):
        cheap = [trial(kind="drop", injected=1000, wall_ms=100)] * 4
        costly = [trial(kind="ecmp", injected=1000, wall_ms=1000)]
        slow = [trial(kind="ecmp", injected=1000, wall_ms=3000)]
        # Tripling the one costly kind halves the throughput (5000 pkts
        # over 1.4 s, then over 3.4 s), where a mean over kinds would
        # move by far less.
        self.assertAlmostEqual(ledger.pkts_per_s(cheap + costly) /
                               ledger.pkts_per_s(cheap + slow), 3.4 / 1.4)


class ReferenceSpeedTest(unittest.TestCase):
    REF = ledger.REFERENCE_HOST_NS

    def test_a_slow_host_scales_down(self):
        # The chains took 1.5x the reference time per step.
        self.assertAlmostEqual(ledger.at_reference_speed(150.0, 1.5 * self.REF),
                               100.0)
        self.assertAlmostEqual(ledger.at_reference_speed(0.5, self.REF), 0.5)

    def test_rejects_a_speed_that_is_not_positive(self):
        with self.assertRaises(ValueError):
            ledger.at_reference_speed(1.0, 0.0)

    def test_scaled_trials_keep_the_measured_wall(self):
        original = trial(wall_ms=120.0, host_ns=1.2 * self.REF)
        (scaled,) = ledger.scaled_trials([original])
        self.assertAlmostEqual(scaled["wall_ms"], 100.0)
        self.assertEqual(scaled["measured_wall_ms"], 120.0)
        self.assertEqual(original["wall_ms"], 120.0)

    def test_one_speed_for_the_whole_run(self):
        trials = [trial(wall_ms=90.0, host_ns=self.REF),
                  trial(wall_ms=120.0, host_ns=2 * self.REF)]
        scaled = ledger.scaled_trials(trials, host_ns=1.5 * self.REF)
        self.assertEqual([t["wall_ms"] for t in scaled], [60.0, 80.0])

    def test_scaling_cancels_a_uniform_slowdown(self):
        walls = (80, 100, 120)
        fast = ledger.scaled_trials(
            [trial(wall_ms=w, host_ns=2.0) for w in walls])
        slow = ledger.scaled_trials(
            [trial(wall_ms=w * 1.4, host_ns=2.8) for w in walls])
        self.assertAlmostEqual(ledger.kind_median_wall_ms(ledger.by_kind(fast)),
                               ledger.kind_median_wall_ms(ledger.by_kind(slow)))
        self.assertAlmostEqual(ledger.pkts_per_s(fast), ledger.pkts_per_s(slow))


class RecallTest(unittest.TestCase):
    def test_recall_counts_ranks_within_k(self):
        ranks = [1, 2, None, 3, 5]
        self.assertAlmostEqual(ledger.recall_at(ranks, 1), 0.2)
        self.assertAlmostEqual(ledger.recall_at(ranks, 3), 0.6)
        self.assertAlmostEqual(ledger.recall_at(ranks, 5), 0.8)

    def test_unlisted_truth_is_a_miss(self):
        self.assertEqual(ledger.recall_at([None, None], 10), 0.0)

    def test_rejects_no_graded_trials(self):
        with self.assertRaises(ValueError):
            ledger.recall_at([], 1)


class FailureTest(unittest.TestCase):
    def test_healthy_trial(self):
        self.assertIsNone(ledger.failure(trial()))

    def test_thrown_trial(self):
        self.assertIn("boom", ledger.failure({"trial": 3, "error": "boom"}))

    def test_fault_not_injected(self):
        self.assertEqual(ledger.failure(trial(fault_injected=False)),
                         "fault not injected")

    def test_conservation(self):
        self.assertIsNone(ledger.failure(trial(delivered=900, dropped=100)))
        self.assertIn("conservation",
                      ledger.failure(trial(delivered=991, dropped=10)))

    def test_failure_ratio(self):
        trials = [trial(), {"error": "x"}, trial(fault_injected=False),
                  trial()]
        self.assertEqual(ledger.failure_ratio(trials), (2, 4))


class ConsistencyTest(unittest.TestCase):
    def traced(self, **overrides):
        t = trial()
        t["traced"] = {"injected": 1000, "delivered": 990, "events": 5001,
                       "ticks": 1, "ranks": {"mars": 1, "syndb": 2}}
        t["traced"].update(overrides)
        return t

    def test_passes_agree_up_to_sampler_ticks(self):
        self.assertEqual(ledger.consistency(self.traced()), [])

    def test_every_difference_is_reported(self):
        problems = ledger.consistency(self.traced(
            delivered=989, events=5003, ranks={"mars": 2, "syndb": 2}))
        self.assertEqual(len(problems), 3)


class AccountTest(unittest.TestCase):
    # A 100 ms trial: deploy 10 ms, run [10, 90], grade 10 ms.
    SPANS = [
        ["simulator.run", 10.0, 80.0],
        ["controller.poll", 20.0, 2.0],
        ["controller.ring_drain", 30.0, 1.0],
        ["rca.analyze", 40.0, 5.0],
        ["rca.sbfl", 41.0, 2.0],
        ["rca.localize", 43.0, 1.0],
        # After the run (grading): part of grade, not of rca.
        ["rca.analyze", 95.0, 1.0],
    ]

    def traced(self, observer_ns, untraced_ms=100.0):
        return {"wall_ms": untraced_ms, "traced": {
            "trial_ms": 100.0, "spans": self.SPANS,
            "observers": {"mars": {"ns": observer_ns, "calls": 10}}}}

    def test_layers_tile_the_trial(self):
        a = ledger.account(self.traced(30e6, untraced_ms=96.0))
        self.assertAlmostEqual(a["deploy"], 10.0)
        self.assertAlmostEqual(a["grade"], 10.0)
        self.assertAlmostEqual(a["control"], 3.0)
        # analyze's self time (2) plus its children (2 + 1)
        self.assertAlmostEqual(a["rca"], 5.0)
        self.assertAlmostEqual(a["observers"], 30.0)
        # traced wall 100 less untraced 96
        self.assertAlmostEqual(a["tracing"], 4.0)
        # run 80 less control 3, rca 5, observers 30 and tracing 4
        self.assertAlmostEqual(a["substrate"], 38.0)
        self.assertAlmostEqual(a["unattributed"], 0.0)
        self.assertEqual(set(a), set(ledger.LEDGER_LAYERS))

    def test_over_claimed_run_shows_as_negative_remainder(self):
        a = ledger.account(self.traced(100e6))
        self.assertEqual(a["substrate"], 0.0)
        self.assertAlmostEqual(a["unattributed"],
                               100.0 - (10 + 100 + 3 + 5 + 10))

    def test_without_probe_the_run_is_all_substrate(self):
        trial = self.traced(0)
        trial["traced"]["observers"] = None
        a = ledger.account(trial)
        self.assertAlmostEqual(a["substrate"], 72.0)

    def test_requires_one_run_span(self):
        with self.assertRaises(ValueError):
            ledger.account({"wall_ms": 1.0, "traced": {
                "trial_ms": 1.0, "spans": [], "observers": None}})

    def test_span_totals(self):
        traced = self.traced(0)["traced"]
        self.assertEqual(ledger.span_totals(traced, "controller."),
                         (3.0, 2))
        self.assertEqual(ledger.span_totals(traced, "rca.analyze"),
                         (6.0, 2))


if __name__ == "__main__":
    unittest.main()
