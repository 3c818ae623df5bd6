"""Self-test of the benchmark harness at tiny sizes: python3 perfbench/selftest.py

Checks span parenting across pool threads, the self-time arithmetic, the
correctness gate on injected deviations, one real traced CLI pass, and that
BENCHMARK.json declares exactly the figures the harness reports.
"""

import json
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor

import run
from check import check
from layers import PER_LAYER, layer_metrics
from spans import Span, Tracer, busy_time, children_of, propagate_to_pools, self_times


class SpanParenting(unittest.TestCase):
    def _pooled(self, tracer):
        def work(i):
            with tracer.span("work"):
                time.sleep(0.01)
            return threading.get_ident()

        with tracer.span("sweep"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                idents = list(pool.map(work, range(4)))
        sweep = next(s for s in tracer.spans if s.name == "sweep")
        return sweep, [s for s in tracer.spans if s.name == "work"], idents

    def test_worker_spans_take_the_submitting_span_as_parent(self):
        tracer = Tracer()
        with propagate_to_pools(tracer):
            sweep, work, idents = self._pooled(tracer)
        self.assertEqual(len(work), 4)
        self.assertTrue(all(s.parent == sweep.id for s in work))
        self.assertTrue(all(s.thread != sweep.thread for s in work))
        self.assertEqual({s.thread for s in work}, set(idents))

    def test_thread_local_stacks_alone_orphan_worker_spans(self):
        # the failure propagate_to_pools exists to prevent
        tracer = Tracer()
        _, work, _ = self._pooled(tracer)
        self.assertTrue(all(s.parent is None for s in work))

    def test_nested_spans_on_one_thread(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        self.assertEqual(inner.parent, outer.id)
        self.assertIsNone(outer.parent)


class SelfTime(unittest.TestCase):
    # parent [0, 10] on thread 1; children on threads 2 and 3 overlap at [3, 4];
    # the thread-1 child runs past the parent's end and is clipped to 10
    SPANS = [Span(1, "sweep", 0.0, 10.0, 1, None),
             Span(2, "a", 1.0, 4.0, 2, 1),
             Span(3, "b", 3.0, 6.0, 3, 1),
             Span(4, "c", 8.0, 12.0, 1, 1),
             Span(5, "d", 8.5, 9.0, 1, 4)]

    def test_overlapping_children_are_subtracted_once(self):
        own = self_times(self.SPANS)
        self.assertAlmostEqual(own[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[4], 4.0 - 0.5)
        self.assertAlmostEqual(own[5], 0.5)
        self.assertAlmostEqual(sum(own.values()), 3.0 + 3.0 + 3.0 + 3.5 + 0.5)

    def test_busy_time_sums_threads(self):
        sweep = self.SPANS[0]
        kids = children_of(self.SPANS)[sweep.id]
        self.assertAlmostEqual(busy_time(sweep, kids), 3.0 + 3.0 + 2.0)

    def test_refinement_split(self):
        spans = [
            Span(1, "experiments.run_n_scaling", 0.0, 10.0, 1, None),
            Span(2, "evolve.propagate_static", 0.0, 2.0, 1, 1),
            Span(3, "squeezing.optimal_squeezing", 2.0, 10.0, 1, 1),
            Span(4, "squeezing.squeezing_curve", 2.0, 3.0, 1, 3),
            Span(5, "squeezing.xi_squared", 2.0, 3.0, 1, 4),
            Span(6, "evolve.propagate_static", 3.0, 5.0, 1, 3),
            Span(7, "squeezing.xi_squared", 5.0, 6.0, 1, 3),
        ]
        m = layer_metrics(spans)
        self.assertEqual(m["evolve.propagate_static.traj_calls"], 1)
        self.assertEqual(m["evolve.propagate_static.refine_calls"], 1)
        self.assertAlmostEqual(m["evolve.propagate_static.refine_self_s"], 2.0)
        self.assertEqual(m["squeezing.refine_evals"], 1.0)
        self.assertAlmostEqual(m["squeezing.refine_share"], 7.0 / 2.0)
        self.assertAlmostEqual(m["squeezing.xi_squared.us_per_call"], 1e6)
        self.assertAlmostEqual(m["experiments.pool_parallelism"], 1.0)


class Gate(unittest.TestCase):
    REF = {"ratio": [0.2, 0.6, 1.0],
           "optimal_xi2": [0.1, 0.05, 0.08],
           "optimal_time": [0.3, 0.2, 0.25]}

    def perturbed(self, column, row, delta):
        cols = {k: list(v) for k, v in self.REF.items()}
        cols[column][row] += delta
        return cols

    def test_clean_output_passes(self):
        self.assertEqual(check(self.REF, self.REF), (3, 0, 0.0))

    def test_injected_deviations(self):
        self.assertEqual(check(self.perturbed("optimal_xi2", 1, 2e-6), self.REF)[1], 1)
        self.assertEqual(check(self.perturbed("optimal_xi2", 1, 5e-7), self.REF)[1], 0)
        self.assertEqual(check(self.perturbed("optimal_time", 2, 2e-4), self.REF)[1], 1)
        self.assertEqual(check(self.perturbed("optimal_time", 2, 5e-5), self.REF)[1], 0)
        self.assertEqual(check(self.perturbed("ratio", 0, 1e-3), self.REF)[1], 1)
        self.assertAlmostEqual(check(self.perturbed("optimal_xi2", 0, 3e-7), self.REF)[2], 3e-7)

    def test_missing_values_fail_every_point_they_hold(self):
        cols = {k: v for k, v in self.REF.items() if k != "optimal_time"}
        self.assertEqual(check(cols, self.REF)[1], 3)
        cols = {k: v[:2] for k, v in self.REF.items()}
        self.assertEqual(check(cols, self.REF)[1], 3)
        self.assertEqual(check(self.perturbed("optimal_xi2", 0, float("nan")), self.REF)[1], 1)

    def test_stored_reference_flags_injected_deviation(self):
        ref = run.load_reference()["workloads"]
        for name, entries in ref.items():
            cols = {k: list(v) for k, v in entries[0].items()}
            points, failed, _ = check(cols, entries[0])
            self.assertEqual(failed, 0, name)
            xi2 = next(k for k in cols if k.startswith(("optimal_xi2", "xi_squared")))
            cols[xi2][-1] += 1.5e-6
            self.assertEqual(check(cols, entries[0])[1], 1, name)


class TinyTracedPass(unittest.TestCase):
    ARGS = ["scan-n", "--hamiltonians", "tat-xz,oat", "--n-list", "4,5,6,7,8",
            "--format", "json"]

    def test_pool_spans_nest_under_the_sweep(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + 120
        p = run.run_pass(self.ARGS + ["--threads", "2"], "selftest-t2", deadline, trace=True)
        self.assertEqual(p["rc"], 0, p.get("stderr"))
        spans = [Span(**s) for s in p["spans"]]
        by_id = {s.id: s for s in spans}
        sweep = next(s for s in spans if s.name == "experiments.run_n_scaling")
        workers = [s for s in spans if s.thread != sweep.thread]
        self.assertTrue(workers)
        for s in workers:
            while s.parent is not None and s.parent != sweep.id:
                s = by_id[s.parent]
            self.assertEqual(s.parent, sweep.id)
        m = layer_metrics(spans)
        self.assertEqual(m["squeezing.optimal_squeezing.calls"], 10)
        self.assertLess(m["experiments.sweep.self_s"], 0.5 * sweep.duration)
        self.assertGreater(m["experiments.pool_parallelism"], 0.5)
        one = run.run_pass(self.ARGS + ["--threads", "1"], "selftest-t1", deadline)
        self.assertEqual(one["rc"], 0, one.get("stderr"))
        self.assertEqual(p["out"].read_bytes(), one["out"].read_bytes())


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(PER_LAYER))
        self.assertEqual(spec["run_seconds"], run.DEFAULT_SECONDS)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
