"""Set-up, statistics and shared quality measurements for the workloads."""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.model import T3Model
from repro.datagen.benchmarks_job import job_queries
from repro.datagen.instances import get_instance
from repro.engine.optimizer import Optimizer, OptimizerConfig
from repro.engine.simulator import ExecutionSimulator
from repro.experiments.cache import DiskCache
from repro.experiments.context import ExperimentContext, ExperimentScale
from repro.joinorder import CoutJoinCost, JoinGraph, T3JoinCost, dpsize
from repro.joinorder.dpsize import tree_to_logical
from repro.joinorder.joingraph import GraphCardinalityModel
from repro.metrics import summarize_predictions
from repro.trees.serialize import dumps_model

import checks

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 2


@dataclass
class Run:
    """One benchmark run: its arguments, private directory and tallies."""

    seed: int
    seconds: float
    trace: bool
    tmp: Path
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    setup_times: List[float] = field(default_factory=list)
    #: Model text of the T3 each set-up trained, in set-up order.
    model_texts: List[str] = field(default_factory=list)

    def rng(self, stream: str) -> np.random.Generator:
        """A generator for one named input stream of this run's seed."""
        return np.random.default_rng([self.seed,
                                      zlib.crc32(stream.encode("ascii"))])

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, problems: Sequence[str]) -> None:
        """Record wrong outputs; any makes the run's ``correct`` false."""
        self.problems.extend(problems)

    def note_failure(self, message: str) -> None:
        """An operation that raised: counted in ``failed``, while
        ``correct`` speaks only of the operations that answered."""
        self.failed += 1
        print(f"failed: {message}", file=sys.stderr)

    def set_up(self, build: Callable[[int], object],
               release: Callable[[object], None] = None) -> object:
        """Run ``build(i)`` :data:`SETUP_REPEATS` times, timing each, and
        return the last result; ``release`` frees each earlier one."""
        result = None
        for i in range(SETUP_REPEATS):
            if result is not None and release is not None:
                release(result)
            started = time.perf_counter()
            result = build(i)
            self.setup_times.append(time.perf_counter() - started)
        return result


def smoke_context(run: Run, index: int) -> ExperimentContext:
    """The smoke-scale experiment context with a fresh private cache,
    its workload built (serially, so set-up time does not depend on the
    number of cores)."""
    ctx = ExperimentContext(ExperimentScale.smoke(),
                            cache=DiskCache(run.tmp / f"cache-{index}"),
                            jobs=1)
    ctx.workload()
    return ctx


def smoke_t3(run: Run, index: int) -> Tuple[ExperimentContext, T3Model]:
    """The smoke context and the smoke T3 it trains and compiles
    (``T3Model.train`` on the 755 training queries, 40 rounds, MAPE),
    the model's text kept for :func:`check_set_up_trainings`."""
    ctx = smoke_context(run, index)
    model = ctx.t3()
    run.model_texts.append(dumps_model(model.booster))
    return ctx, model


def check_set_up_trainings(run: Run) -> None:
    """Every set-up of the run trained byte-identical model text."""
    run.check(checks.check_identical_texts(run.model_texts))


def latency_metrics(run: Run, latencies_s: Sequence[float],
                    ops_per_s: float) -> None:
    """``op_p50_ms``, ``op_p90_ms`` and ``ops_per_s``.

    p90 needs ten samples beyond it; with fewer than 100 latencies the
    slowest is reported instead.
    """
    ms = [x * 1e3 for x in latencies_s]
    run.metric("op_p50_ms", statistics.median(ms), "ms")
    tail = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 100 else max(ms)
    run.metric("op_p90_ms", tail, "ms")
    run.metric("ops_per_s", ops_per_s, "1/s")


class Repetitions:
    """Latencies of inputs that every round repeats.

    The host's speed drifts by up to 2x within fractions of a second,
    from other tenants of the machine. So the latency of an input is the
    median of its repetitions in the run, taken on both CPUs (see
    :func:`rounds_across_cpus`), and the throughput is the rate those
    latencies give: inputs / sum of their median latencies. Over many
    repetitions the median averages the host's drift out; the fastest
    repetition does not, since it depends on whether the run happened on
    a quiet stretch (README.md, Host noise, has the comparison).
    """

    def __init__(self, n_inputs: int):
        self.seconds: List[List[float]] = [[] for _ in range(n_inputs)]

    def op(self, index: int, seconds: float) -> None:
        self.seconds[index].append(seconds)

    def report(self, run: Run) -> None:
        answered = [statistics.median(x) for x in self.seconds if x]
        latency_metrics(run, answered, len(answered) / math.fsum(answered))


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process so far, set-up included."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def qerror_metrics(run: Run, predicted: Sequence[float],
                   actual: Sequence[float]) -> None:
    summary = summarize_predictions(predicted, actual)
    run.metric("qerror_p50", summary.p50, "ratio")
    run.metric("qerror_p90", summary.p90, "ratio")


def deadline_loop(seconds: float, min_rounds: int = 1):
    """Yield round numbers until ``seconds`` have passed and at least
    ``min_rounds`` rounds ran; every round is whole, so each run attempts
    whole rounds of the same operations."""
    end = time.perf_counter() + seconds
    round_index = 0
    while True:
        yield round_index
        round_index += 1
        if round_index >= min_rounds and time.perf_counter() >= end:
            return


def rounds_across_cpus(seconds: float):
    """:func:`deadline_loop` whose rounds alternate over the CPUs this
    process may run on.

    The host's slowdowns come from other tenants and often hit one CPU
    at a time, while the scheduler leaves a busy process on the CPU it
    runs on. Moving each round to the next CPU gives every input as many
    repetitions on each CPU (see :class:`Repetitions`), so a run does not
    depend on which CPU it started on.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        for round_index in deadline_loop(seconds):
            os.sched_setaffinity(0, {cpus[round_index % len(cpus)]})
            yield round_index
    finally:
        os.sched_setaffinity(0, allowed)


class JobSuite:
    """The 113 JOB join graphs over ``imdb`` and what is needed to run
    the plans DPsize picks for them."""

    def __init__(self) -> None:
        self.instance = get_instance("imdb")
        self.queries = [(name, JoinGraph.from_logical(logical,
                                                      self.instance.catalog))
                        for name, logical in job_queries(self.instance)]
        # Forced plans: the engine must not restructure the join order.
        self.optimizer = Optimizer(
            self.instance.schema, self.instance.catalog,
            OptimizerConfig(enable_small_table_elimination=False,
                            enable_index_nl_join=False))
        self.simulator = ExecutionSimulator(self.instance.catalog)

    def t3_cost(self, model: T3Model) -> T3JoinCost:
        return T3JoinCost(model.predict_raw_one, model.registry,
                          self.instance.catalog)

    def plan(self, name: str, graph: JoinGraph, tree):
        """Physical plan of a join tree, and the graph-backed
        cardinality model that executes it faithfully."""
        plan = self.optimizer.optimize(tree_to_logical(tree, graph), name)
        return plan, GraphCardinalityModel(graph, self.instance.catalog)

    def plan_quality(self, model: T3Model, t3_trees: Sequence = None
                     ) -> Dict[str, object]:
        """Simulated time of the plans T3 and C_out choose for all 113
        queries, and T3's predictions and simulated times for its own
        chosen plans. ``t3_trees`` are the trees T3 already chose; a
        query whose entry is ``None`` (its DPsize failed) is left out."""
        t3_total = cout_total = 0.0
        predicted: List[float] = []
        simulated: List[float] = []
        for i, (name, graph) in enumerate(self.queries):
            if t3_trees is None:
                tree = dpsize(graph, self.t3_cost(model)).tree
            elif t3_trees[i] is None:
                continue
            else:
                tree = t3_trees[i]
            plan, cards = self.plan(name, graph, tree)
            seconds = self.simulator.query_time(plan, cards)
            t3_total += seconds
            predicted.append(model.predict_query(plan, cards))
            simulated.append(seconds)
            cout_plan, cout_cards = self.plan(
                name, graph, dpsize(graph, CoutJoinCost()).tree)
            cout_total += self.simulator.query_time(cout_plan, cout_cards)
        return {"t3_s": t3_total, "cout_s": cout_total,
                "predicted": predicted, "simulated": simulated}


def plan_exec_metric(run: Run, quality: Dict[str, object]) -> None:
    """``plan_exec_ratio``: simulated execution time of the T3-chosen JOB
    plans over that of the C_out-chosen plans."""
    run.metric("plan_exec_ratio", quality["t3_s"] / quality["cout_s"],
               "ratio")
    print(f"JOB plans, simulated: T3 {quality['t3_s']:.2f}s, "
          f"C_out {quality['cout_s']:.2f}s", file=sys.stderr)
