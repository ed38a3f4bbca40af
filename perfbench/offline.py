"""The in-process workloads: predict_tpcds and join_order_job."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import build_dataset, cardinality_model_for
from repro.core.model import T3Model
from repro.joinorder import dpsize

import checks
import layers
from common import (
    SETUP_REPEATS,
    JobSuite,
    Repetitions,
    Run,
    check_set_up_trainings,
    own_peak_rss_mb,
    plan_exec_metric,
    qerror_metrics,
    rounds_across_cpus,
    smoke_t3,
)
from tracer import Tracer, install


def _smoke_t3(run: Run, index: int):
    """Set-up of both workloads: the smoke workload, the smoke T3
    trained and compiled from it, and the JOB join graphs."""
    ctx, model = smoke_t3(run, index)
    return ctx, model, JobSuite()


def _set_up_traced(run: Run, set_up_tracer: Tracer):
    """:func:`_smoke_t3`, the last set-up of a traced run under
    ``set_up_tracer``, which times the training layers (dataset build,
    binning, tree growth, codegen and gcc) apart from the spans of the
    measured operations."""
    def build(index: int):
        if not (run.trace and index == SETUP_REPEATS - 1):
            return _smoke_t3(run, index)
        install(set_up_tracer)
        set_up_tracer.enabled = True
        try:
            return _smoke_t3(run, index)
        finally:
            set_up_tracer.enabled = False
            set_up_tracer.close()
    return run.set_up(build)


def training_matrix_check(model: T3Model, queries: Sequence) -> List[str]:
    """Compiled against interpreted predictions on the model's own
    training matrix (``build_dataset``, the bulk featurization path)."""
    config = model.config
    X = build_dataset(queries, kind=config.cardinalities,
                      registry=model.registry, seed=config.seed).X
    return checks.check_close(
        "compiled vs interpreted on the training matrix",
        model.predict_raw_batch(X), model.booster.predict(X))


def tpcds_predictions_check(model: T3Model, queries: Sequence,
                            predicted: Sequence[Optional[float]]
                            ) -> List[str]:
    """Compiled answers against the interpreter (one batched
    ``BoostedTreesModel.predict``) and against the sum of the query's
    own pipeline times."""
    answered = [i for i, value in enumerate(predicted) if value is not None]
    blocks, cards, sums = [], [], []
    for i in answered:
        query = queries[i]
        card_model = cardinality_model_for(query, model.config.cardinalities)
        vectors, query_cards = model.registry.vectors_for_plan(query.plan,
                                                               card_model)
        blocks.append(vectors)
        cards.append(query_cards)
        sums.append(float(model.predict_pipeline_times(
            query.plan, card_model).sum()))
    raw = model.booster.predict(np.vstack(blocks))
    interpreted, offset = [], 0
    for block, query_cards in zip(blocks, cards):
        interpreted.append(float(model.pipeline_times_from_raw(
            raw[offset:offset + len(block)], query_cards).sum()))
        offset += len(block)
    values = [predicted[i] for i in answered]
    return (checks.check_close("prediction vs interpreter", values,
                               interpreted)
            + checks.check_close("prediction vs its pipeline sum", values,
                                 sums))


def _stable(run: Run, label: str, seen: List, index: int, value) -> None:
    """The same input must give the same answer in every round."""
    if seen[index] is None:
        seen[index] = value
    elif seen[index] != value:
        run.problems.append(f"{label} {index}: {value!r} after "
                            f"{seen[index]!r} in an earlier round")


def predict_tpcds(run: Run, tracer: Tracer) -> Dict[str, float]:
    set_up_tracer = Tracer()
    ctx, model, suite = _set_up_traced(run, set_up_tracer)
    queries = ctx.test_queries()
    rng = run.rng("predict_tpcds")
    predicted: List[Optional[float]] = [None] * len(queries)
    repetitions = Repetitions(len(queries))
    tracer.enabled = run.trace
    for _ in rounds_across_cpus(run.seconds):
        for i in rng.permutation(len(queries)):
            run.attempted += 1
            op_started = time.perf_counter()
            try:
                value = model.predict_benchmarked(queries[i])
            except Exception as exc:
                run.note_failure(f"predict {queries[i].name}: {exc!r}")
                continue
            repetitions.op(i, time.perf_counter() - op_started)
            _stable(run, "query", predicted, i, value)
    tracer.enabled = False
    repetitions.report(run)
    run.metric("peak_rss_mb", own_peak_rss_mb(), "MiB")

    check_set_up_trainings(run)
    run.check(training_matrix_check(model, ctx.train_queries()))
    run.check(tpcds_predictions_check(model, queries, predicted))
    answered = [i for i, value in enumerate(predicted) if value is not None]
    qerror_metrics(run, [predicted[i] for i in answered],
                   [queries[i].median_time for i in answered])
    plan_exec_metric(run, suite.plan_quality(model))
    return layers.set_up_values(set_up_tracer) if run.trace else {}


def join_order_job(run: Run, tracer: Tracer) -> Dict[str, float]:
    _ctx, model, suite = run.set_up(lambda i: _smoke_t3(run, i))
    graphs = suite.queries
    rng = run.rng("join_order_job")
    results: List = [None] * len(graphs)
    repetitions = Repetitions(len(graphs))
    traced_dpsize = tracer.wrap("joinorder.dpsize", dpsize)
    # T3Model keeps its compiled library private; its FFI call counter
    # is what treecomp.ffi_calls_per_query reports.
    native = model._compiled
    ffi_before = native.ffi_calls
    tracer.enabled = run.trace
    for _ in rounds_across_cpus(run.seconds):
        for i in rng.permutation(len(graphs)):
            run.attempted += 1
            op_started = time.perf_counter()
            try:
                result = traced_dpsize(graphs[i][1], suite.t3_cost(model))
            except Exception as exc:
                run.note_failure(f"dpsize {graphs[i][0]}: {exc!r}")
                continue
            repetitions.op(i, time.perf_counter() - op_started)
            _stable(run, "graph", results, i,
                    (result.tree, result.cost, result.model_calls))
    tracer.enabled = False
    ffi_calls = native.ffi_calls - ffi_before
    repetitions.report(run)
    run.metric("peak_rss_mb", own_peak_rss_mb(), "MiB")

    check_set_up_trainings(run)
    done = [i for i, result in enumerate(results) if result is not None]
    names = [graphs[i][0] for i in done]
    run.check(checks.check_model_calls(
        names, [results[i][2] for i in done],
        [checks.expected_t3_model_calls(graphs[i][1]) for i in done]))
    run.check(checks.check_close(
        "dpsize cost vs a fresh walk of its tree",
        [results[i][1] for i in done],
        [checks.walk_cost(graphs[i][1], results[i][0], suite.t3_cost(model))
         for i in done]))
    quality = suite.plan_quality(
        model, [None if r is None else r[0] for r in results])
    qerror_metrics(run, quality["predicted"], quality["simulated"])
    plan_exec_metric(run, quality)
    calls_per_query = (sum(results[i][2] for i in done) / len(done)
                       if done else 0.0)
    return {"joinorder.model_calls_per_query": calls_per_query,
            "treecomp.ffi_calls_per_query":
                ffi_calls / max(run.attempted - run.failed, 1)}
