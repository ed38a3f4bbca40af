"""Per-layer metrics, computed from a traced run.

Every traced run reports every per-layer metric. A metric of a layer
that the workload's operations never enter reads 0; it belongs to
another workload (README.md maps each metric to the workload and the
end-to-end metric it moves). The training layers are timed per set-up,
in the last set-up of a traced ``predict_tpcds`` run.
"""

from __future__ import annotations

from typing import Dict

from tracer import Tracer

#: Per-layer metrics that the workload measures itself rather than
#: from spans; 0 on the workloads that do not measure them.
MEASURED_BY_WORKLOAD = (
    "joinorder.model_calls_per_query",
    "treecomp.ffi_calls_per_query",
    "serving.http.outside_service_ms",
    "serving.service.total_ms",
    "serving.batching.infer_ms",
    "serving.batching.queue_wait_ms",
    "serving.batching.rows_per_batch",
    "serving.cache.hit_ratio",
    "engine.parse_optimize_ms_per_miss",
    "core.features.featurize_ms_per_miss",
    "serving.server_threads",
    "traced.ops_per_s",
)

#: Per-layer metrics of one set-up (:func:`set_up_values`).
SET_UP_METRICS = (
    "core.dataset.build_dataset_s",
    "trees.bin_fit_s",
    "trees.grow_s",
    "trees.grow_ms_per_tree",
    "trees.boosting_s",
    "trees.varying_feature_share",
    "treecomp.codegen_s",
    "treecomp.gcc_s",
    "treecomp.c_bytes",
    "treecomp.so_bytes",
)


def layer_values(tracer: Tracer,
                 measured: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: span-derived ones from ``tracer``, the
    rest from ``measured`` (0 where the workload has none)."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(span: str) -> int:
        return totals.get(span, {}).get("calls", 0)

    def per_call(span: str, scale: float, self_time: bool = False) -> float:
        if not calls(span):
            return 0.0
        key = "self_ns" if self_time else "total_ns"
        return totals[span][key] / calls(span) * scale

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    us, ms = 1e-3, 1e-6
    values = {
        "core.features.featurize_us": per_call(
            "core.features.vectors_for_plan", us, self_time=True),
        "engine.pipelines.decompose_us": per_call(
            "engine.pipelines.decompose", us),
        "engine.pipelines.stage_flows_us": per_call(
            "engine.pipelines.stage_flows", us),
        "core.dataset.card_model_us": per_call(
            "core.dataset.cardinality_model_for", us),
        "treecomp.predict_us": per_call("treecomp.native_call", us),
        "treecomp.rows_per_call": ratio(counts["treecomp.rows"],
                                        calls("treecomp.native_call")),
        "core.model.decode_us": per_call(
            "core.model.pipeline_times_from_raw", us),
        "core.features.nonzeros_per_row": ratio(
            counts["core.features.nonzeros"], counts["core.features.rows"]),
        "joinorder.dpsize_self_ms": per_call("joinorder.dpsize", ms,
                                             self_time=True),
        "joinorder.combine_us": per_call("joinorder.combine", us),
        "joinorder.leaf_us": per_call("joinorder.leaf", us),
        "treecomp.predict_one_us": per_call("treecomp.predict_one", us),
    }
    values.update(dict.fromkeys(MEASURED_BY_WORKLOAD + SET_UP_METRICS, 0.0))
    values.update(measured)
    return values


def set_up_values(tracer: Tracer) -> Dict[str, float]:
    """The :data:`SET_UP_METRICS` of one traced set-up: the training and
    compilation of the smoke T3 inside ``ExperimentContext.t3()``."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(span: str) -> int:
        return totals.get(span, {}).get("calls", 0)

    def seconds(span: str) -> float:
        return totals.get(span, {}).get("total_ns", 0) / 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "core.dataset.build_dataset_s": seconds("core.dataset.build_dataset"),
        "trees.bin_fit_s": seconds("trees.bin_fit"),
        "trees.grow_s": seconds("trees.grow"),
        "trees.grow_ms_per_tree": ratio(seconds("trees.grow") * 1e3,
                                        calls("trees.grow")),
        "trees.boosting_s": seconds("trees.boosting"),
        "trees.varying_feature_share": ratio(
            counts["trees.varying_features"], counts["trees.features"]),
        "treecomp.codegen_s": seconds("treecomp.codegen"),
        "treecomp.gcc_s": seconds("treecomp.gcc"),
        "treecomp.c_bytes": ratio(counts["treecomp.c_bytes"],
                                  calls("treecomp.compile_model")),
        "treecomp.so_bytes": ratio(counts["treecomp.so_bytes"],
                                   calls("treecomp.compile_model")),
    }
