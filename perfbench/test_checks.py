"""Each output check of the benchmark rejects a deliberately wrong answer.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

import numpy as np  # noqa: E402

from repro.engine.schema import JoinEdge  # noqa: E402
from repro.joinorder import (  # noqa: E402
    CoutJoinCost,
    GraphEdge,
    JoinGraph,
    Relation,
    T3JoinCost,
    dpsize,
)
from repro.trees.boosting import BoostingParams, train_boosted_trees  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import serve  # noqa: E402
from tracer import Tracer  # noqa: E402


def _chain(n: int) -> JoinGraph:
    """Relations 0-1-...-(n-1) joined in a chain."""
    relations = [Relation(i, f"t{i}", SimpleNamespace(predicates=[]),
                          1000.0 * (i + 1), 2000.0 * (i + 1), 16)
                 for i in range(n)]
    edges = [GraphEdge(i, i + 1, JoinEdge(f"t{i}", "k", f"t{i + 1}", "k"),
                       1e-3) for i in range(n - 1)]
    return JoinGraph(relations, edges)


def _fake_t3() -> T3JoinCost:
    """T3 in DPsize with a stand-in tree: the raw score grows with the
    open pipeline's feature sum, so plans differ in cost."""
    return T3JoinCost(lambda vector: float(np.log1p(vector.sum())) * 1e-3)


def test_prediction_off_by_one_part_in_1e9_is_rejected():
    rng = np.random.default_rng(0)
    expected = list(rng.lognormal(-4.0, 2.0, size=50))
    assert checks.check_close("prediction", expected, list(expected)) == []
    wrong = list(expected)
    wrong[17] *= 1.0 + 1e-9
    problems = checks.check_close("prediction", wrong, expected)
    assert len(problems) == 1 and "prediction[17]" in problems[0]


def test_brute_force_pair_count_matches_a_hand_count():
    # Chain 0-1-2: ({0},{1}), ({1},{2}), ({0},{1,2}), ({0,1},{2}), each
    # in both orders.
    assert checks.ordered_connected_pairs(_chain(3)) == 8
    assert checks.expected_t3_model_calls(_chain(3)) == 3 + 2 * 8
    # C_out makes one call per ordered pair DPsize combines.
    graph = _chain(6)
    assert (dpsize(graph, CoutJoinCost()).model_calls
            == checks.ordered_connected_pairs(graph))


def test_dpsize_call_count_off_by_one_is_rejected():
    graph = _chain(5)
    result = dpsize(graph, _fake_t3())
    expected = checks.expected_t3_model_calls(graph)
    assert checks.check_model_calls(["chain"], [result.model_calls],
                                    [expected]) == []
    assert checks.check_model_calls(["chain"], [result.model_calls + 1],
                                    [expected])


def test_reported_dpsize_cost_is_checked_against_a_fresh_walk():
    graph = _chain(5)
    result = dpsize(graph, _fake_t3())
    walked = checks.walk_cost(graph, result.tree, _fake_t3())
    assert checks.check_close("cost", [result.cost], [walked]) == []
    assert checks.check_close("cost", [result.cost * (1 + 1e-9)], [walked])


def _booster(seed: int):
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 10.0, size=(300, 6))
    y = np.log1p(X[:, 0] * X[:, 1]) + rng.normal(0.0, 0.1, size=300)
    return train_boosted_trees(X, y, BoostingParams(
        n_rounds=8, validation_fraction=0.0, bagging_fraction=0.7,
        seed=seed)), X


def test_served_value_from_a_different_model_is_rejected():
    reference_model, X = _booster(seed=1)
    other_model, _ = _booster(seed=2)
    sqls = [f"q{i}" for i in range(len(X))]
    reference = dict(zip(sqls, map(float, reference_model.predict(X))))

    def served(model, backend="compiled", degraded=False):
        return [{"sql": sql, "predicted_seconds": float(value),
                 "backend": backend, "degraded": degraded}
                for sql, value in zip(sqls, model.predict(X))]

    assert checks.check_served(served(reference_model), reference) == []
    assert checks.check_served(served(other_model), reference)
    assert checks.check_served(
        served(reference_model, backend="interpreted"), reference)
    assert checks.check_served(served(reference_model, degraded=True),
                               reference)


def test_trainings_must_be_byte_identical():
    assert checks.check_identical_texts(["tree", "tree"]) == []
    assert checks.check_identical_texts(["tree", "tree "])
    assert checks.check_identical_texts(["tree"])


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.enabled = True
    outer()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    assert (totals["outer"]["self_ns"]
            == totals["outer"]["total_ns"] - totals["inner"]["total_ns"])


def test_benchmark_json_names_every_per_layer_metric_computed():
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(layers.layer_values(Tracer(), {})) == declared


def test_every_pool_query_parses_and_optimizes():
    from repro.datagen.instances import get_instance
    from repro.engine.optimizer import Optimizer
    from repro.engine.sqlparser import parse_sql

    instance = get_instance(serve.INSTANCE)
    optimizer = Optimizer(instance.schema, instance.catalog)
    pool = serve.sql_pool()
    assert len(set(pool)) == serve.POOL_SIZE
    for sql in pool:
        optimizer.optimize(parse_sql(sql, instance.schema, instance.catalog),
                           "pool")
