"""Output checks. Each returns a list of problems; empty means correct.

Predictions are compared to 1e-12 relative: the compiled tree walk and
the interpreter evaluate the same comparisons and add the same leaf
values, so any larger difference is a wrong answer, not rounding.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

REL_TOL = 1e-12

#: At most this many problems are listed per check.
_MAX_LISTED = 5


def rel_close(actual: float, expected: float, rel: float = REL_TOL) -> bool:
    return (math.isfinite(actual) and math.isfinite(expected)
            and abs(actual - expected) <= rel * max(abs(actual),
                                                    abs(expected)))


def check_close(label: str, actual: Sequence[float],
                expected: Sequence[float]) -> List[str]:
    """Element-wise agreement to :data:`REL_TOL`."""
    if len(actual) != len(expected):
        return [f"{label}: {len(actual)} values, expected {len(expected)}"]
    bad = [f"{label}[{i}]: {a!r} != {e!r}"
           for i, (a, e) in enumerate(zip(actual, expected))
           if not rel_close(float(a), float(e))]
    if len(bad) > _MAX_LISTED:
        bad = bad[:_MAX_LISTED] + [f"{label}: {len(bad)} mismatches in all"]
    return bad


# -- DPsize ----------------------------------------------------------------


def _neighbours(graph) -> List[int]:
    neighbours = [0] * graph.n_relations
    for edge in graph.edges:
        neighbours[edge.left] |= 1 << edge.right
        neighbours[edge.right] |= 1 << edge.left
    return neighbours


def _is_connected(mask: int, neighbours: Sequence[int]) -> bool:
    start = mask & -mask
    reached = frontier = start
    while frontier:
        grown = 0
        bits = frontier
        while bits:
            low = bits & -bits
            grown |= neighbours[low.bit_length() - 1]
            bits ^= low
        frontier = grown & mask & ~reached
        reached |= frontier
    return reached == mask


def ordered_connected_pairs(graph) -> int:
    """Ordered pairs (S, T) of disjoint, connected, non-empty relation
    subsets with a join edge between them, by enumerating every bitmask.

    This is the work DPsize must do; it is counted here without DPsize.
    """
    n = graph.n_relations
    neighbours = _neighbours(graph)
    subsets = np.array([m for m in range(1, 1 << n)
                        if _is_connected(m, neighbours)], dtype=np.int64)
    frontier = np.zeros(len(subsets), dtype=np.int64)
    for i in range(n):
        frontier[(subsets >> i) & 1 == 1] |= neighbours[i]
    frontier &= ~subsets
    pairs = 0
    for subset, border in zip(subsets, frontier):
        pairs += int(np.count_nonzero(((subsets & subset) == 0)
                                      & ((subsets & border) != 0)))
    return pairs


def expected_t3_model_calls(graph) -> int:
    """T3 in DPsize: one call per leaf and two per combined pair."""
    return graph.n_relations + 2 * ordered_connected_pairs(graph)


def check_model_calls(names: Sequence[str], observed: Sequence[int],
                      expected: Sequence[int]) -> List[str]:
    bad = [f"dpsize {name}: {o} model calls, expected {e}"
           for name, o, e in zip(names, observed, expected) if o != e]
    if len(observed) != len(expected):
        bad.append(f"dpsize: {len(observed)} results for "
                   f"{len(expected)} graphs")
    return bad[:_MAX_LISTED]


def walk_cost(graph, tree, cost_model) -> float:
    """Cost of ``tree`` from a fresh bottom-up walk with ``cost_model``."""

    def visit(node):
        if isinstance(node, int):
            relation = graph.relations[node]
            return cost_model.leaf(relation), 1 << node, relation.cardinality
        left, left_mask, left_card = visit(node[0])
        right, right_mask, right_card = visit(node[1])
        mask = left_mask | right_mask
        card = graph.cardinality(mask)
        return (cost_model.combine(graph, left, right, left_card, right_card,
                                   card), mask, card)

    return visit(tree)[0].comparison_cost


# -- training and serving ------------------------------------------------------


def check_identical_texts(texts: Sequence[str]) -> List[str]:
    """Trainings with one config and seed must give byte-identical models."""
    if len(texts) < 2:
        return [f"need two trainings to compare, got {len(texts)}"]
    return [f"training {i} differs from training 0"
            for i, text in enumerate(texts[1:], start=1) if text != texts[0]]


def check_served(responses: Sequence[Dict[str, object]],
                 reference: Dict[str, float]) -> List[str]:
    """Every served answer equals the locally computed reference for its
    SQL and came from the compiled backend without degradation."""
    bad: List[str] = []
    for response in responses:
        sql = response["sql"]
        if response["backend"] != "compiled" or response["degraded"]:
            bad.append(f"served by {response['backend']} "
                       f"(degraded={response['degraded']}): {sql}")
        elif not rel_close(response["predicted_seconds"], reference[sql]):
            bad.append(f"served {response['predicted_seconds']!r}, "
                       f"expected {reference[sql]!r}: {sql}")
    if len(bad) > _MAX_LISTED:
        bad = bad[:_MAX_LISTED] + [f"{len(bad)} wrong answers in all"]
    return bad
