"""Brute-force reference for one (query, repository schema) pair.

Enumerates every injective assignment of query elements to schema
elements with :func:`itertools.permutations`, scores each through the
public :meth:`ObjectiveFunction.mapping_cost`, and keeps those scoring at
most δ.  It shares no search, pruning, kernel or assembly code with the
matchers, so agreeing with it checks all of them at once.  The cost grows
as ``n! / (n - k)!``, so callers pick small schemas.
"""

from __future__ import annotations

from itertools import permutations

from repro.matching.mapping import Mapping
from repro.schema.repository import ElementHandle

__all__ = ["brute_force_pair", "answers_for_schema", "compare_pair"]


def brute_force_pair(objective, query, schema, delta_max):
    """``{target_ids: score}`` of every assignment scoring ``<= delta_max``."""
    handles = [ElementHandle(schema, j) for j in range(len(schema))]
    found = {}
    for target_ids in permutations(range(len(schema)), len(query)):
        mapping = Mapping(
            query.schema_id, tuple(handles[j] for j in target_ids)
        )
        score = objective.mapping_cost(query, mapping)
        if score <= delta_max:
            found[target_ids] = score
    return found


def answers_for_schema(answers, schema_id):
    """``{target_ids: score}`` of the answers that map into one schema."""
    return {
        answer.item.key[2]: answer.score
        for answer in answers
        if answer.item.key[1] == schema_id
    }


def compare_pair(objective, query, schema, delta_max, answers):
    """``None`` when ``answers`` restricted to ``schema`` equal brute force,
    else a one-line description of the first difference."""
    expected = brute_force_pair(objective, query, schema, delta_max)
    actual = answers_for_schema(answers, schema.schema_id)
    if expected == actual:
        return None
    missing = sorted(set(expected) - set(actual))[:3]
    extra = sorted(set(actual) - set(expected))[:3]
    moved = sorted(
        key for key in set(expected) & set(actual)
        if expected[key] != actual[key]
    )[:3]
    return (
        f"{query.schema_id} x {schema.schema_id}: {len(expected)} expected, "
        f"{len(actual)} found; missing {missing}, extra {extra}, "
        f"score differs {moved}"
    )
