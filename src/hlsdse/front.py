"""The area-capped optimum under any latency model, read off composed
(area, latency) Pareto fronts, and the oracle that asks it.

A front is a list of (area, latency) points, area ascending and latency
strictly descending: the non-dominated totals over every choice of variants.
Fronts combine along one latency model's ``Design.plan(kind)``. A kernel's
front is its own variants plus what its plan step adds; in a correct body
``Seq`` adds latencies, ``Par`` takes their maximum, ``Loop`` and ``Call``
scale them, and areas always add (the other models are plans of the same
two step kinds). Every step is monotone, so pruning dominated points loses
no optimum, and the result is exact as long as each kernel is chosen, and
its area counted, once.

That holds for a kernel the plan reaches along one path. Kernels reached
along more than one (and so every kernel below one) are *shared*: they are
branched on outside the combination, depth first in sorted id order. A
branch, one variant per shared kernel, turns them into single points of area
0 and adds their areas once to the branch's top front. Kernels the top never
reaches add their smallest area.

The search looks for the least (latency, area) point within an area target,
and skips a subtree whose relaxed front cannot reach the best point found so
far. The relaxation turns every shared kernel not yet branched on into the
point (area 0, its least latency) and adds its least area once: each step is
monotone, so this front dominates every branch below the node.

This is the compositional exploration of Liu, Petracca & Carloni
("Compositional System-Level Design Exploration with Planning of High-Level
Synthesis", DATE 2012), made exact: a point's configuration is recovered
under the documented tie-break by fixing kernels in sorted id order, smallest
index first, and keeping an index when the restricted fronts still reach the
point. Only fronts that read the fixed kernel are recomputed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional

from .design import ENUMERATION_CAP, Configuration, Design
from .errors import CapExceeded
from .latency import (
    EvalResult,
    LatencyModelKind,
    LatencyPlan,
    LinearForm,
    OracleReport,
    _run_plan,
    evaluate,
)

Point = tuple[int, int]
Front = list[Point]
Step = tuple[int, Optional[str], tuple[LinearForm, ...]]

CHUNK_PAIRS = 1 << 14
"""Pairs ``_add`` builds and sorts at once before merging them into its front.

A bounded chunk keeps the peak memory of a sum small and lets a signal
handler run between chunks instead of after one long sort.
"""


def _prune(points: Iterable[Point]) -> Front:
    """Sort by area and keep each point that lowers the latency."""
    front: Front = []
    for point in sorted(points):
        if not front or point[1] < front[-1][1]:
            front.append(point)
    return front


def _add(left: Front, right: Front, coef: int = 1) -> Front:
    """Every pair: areas add, latencies add, the right one scaled by ``coef``."""
    rows = max(1, CHUNK_PAIRS // len(right))
    front: Front = []
    for start in range(0, len(left), rows):
        chunk = [(a + b, p + coef * q) for a, p in left[start:start + rows] for b, q in right]
        front = _prune(front + chunk)
    return front


def _par(fronts: list[Front]) -> Front:
    """At each latency level, the sum of every child's smallest area within it."""
    floor = max(front[-1][1] for front in fronts)
    levels = sorted({lat for front in fronts for _, lat in front if lat >= floor}, reverse=True)
    at = [0] * len(fronts)
    points = []
    for level in levels:
        area = 0
        for i, front in enumerate(fronts):
            while front[at[i]][1] > level:
                at[i] += 1
            area += front[at[i]][0]
        points.append((area, level))
    return _prune(points)


def _run(steps: tuple[Step, ...], own: list[Front], values: list, changed: Optional[set]) -> None:
    """Compute the steps' fronts into ``values``: all of them when ``changed``
    is None, else only those reading a slot in ``changed`` (which grows)."""
    for slot, path, forms in steps:
        if changed is not None:
            if slot not in changed and not any(s in changed for f in forms for s, _ in f):
                continue
            changed.add(slot)
        parts = []
        for form in forms:
            front: Front = [(0, 0)]
            for s, coef in form:
                front = _add(front, values[s], coef)
            parts.append(front)
        values[slot] = _add(own[slot], parts[0]) if path is None else _par(parts)


@dataclass(frozen=True)
class DesignFront:
    """The best point within an area target under one latency model, and
    what recovery reads.

    ``point`` is the least (latency, area) point within the target, as
    (area, latency), or None when nothing fits. ``sources`` lists the
    branches reaching it, each as the variant indices of the ``shared``
    kernels. ``steps`` are the plan's steps the top reaches; ``loose`` are
    the kernels it does not reach. ``branches`` counts the branches searched
    to the end.
    """

    kind: LatencyModelKind
    point: Optional[Point]
    sources: tuple[tuple[int, ...], ...]
    shared: tuple[str, ...]
    loose: tuple[str, ...]
    steps: tuple[Step, ...]
    branches: int


def _own_fronts(design: Design, allowed: dict[str, list[int]]) -> list[Front]:
    kernels = design.kernels
    return [
        _prune((kernels[kid].variants[i].area_tenths, kernels[kid].variants[i].latency)
               for i in allowed[kid])
        for kid in design.order
    ]


def _fix_shared(design: Design, shared: list[tuple[str, int]], combo: tuple[int, ...],
                own: list[Front], values: list) -> int:
    """Make each shared (kernel, slot) the single point ``combo`` picks;
    returns the shared kernels' area."""
    area = 0
    for (kid, slot), index in zip(shared, combo):
        variant = design.kernels[kid].variants[index]
        own[slot] = values[slot] = [(0, variant.latency)]
        area += variant.area_tenths
    return area


def _paths(plan: LatencyPlan) -> list[int]:
    """The number of plan paths from the top to each slot."""
    paths = [0] * plan.size
    paths[plan.top] = 1
    for slot, _, forms in reversed(plan.steps):
        for form in forms:
            for s, _ in form:
                paths[s] += paths[slot]
    return paths


def _compose(design: Design, kind: LatencyModelKind, target: int) -> DesignFront:
    """The least (latency, area) point within ``target``, with every branch
    reaching it."""
    kernels = design.kernels
    if not all(k.variants for k in kernels.values()):
        raise ValueError("design has a kernel with no variants; nothing to compose")
    plan = design.plan(kind)
    paths = _paths(plan)
    reach = {kid: paths[i] for i, kid in enumerate(design.order)}
    shared = tuple(kid for kid in sorted(kernels) if reach[kid] > 1)
    loose = tuple(kid for kid in sorted(kernels) if not reach[kid])
    steps = tuple(step for step in plan.steps if paths[step[0]])

    slot_of = {kid: i for i, kid in enumerate(design.order)}
    least_area = {kid: min(v.area_tenths for v in kernels[kid].variants) for kid in kernels}
    own = _own_fronts(design, {kid: range(len(k.variants)) for kid, k in kernels.items()})
    # The relaxation: a shared kernel not branched on yet is its least latency
    # at area 0, and its least area is added once (to ``area`` below).
    for kid in shared:
        own[slot_of[kid]] = [(0, min(v.latency for v in kernels[kid].variants))]
    values: list = own + [None] * (plan.size - len(own))
    _run(steps, own, values, None)

    found: list[tuple[int, ...]] = []  # the branches reaching ``best``
    best: Optional[Point] = None  # the least (latency, area) so far
    combo: list[int] = []
    branches = 0

    def bound(values: list, area: int) -> Optional[Point]:
        """The least (latency, area) within the target, or None."""
        top = values[plan.top]
        within = bisect_right(top, (target - area, float("inf")))
        if not within:
            return None
        point_area, latency = top[within - 1]
        return latency, point_area + area

    def descend(values: list, area: int, key: Optional[Point]) -> None:
        nonlocal best, branches
        if key is None or (best is not None and key > best):
            return  # an equal key may still reach the point with a smaller branch
        if len(combo) == len(shared):
            branches += 1
            if best is None or key < best:
                best, found[:] = key, [tuple(combo)]
            else:
                found.append(tuple(combo))
            return
        kid = shared[len(combo)]
        slot = slot_of[kid]
        relaxed = own[slot]
        children = []
        for index, variant in enumerate(kernels[kid].variants):
            point = [(0, variant.latency)]
            child = values
            if point != relaxed:
                own[slot] = point
                child = list(values)
                child[slot] = point
                _run(steps, own, child, {slot})
            child_area = area + variant.area_tenths - least_area[kid]
            key = bound(child, child_area)
            if key is not None:
                children.append((key, index, point, child, child_area))
        children.sort(key=lambda c: c[:2])  # the most promising first, for an early incumbent
        for key, index, point, child, child_area in children:
            own[slot] = point
            combo.append(index)
            descend(child, child_area, key)
            combo.pop()
        own[slot] = relaxed

    area = sum(least_area[kid] for kid in shared + loose)
    descend(values, area, bound(values, area))
    point = None if best is None else (best[1], best[0])
    return DesignFront(kind, point, tuple(found), shared, loose, steps, branches)


def _recover(design: Design, front: DesignFront) -> Configuration:
    """The lexicographically smallest configuration at ``front.point``."""
    area_goal, latency_goal = front.point
    kernels, plan = design.kernels, design.plan(front.kind)
    smallest = {kid: min(v.area_tenths for v in k.variants) for kid, k in kernels.items()}
    floor = sum(smallest.values())  # the least area left open by the choices so far
    # Any configuration at the point leaves every kernel within the slack.
    slack = area_goal - floor
    allowed = {
        kid: [i for i, v in enumerate(k.variants) if v.area_tenths - smallest[kid] <= slack]
        for kid, k in kernels.items()
    }
    own = _own_fronts(design, allowed)
    fastest = [points[-1][1] for points in own]  # per slot: the latency bound's input
    loose_area = sum(smallest[kid] for kid in front.loose)
    slots = [(kid, design.order.index(kid)) for kid in front.shared]

    def fits(values: list, area: int) -> bool:
        latency = None
        for a, lat in values[plan.top]:
            if a + area > area_goal:
                break
            latency = lat
        return latency is not None and latency <= latency_goal

    states = []  # (branch, fronts, shared and loose area) that still reach the point
    for combo in front.sources:
        values = own + [None] * (plan.size - len(own))
        area = _fix_shared(design, slots, combo, own, values)
        _run(front.steps, own, values, None)
        states.append((combo, values, area + loose_area))

    choice: dict[str, int] = {}
    for kid in sorted(kernels):
        options, slot = allowed[kid], design.order.index(kid)
        if kid in front.shared:
            at = front.shared.index(kid)
            choice[kid] = min(state[0][at] for state in states)
            states = [state for state in states if state[0][at] == choice[kid]]
        elif kid in front.loose:
            choice[kid] = min(options, key=lambda i: (kernels[kid].variants[i].area_tenths, i))
        elif len(options) == 1:
            choice[kid] = options[0]
        else:
            for index in options:
                variant = kernels[kid].variants[index]
                fastest[slot] = variant.latency
                # Cheap bounds first: the least area and latency still open.
                if (floor + variant.area_tenths - smallest[kid] > area_goal
                        or _run_plan(plan, fastest) > latency_goal):
                    continue
                own[slot] = [(variant.area_tenths, variant.latency)]
                kept = []
                for combo, values, area in states:
                    values = list(values)
                    values[slot] = own[slot]
                    _run(front.steps, own, values, {slot})
                    if fits(values, area):
                        kept.append((combo, values, area))
                if kept:
                    choice[kid], states = index, kept
                    break
        variant = kernels[kid].variants[choice[kid]]
        fastest[slot] = variant.latency
        floor += variant.area_tenths - smallest[kid]
    return Configuration.from_mapping(choice)


def best_within(
    design: Design, kind: LatencyModelKind, area_target_tenths: int
) -> Optional[tuple[Configuration, Point, int]]:
    """The least (latency, area) configuration within the target under one
    model, ties to the lexicographically smaller configuration.

    Returns (configuration, (area, latency), branches searched), or None
    when nothing fits. Nothing is cached on the design but its plan.
    """
    front = _compose(design, kind, area_target_tenths)
    if front.point is None:
        return None
    return _recover(design, front), front.point, front.branches


def front_optimum(design: Design, area_target_tenths: int) -> OracleReport:
    """``latency.brute_force_optimum``'s report, from ``best_within`` under
    the correct model, kept once per design and target.

    ``best_feasible`` is the best configuration within the target and
    ``min_area`` the best within the least total area. Raises ValueError if
    a kernel has no variants and CapExceeded when the shared kernels have
    more than ``ENUMERATION_CAP`` variant combinations.
    """
    report = design._reports.get(area_target_tenths)
    if report is not None:
        return report
    kernels = design.kernels
    paths = _paths(design.plan(LatencyModelKind.CORRECT))
    count = prod(len(kernels[kid].variants) for i, kid in enumerate(design.order) if paths[i] > 1)
    if count > ENUMERATION_CAP:
        raise CapExceeded(count, ENUMERATION_CAP)

    def scored(target: int) -> Optional[tuple[Configuration, EvalResult]]:
        best = best_within(design, LatencyModelKind.CORRECT, target)
        return None if best is None else (best[0], evaluate(design, best[0]))

    best_feasible = scored(area_target_tenths)  # first: it rejects a kernel with no variants
    least = sum(min(v.area_tenths for v in k.variants) for k in kernels.values())
    report = OracleReport(best_feasible=best_feasible, min_area=scored(least))
    design._reports[area_target_tenths] = report
    return report
