"""Composed (area, latency) Pareto fronts, and the oracle read off them.

A front is a list of (area, latency) points, area ascending and latency
strictly descending: the non-dominated totals over every choice of variants.
Fronts combine along the correct model's ``Design.plan``. A kernel's front is
its own variants plus its body's front; in a body ``Seq`` adds latencies,
``Par`` takes their maximum, ``Loop`` and ``Call`` scale them, and areas
always add. Every step is monotone, so pruning dominated points loses no
optimum, and the result is exact as long as each kernel is chosen, and its
area counted, once.

That holds for a kernel reached by one call path. Kernels reached by more
than one (and so every kernel below one) are *shared*: they are branched on
outside the combination. Each branch, one combination of their variants,
turns them into single points of area 0 and adds their areas once to the
branch's top front. The design's front is the union of the branch fronts,
pruned. Kernels the top never reaches add their smallest area.

This is the compositional exploration of Liu, Petracca & Carloni
("Compositional System-Level Design Exploration with Planning of High-Level
Synthesis", DATE 2012), made exact: a point's configuration is recovered
under the documented tie-break by fixing kernels in sorted id order, smallest
index first, and keeping an index when the restricted fronts still reach the
point. Only fronts that read the fixed kernel are recomputed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _prune(points: Iterable[Point]) -> Front:
    """Sort by area and keep each point that lowers the latency."""
    front: Front = []
    for point in sorted(points):
        if not front or point[1] < front[-1][1]:
            front.append(point)
    return front


def _add(left: Front, right: Front, coef: int = 1) -> Front:
    """Every pair: areas add, latencies add, the right one scaled by ``coef``."""
    return _prune([(a + b, p + coef * q) for a, p in left for b, q in right])


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
    """``Design.front``: the design's top front and what recovery reads.

    ``points`` ascend in area. ``sources[i]`` lists the branches reaching
    ``points[i]``, each as the variant indices of the ``shared`` kernels.
    ``steps`` are the plan's steps the top reaches; ``loose`` are the
    kernels it does not reach.
    """

    points: tuple[Point, ...]
    sources: tuple[tuple[tuple[int, ...], ...], ...]
    shared: tuple[str, ...]
    loose: tuple[str, ...]
    steps: tuple[Step, ...]


def _own_fronts(design: Design, allowed: dict[str, list[int]]) -> list[Front]:
    kernels = design.kernels
    return [
        _prune((kernels[kid].variants[i].area_tenths, kernels[kid].variants[i].latency)
               for i in allowed[kid])
        for kid in design.order
    ]


def _fix_shared(design: Design, shared: list[tuple[str, int]], combo: tuple[int, ...],
                own: list[Front], values: list) -> tuple[set, int]:
    """Make each shared (kernel, slot) the single point ``combo`` picks;
    returns the changed slots and the shared kernels' area."""
    changed, area = set(), 0
    for (kid, slot), index in zip(shared, combo):
        variant = design.kernels[kid].variants[index]
        point = [(0, variant.latency)]
        if own[slot] != point:
            own[slot] = values[slot] = point
            changed.add(slot)
        area += variant.area_tenths
    return changed, area


def compose_front(design: Design) -> DesignFront:
    """The design's (area, latency) front under the correct model.

    Raises ValueError if a kernel has no variants and CapExceeded when the
    shared kernels have more than ``ENUMERATION_CAP`` variant combinations.
    """
    kernels = design.kernels
    if not all(k.variants for k in kernels.values()):
        raise ValueError("design has a kernel with no variants; nothing to compose")
    plan: LatencyPlan = design.plan(LatencyModelKind.CORRECT)
    paths = [0] * plan.size  # call paths from the top to each slot
    paths[plan.top] = 1
    for slot, _, forms in reversed(plan.steps):
        for form in forms:
            for s, _ in form:
                paths[s] += paths[slot]
    reach = {kid: paths[i] for i, kid in enumerate(design.order)}
    shared = tuple(kid for kid in sorted(kernels) if reach[kid] > 1)
    count = 1
    for kid in shared:
        count *= len(kernels[kid].variants)
    if count > ENUMERATION_CAP:
        raise CapExceeded(count, ENUMERATION_CAP)
    loose = tuple(kid for kid in sorted(kernels) if not reach[kid])
    steps = tuple(step for step in plan.steps if paths[step[0]])
    loose_area = sum(min(v.area_tenths for v in kernels[kid].variants) for kid in loose)

    own = _own_fronts(design, {kid: range(len(k.variants)) for kid, k in kernels.items()})
    values: list = own + [None] * (plan.size - len(own))
    slots = [(kid, design.order.index(kid)) for kid in shared]
    branches = itertools.product(*(range(len(kernels[kid].variants)) for kid in shared))
    tagged = []
    for n, combo in enumerate(branches):
        changed, area = _fix_shared(design, slots, combo, own, values)
        _run(steps, own, values, changed if n else None)
        area += loose_area
        tagged.extend((a + area, lat, combo) for a, lat in values[plan.top])
    points: list[Point] = []
    sources: list[list[tuple[int, ...]]] = []
    for area, lat, combo in sorted(tagged):
        if points and points[-1] == (area, lat):
            sources[-1].append(combo)
        elif not points or lat < points[-1][1]:
            points.append((area, lat))
            sources.append([combo])
    return DesignFront(tuple(points), tuple(map(tuple, sources)), shared, loose, steps)


def _recover(design: Design, front: DesignFront, goal: int) -> Configuration:
    """The lexicographically smallest configuration at ``front.points[goal]``."""
    area_goal, latency_goal = front.points[goal]
    kernels, plan = design.kernels, design.plan(LatencyModelKind.CORRECT)
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
    for combo in front.sources[goal]:
        values = own + [None] * (plan.size - len(own))
        _, area = _fix_shared(design, slots, combo, own, values)
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


def front_optimum(design: Design, area_target_tenths: int) -> OracleReport:
    """``latency.brute_force_optimum``'s report, read off ``Design.front``.

    ``best_feasible`` is the last point within the target, ``min_area`` the
    first point; each configuration is recovered under the same tie-break.
    """
    front = design.front

    def scored(goal: int) -> tuple[Configuration, EvalResult]:
        config = _recover(design, front, goal)
        return config, evaluate(design, config)

    within = [i for i, (area, _) in enumerate(front.points) if area <= area_target_tenths]
    min_area = scored(0)
    if not within:
        return OracleReport(best_feasible=None, min_area=min_area)
    return OracleReport(
        best_feasible=min_area if within[-1] == 0 else scored(within[-1]),
        min_area=min_area,
    )
