"""The area-capped optimum under any latency model, read off composed
(area, latency) Pareto fronts: how ``ilp.solve`` answers a
``ConstrainedArea`` model.

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
branched on outside the combination, depth first in sorted id order. Fixing
a kernel at a variant makes it the single point (area 0, its latency) and
moves its area into a running total outside the top front. Until a shared
kernel is fixed it is relaxed to the point (area 0, its least latency), with
its least area in the total; each step is monotone, so this front dominates
every branch below the node. Kernels the top never reaches add their least
area.

One search serves the optimum and its recovery. It finds the least
(latency, area) point within an area target that is strictly below a bar,
and prunes a subtree whose relaxed bound is not below the bar, so a tie is
pruned too. The optimum is the search with no bar.

This is the compositional exploration of Liu, Petracca & Carloni
("Compositional System-Level Design Exploration with Planning of High-Level
Synthesis", DATE 2012), made exact: a point's configuration is recovered
under the documented tie-break by fixing every kernel, shared or not, in
sorted id order, smallest index first. An index is kept when the search over
the shared kernels not yet fixed, with the bar just above the point, still
reaches it. Only fronts that read the fixed kernel are recomputed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Sequence

from .design import Configuration, Design, KernelVariant
from .latency import LatencyModelKind, LatencyPlan, LinearForm, _run_plan

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


def _paths(plan: LatencyPlan) -> list[int]:
    """The number of plan paths from the top to each slot."""
    paths = [0] * plan.size
    paths[plan.top] = 1
    for slot, _, forms in reversed(plan.steps):
        for form in forms:
            for s, _ in form:
                paths[s] += paths[slot]
    return paths


def _shared(design: Design, kind: LatencyModelKind) -> tuple[str, ...]:
    """The kernels the plan reaches along more than one path, in sorted id
    order: the search branches on them."""
    paths = _paths(design.plan(kind))
    return tuple(sorted(kid for kid, n in zip(design.order, paths) if n > 1))


class _Fronts:
    """The plan's fronts over some options per kernel, with every shared
    kernel relaxed until it is fixed.

    ``values`` holds the fronts and ``area`` the area outside the top front.
    A relaxed shared kernel is the point (area 0, its least latency), with its
    least area in ``area``; a kernel the plan never reaches is its least area.
    ``own`` holds the kernels' own fronts on the current branch, and
    ``branches`` counts the searches that end past the last shared kernel.
    """

    def __init__(self, design: Design, kind: LatencyModelKind,
                 options: dict[str, Sequence[int]]):
        kernels = design.kernels
        self.design, self.options, self.plan = design, options, design.plan(kind)
        paths = _paths(self.plan)
        self.steps = tuple(step for step in self.plan.steps if paths[step[0]])
        self.shared = _shared(design, kind)
        self.slot = {kid: i for i, kid in enumerate(design.order)}
        self.own: list[Front] = []
        self.counted: dict[str, int] = {}  # each kernel's area in the total until fixed
        for kid, reach in zip(design.order, paths):
            variants = [kernels[kid].variants[i] for i in options[kid]]
            if reach == 1:
                self.own.append(_prune((v.area_tenths, v.latency) for v in variants))
                self.counted[kid] = 0
            else:
                self.own.append([(0, min(v.latency for v in variants))])
                self.counted[kid] = min(v.area_tenths for v in variants)
        self.values: list = self.own + [None] * (self.plan.size - len(self.own))
        _run(self.steps, self.own, self.values, None)
        self.area = sum(self.counted.values())
        self.branches = 0

    def fix(self, values: list, area: int, kid: str, index: int) -> tuple[list, int]:
        """The fronts and total with ``kid`` fixed at ``index``: its own front
        becomes (0, its latency) and its area moves into the total. ``values``
        must be computed from ``own``, which is left at the fixed point."""
        variant = self.design.kernels[kid].variants[index]
        slot, point = self.slot[kid], [(0, variant.latency)]
        if point != self.own[slot]:
            self.own[slot] = point
            values = list(values)
            values[slot] = point
            _run(self.steps, self.own, values, {slot})
        return values, area + variant.area_tenths - self.counted[kid]

    def bound(self, values: list, area: int, target: int) -> Optional[Point]:
        """The least (latency, area) on the top front within ``target``, or None."""
        top = values[self.plan.top]
        within = bisect_right(top, (target - area, float("inf")))
        if not within:
            return None
        point_area, latency = top[within - 1]
        return latency, point_area + area


def _search(fronts: _Fronts, values: list, area: int, depth: int, target: int,
            bar: Optional[Point], first: bool = False) -> Optional[Point]:
    """The least (latency, area) point within ``target`` and strictly below
    ``bar``, branching on the shared kernels from ``depth`` on, or None; with
    ``first``, the first such point found.

    A child whose bound is not below the bar is pruned, so a tie is too. The
    most promising child goes first, for an early bar.
    """
    key = fronts.bound(values, area, target)
    if key is None or (bar is not None and key >= bar):
        return None
    if depth == len(fronts.shared):
        fronts.branches += 1
        return key
    kid = fronts.shared[depth]
    slot, own = fronts.slot[kid], fronts.own
    relaxed = own[slot]
    children = []
    for index in fronts.options[kid]:
        child, child_area = fronts.fix(values, area, kid, index)
        key = fronts.bound(child, child_area, target)
        if key is not None:  # fix left the child's point in own[slot]
            children.append((key, index, child, child_area, own[slot]))
        own[slot] = relaxed
    children.sort(key=lambda c: c[:2])
    best = None
    for _, _, child, child_area, point in children:
        own[slot] = point
        found = _search(fronts, child, child_area, depth + 1, target, bar, first)
        if found is not None:
            best = bar = found
            if first:
                break
    own[slot] = relaxed
    return best


def _compose(design: Design, kind: LatencyModelKind, target: int) -> tuple[Optional[Point], int]:
    """The least (latency, area) point within ``target`` as (area, latency),
    or None, and the branches searched to the end."""
    kernels = design.kernels
    if not all(k.variants for k in kernels.values()):
        raise ValueError("design has a kernel with no variants; nothing to compose")
    fronts = _Fronts(design, kind, {kid: range(len(k.variants)) for kid, k in kernels.items()})
    key = _search(fronts, fronts.values, fronts.area, 0, target, None)
    return (None if key is None else (key[1], key[0])), fronts.branches


def _recover(design: Design, kind: LatencyModelKind, point: Point) -> Configuration:
    """The lexicographically smallest configuration at ``point``, the
    optimum within its own area."""
    area_goal, latency_goal = point
    kernels, plan = design.kernels, design.plan(kind)
    slot_of = {kid: i for i, kid in enumerate(design.order)}
    smallest = {kid: min(v.area_tenths for v in k.variants) for kid, k in kernels.items()}
    floor = sum(smallest.values())  # the least area left open by the choices so far
    fastest = [min(v.latency for v in kernels[kid].variants) for kid in design.order]

    def fits(kid: str, variant: KernelVariant, latency: bool = True) -> bool:
        """Cheap bounds: the least area and latency still open, with ``kid``
        at ``variant``, are within the point."""
        if floor + variant.area_tenths - smallest[kid] > area_goal:
            return False
        if not latency:
            return True
        latencies = list(fastest)
        latencies[slot_of[kid]] = variant.latency
        return _run_plan(plan, latencies) <= latency_goal

    # Every configuration at the point holds only variants that fit now. The
    # search branches on the shared kernels, so their latency is bounded too;
    # the others meet that bound when they are fixed.
    shared = _shared(design, kind)
    allowed = {kid: [i for i, v in enumerate(k.variants) if fits(kid, v, kid in shared)]
               for kid, k in kernels.items()}
    fronts = _Fronts(design, kind, allowed)
    values, area = fronts.values, fronts.area
    fastest = [front[-1][1] for front in fronts.own]
    bar = (latency_goal, area_goal + 1)  # only the point itself is below it

    choice: dict[str, int] = {}
    for kid in sorted(kernels):
        options, slot = allowed[kid], slot_of[kid]
        if len(options) == 1:  # its front already is that one point
            choice[kid] = options[0]
        else:
            depth = bisect_right(fronts.shared, kid)  # the shared kernels still open
            before = fronts.own[slot]
            for index in options:
                if not fits(kid, kernels[kid].variants[index]):
                    continue
                child, child_area = fronts.fix(values, area, kid, index)
                if _search(fronts, child, child_area, depth, area_goal, bar, True):
                    choice[kid], values, area = index, child, child_area
                    break
                fronts.own[slot] = before
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
    point, branches = _compose(design, kind, area_target_tenths)
    if point is None:
        return None
    return _recover(design, kind, point), point, branches
