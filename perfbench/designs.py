"""Seeded random designs for the scaling ladders, and a reference enumerator.

The generator mirrors ``tests/helpers.random_design``, with three changes:
the kernel count is exact, every kernel has exactly ``VARIANTS`` variants, and
a DAG mode lets each kernel gain a second, earlier caller, so that shared
kernels appear. The random stream is ``random.Random(<string>)``, which seeds
through SHA-512 of the string and never through ``hash()``, so the same seed
string gives byte-identical design JSON in every process.
"""

from __future__ import annotations

import itertools
import random

from hlsdse.design import (
    Call,
    CompositionNode,
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    Loop,
    Par,
    Seq,
)
from hlsdse.latency import evaluate

VARIANTS = 5
SECOND_CALLER_PROB = 0.3
TARGET_FRACTION = (7, 10)  # area target at 70% of the [min, max] area range

_SOURCE = KernelSource(
    trip_count=0, body_latency=1, op_count=1, base_area_tenths=0, op_area_tenths=0
)


def _variants(rng: random.Random) -> tuple[KernelVariant, ...]:
    """Strictly ascending area, strictly descending latency."""
    areas = sorted(rng.sample(range(10, 500), VARIANTS))
    latencies = sorted(rng.sample(range(1, 200), VARIANTS), reverse=True)
    return tuple(
        KernelVariant(index=i, area_tenths=a, latency=lat)
        for i, (a, lat) in enumerate(zip(areas, latencies))
    )


def _body(rng: random.Random, callees: list[str]) -> CompositionNode:
    nodes: list[CompositionNode] = [Call(kid, rng.randint(1, 3)) for kid in callees]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        take = min(len(nodes), rng.choice((2, 2, 3)))
        group = tuple(nodes.pop() for _ in range(take))
        nodes.append(Par(group) if rng.random() < 0.5 else Seq(group))
    body = nodes[0]
    if rng.random() < 0.3:
        body = Loop(rng.randint(1, 3), body)
    return body


def random_design(seed: str, kernels: int, dag: bool) -> Design:
    """Valid design with exactly ``kernels`` kernels; ``k0`` is the top.

    Every other kernel gets a caller with a smaller index, so the call graph
    is acyclic and connected. With ``dag`` each kernel from ``k2`` on may
    also get a second, different earlier caller.
    """
    rng = random.Random(seed)
    ids = [f"k{i}" for i in range(kernels)]
    callees: dict[str, list[str]] = {kid: [] for kid in ids}
    for i in range(1, kernels):
        first = rng.randrange(i)
        callees[ids[first]].append(ids[i])
        if dag and i >= 2 and rng.random() < SECOND_CALLER_PROB:
            second = rng.randrange(i - 1)
            second += second >= first  # any earlier kernel except the first caller
            callees[ids[second]].append(ids[i])
    built = {
        kid: Kernel(
            id=kid,
            source=_SOURCE,
            variants=_variants(rng),
            body=_body(rng, callees[kid]) if callees[kid] else None,
        )
        for kid in ids
    }
    return Design(kernels=built, top=ids[0])


def area_target(design: Design) -> int:
    """Target in tenths at ``TARGET_FRACTION`` of the design's area range."""
    lo = sum(min(v.area_tenths for v in k.variants) for k in design.kernels.values())
    hi = sum(max(v.area_tenths for v in k.variants) for k in design.kernels.values())
    num, den = TARGET_FRACTION
    return lo + (hi - lo) * num // den


def lagrangian_optimum(
    design: Design, target_tenths: int, alpha: int
) -> tuple[Configuration, int, int]:
    """Full enumeration of ``alpha * latency + |area - target|``.

    Returns (configuration, latency, area) of the least
    ``(objective, area, configuration)`` key, the solver's documented
    tie-break.
    """
    ids = sorted(design.kernels)
    ranges = [range(len(design.kernels[kid].variants)) for kid in ids]
    best = None
    for combo in itertools.product(*ranges):
        config = Configuration(tuple(zip(ids, combo)))
        result = evaluate(design, config)
        key = (
            alpha * result.latency + abs(result.area_tenths - target_tenths),
            result.area_tenths,
            config,
        )
        if best is None or key < best[0]:
            best = (key, result.latency)
    assert best is not None
    (_, area, config), latency = best
    return config, latency, area
