"""Shared test utilities: seeded generators for random designs, and plain
reference implementations of every latency model and the enumeration oracle.

Generated designs are always structurally valid: acyclic call graphs where
every kernel is reachable from the top, bodies that are well-formed
series-parallel trees, and non-empty variant lists with strictly improving
area/latency trade-offs (ascending area, descending latency).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

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
    enumerate_configurations,
)
from hlsdse.latency import LatencyModelKind

_SOURCE = KernelSource(
    trip_count=0, body_latency=1, op_count=1, base_area_tenths=0, op_area_tenths=0
)


def random_variants(rng: random.Random, max_variants: int = 5) -> tuple[KernelVariant, ...]:
    """A proper trade-off curve: strictly ascending area, descending latency."""
    n = rng.randint(1, max_variants)
    areas = sorted(rng.sample(range(10, 500), n))
    latencies = sorted(rng.sample(range(1, 200), n), reverse=True)
    return tuple(
        KernelVariant(index=i, area_tenths=a, latency=l)
        for i, (a, l) in enumerate(zip(areas, latencies))
    )


def _random_body(
    rng: random.Random,
    callees: list[str],
    allow_par: bool,
    allow_loop: bool,
    max_multiplicity: int,
) -> CompositionNode:
    nodes: list[CompositionNode] = [
        Call(kid, rng.randint(1, max_multiplicity)) for kid in callees
    ]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        take = min(len(nodes), rng.choice((2, 2, 3)))
        group = tuple(nodes.pop() for _ in range(take))
        combined: CompositionNode
        if allow_par and rng.random() < 0.5:
            combined = Par(group)
        else:
            combined = Seq(group)
        nodes.append(combined)
    body = nodes[0]
    if allow_loop and rng.random() < 0.3:
        body = Loop(rng.randint(1, 3), body)
    return body


def random_design(
    rng: random.Random,
    max_kernels: int = 6,
    max_variants: int = 5,
    allow_par: bool = True,
    allow_loop: bool = True,
    max_multiplicity: int = 3,
    second_caller: float = 0.0,
) -> Design:
    """Random valid design: kernel k0 is the top, every other kernel gets a
    caller with a smaller index, so the call graph is acyclic and connected.

    With ``second_caller`` > 0, each kernel from k2 on also gets, with that
    probability, a second, different earlier caller, so that kernels are
    shared. At 0 no extra number is drawn: the designs are those of earlier
    versions for the same seed.
    """
    count = rng.randint(1, max_kernels)
    ids = [f"k{i}" for i in range(count)]
    callees: dict[str, list[str]] = {kid: [] for kid in ids}
    for i in range(1, count):
        first = rng.randrange(i)
        callees[ids[first]].append(ids[i])
        if second_caller and i >= 2 and rng.random() < second_caller:
            other = rng.randrange(i - 1)
            other += other >= first  # any earlier kernel but the first caller
            callees[ids[other]].append(ids[i])
    kernels = {}
    for kid in ids:
        body = (
            _random_body(rng, callees[kid], allow_par, allow_loop, max_multiplicity)
            if callees[kid]
            else None
        )
        kernels[kid] = Kernel(
            id=kid,
            source=_SOURCE,
            variants=random_variants(rng, max_variants),
            body=body,
        )
    return Design(kernels=kernels, top=ids[0])


def coarsened(rng: random.Random, design: Design) -> Design:
    """The design with variants from a few areas and latencies: many ties."""
    kernels = {
        kid: replace(k, variants=tuple(
            KernelVariant(i, rng.choice((10, 20, 30)), rng.choice((1, 2, 5)))
            for i in range(len(k.variants))
        ))
        for kid, k in design.kernels.items()
    }
    return Design(kernels=kernels, top=design.top)


def random_configuration(rng: random.Random, design: Design) -> Configuration:
    return Configuration.from_mapping(
        {kid: rng.randrange(len(k.variants)) for kid, k in design.kernels.items()}
    )


def reference_latency(
    design: Design,
    configuration: Configuration,
    kind: LatencyModelKind = LatencyModelKind.CORRECT,
    max_values: Optional[dict[str, int]] = None,
) -> int:
    """Every latency model straight from its definition, recursively.

    ``correct`` folds the composition trees (``Seq`` adds, ``Par`` takes the
    max, ``Loop`` and ``Call`` scale), and ``sum-mult`` folds them with
    ``Par`` added. ``sum-all`` adds every kernel's own latency, ``top-only``
    is the top's own latency, and ``top-plus-max`` adds to each kernel the
    largest total among the kernels its body calls. ``max_values`` receives
    every max taken: each ``Par`` under its node path, or each caller's
    largest callee under "<kid>/children".
    """
    index = configuration.as_dict()

    def own(kid: str) -> int:
        return design.kernels[kid].variants[index[kid]].latency

    if kind is LatencyModelKind.TOP_ONLY:
        return own(design.top)
    if kind is LatencyModelKind.SUM_ALL:
        return sum(own(kid) for kid in design.kernels)
    totals: dict[str, int] = {}

    def called(n: CompositionNode) -> set[str]:
        if isinstance(n, Call):
            return {n.kernel}
        if isinstance(n, Loop):
            return called(n.child)
        return set().union(*(called(child) for child in n.children))

    def total(kid: str) -> int:
        if kid not in totals:
            body, extra = design.kernels[kid].body, 0
            if body is not None and kind is LatencyModelKind.TOP_PLUS_MAX_CHILDREN:
                extra = max(total(callee) for callee in called(body))
                if max_values is not None:
                    max_values[f"{kid}/children"] = extra
            elif body is not None:
                extra = node(body, f"{kid}/body")
            totals[kid] = own(kid) + extra
        return totals[kid]

    def node(n: CompositionNode, path: str) -> int:
        if isinstance(n, Call):
            return n.multiplicity * total(n.kernel)
        if isinstance(n, Loop):
            return n.trip_count * node(n.child, f"{path}/child")
        values = [node(child, f"{path}/{i}") for i, child in enumerate(n.children)]
        if isinstance(n, Seq) or kind is LatencyModelKind.SUM_WITH_MULTIPLIERS:
            return sum(values)
        if max_values is not None:
            max_values[path] = max(values)
        return max(values)

    for kid in sorted(design.kernels):
        total(kid)
    return totals[design.top]


def reference_oracle(design: Design, area_target_tenths: int) -> tuple:
    """``(best_feasible, min_area)``, each ``(configuration, latency, area)``
    or None, by trying every configuration under the documented tie-break."""
    rows = [
        (
            config,
            reference_latency(design, config),
            sum(design.kernels[kid].variants[i].area_tenths for kid, i in config.items),
        )
        for config in enumerate_configurations(design)
    ]
    best_feasible = min(
        (row for row in rows if row[2] <= area_target_tenths),
        key=lambda row: (row[1], row[2], row[0]),
        default=None,
    )
    return best_feasible, min(rows, key=lambda row: (row[2], row[1], row[0]))
