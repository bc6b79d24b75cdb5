"""Core data model: kernels, implementation variants, composition trees, configurations.

A *design* is a set of kernels (functions earmarked for hardware
implementation), each offering one or more implementation *variants* with an
(area, latency) cost point, plus a series-parallel *composition tree* per
kernel describing how its callees execute: sequential sections add latency,
parallel sections take the maximum, loops multiply by their trip count, and a
call may carry a multiplicity (the callee runs that many times back to back
on one shared hardware instance).

Areas are stored as integer tenths of an abstract unit so that all downstream
arithmetic (evaluation, optimization, scoring) stays exact; latencies are
integer cycles. Every type here is immutable after construction and safe to
share between threads or worker processes.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence, Union

from .errors import CapExceeded, CyclicDesign, ParseError

if TYPE_CHECKING:
    from .agent import Observation
    from .ilp import IlpSolution
    from .latency import LatencyModelKind, LatencyPlan

ENUMERATION_CAP = 10**6

MAX_BODY_DEPTH = 256
"""Deepest composition body a design file may hold, its root being level 1.

The parser is the one body walk that recurses, two interpreter frames per
level; every other walk is ``fold_body``, which keeps its own stack. So a
file at this depth parses well inside the default recursion limit.
"""


def area_to_tenths(value: float | int) -> int:
    """Convert an area in units (at most one decimal place) to integer tenths."""
    try:
        scaled = round(float(value) * 10)
    except (OverflowError, ValueError):  # inf, nan, or an int beyond float range
        raise ValueError(f"area {value!r} is not a finite number") from None
    if abs(float(value) * 10 - scaled) > 1e-6:
        raise ValueError(f"area {value!r} has more than one decimal place")
    return int(scaled)


def tenths_to_area(tenths: int) -> float:
    """Convert integer tenths back to area units for display/serialization."""
    return tenths / 10.0


@dataclass(frozen=True, slots=True)
class PragmaConfig:
    """Synthesis directives applied to one kernel: unroll factor and pipelining.

    ``ii`` is the pipeline initiation interval; ``None`` means no pipelining.
    """

    unroll: int = 1
    ii: int | None = None

    @property
    def pipelined(self) -> bool:
        return self.ii is not None


DEFAULT_PRAGMA = PragmaConfig()
"""No unrolling, no pipelining: one instance shared by every variant that has it."""


@dataclass(frozen=True, slots=True)
class KernelSource:
    """Abstract cost descriptor standing in for a kernel's source code.

    ``trip_count`` is the dominant loop's iteration count (0 for a
    straight-line body), ``body_latency`` the cycles of one iteration,
    ``op_count`` how many operations are replicated by unrolling, and the two
    area fields the fixed and per-replicated-operation area in tenths.
    """

    trip_count: int
    body_latency: int
    op_count: int
    base_area_tenths: int
    op_area_tenths: int


@dataclass(frozen=True, slots=True)
class KernelVariant:
    """One point on a kernel's area/latency trade-off curve."""

    index: int
    area_tenths: int
    latency: int
    pragma: PragmaConfig = DEFAULT_PRAGMA

    @property
    def area(self) -> float:
        return tenths_to_area(self.area_tenths)


@dataclass(frozen=True, slots=True)
class Call:
    """Invocation of another kernel, ``multiplicity`` times in sequence."""

    kernel: str
    multiplicity: int = 1


@dataclass(frozen=True, slots=True)
class Seq:
    children: tuple["CompositionNode", ...]


@dataclass(frozen=True, slots=True)
class Par:
    """Children execute concurrently; requires at least two children."""

    children: tuple["CompositionNode", ...]


@dataclass(frozen=True, slots=True)
class Loop:
    trip_count: int
    child: "CompositionNode"


CompositionNode = Union[Call, Seq, Par, Loop]


def call(kernel: str, multiplicity: int = 1) -> Call:
    return Call(kernel, multiplicity)


def seq(*children: CompositionNode) -> Seq:
    return Seq(tuple(children))


def par(*children: CompositionNode) -> Par:
    return Par(tuple(children))


def loop(trip_count: int, child: CompositionNode) -> Loop:
    return Loop(trip_count, child)


@dataclass(frozen=True, slots=True)
class Kernel:
    """A kernel with its source descriptor, variants, and optional body.

    ``body`` is None for leaf kernels. ``variants`` may be empty in a design
    *skeleton* (before variant generation); evaluation requires it non-empty.
    """

    id: str
    source: KernelSource
    variants: tuple[KernelVariant, ...] = ()
    body: CompositionNode | None = None


@dataclass(frozen=True)
class Design:
    """A full design: kernel map plus the id of the top-level kernel.

    The kernel mapping must not be mutated after construction.
    """

    kernels: Mapping[str, Kernel]
    top: str

    @cached_property
    def order(self) -> tuple[str, ...]:
        """``topological_order(self)``, computed once per design."""
        return topological_order(self)

    @cached_property
    def _plans(self) -> dict["LatencyModelKind", "LatencyPlan"]:
        return {}

    def plan(self, kind: "LatencyModelKind") -> "LatencyPlan":
        """``latency.lower_latency_plan(self, kind)``, lowered on first use
        and kept once per design and model."""
        plan = self._plans.get(kind)
        if plan is None:
            from .latency import lower_latency_plan

            plan = self._plans[kind] = lower_latency_plan(self, kind)
        return plan

    @cached_property
    def _answers(self) -> dict[tuple, "IlpSolution"]:
        """Solver answers computed once per design, never models or fronts:
        ``agent._answer``'s ``IlpSolution``s, keyed by the normalised
        question ``(model, mode, area target, alpha or None)``."""
        return {}

    @cached_property
    def _replies(self) -> dict[object, tuple["Observation", str]]:
        """Session replies computed once per design: ``agent.Session._reply``'s
        ``(observation, observation_json)`` pairs, keyed by what the
        observation depends on — ``("inspect", kernel)``, ``_question(action)``
        for a solve, or the synthesized ``Configuration``."""
        return {}

    def with_variants(self, options: Mapping[str, tuple[KernelVariant, ...]]) -> "Design":
        """Return a copy with the given variant lists installed per kernel."""
        kernels = {
            kid: replace(k, variants=tuple(options.get(kid, k.variants)))
            for kid, k in self.kernels.items()
        }
        return Design(kernels=kernels, top=self.top)


@dataclass(frozen=True, order=True, slots=True)
class Configuration:
    """One selected variant index per kernel, kept sorted by kernel id.

    Ordering is lexicographic over the sorted (kernel, index) pairs, which
    for configurations of the same design reduces to lexicographic order of
    the index vector; this is the tie-break order used by the optimizers.
    """

    items: tuple[tuple[str, int], ...]

    @classmethod
    def from_mapping(cls, choice: Mapping[str, int]) -> "Configuration":
        return cls(tuple(sorted(choice.items())))

    def __getitem__(self, kernel: str) -> int:
        for kid, idx in self.items:
            if kid == kernel:
                return idx
        raise KeyError(kernel)

    def __contains__(self, kernel: str) -> bool:
        return any(kid == kernel for kid, _ in self.items)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def replace(self, kernel: str, index: int) -> "Configuration":
        if kernel not in self:
            raise KeyError(kernel)
        return Configuration(
            tuple((kid, index if kid == kernel else idx) for kid, idx in self.items)
        )


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UnresolvedCall:
    path: str
    kernel: str


@dataclass(frozen=True)
class CycleDetected:
    kernel: str


@dataclass(frozen=True)
class EmptyVariants:
    kernel: str


@dataclass(frozen=True)
class UnreachableKernel:
    kernel: str


@dataclass(frozen=True)
class MalformedNode:
    path: str
    reason: str


@dataclass(frozen=True)
class BadVariant:
    kernel: str
    reason: str


Violation = Union[
    UnresolvedCall, CycleDetected, EmptyVariants, UnreachableKernel, MalformedNode, BadVariant
]


def fold_body(body: CompositionNode, path: str | None, visit: Callable[..., Any]) -> Any:
    """Fold a composition body bottom-up and return ``visit``'s value at the root.

    ``visit(node, path, values)`` runs at every node after its children, with
    their values in a new list (a ``Call`` gets ``()``). This is the one walk
    over bodies. It names the children of ``Seq`` and ``Par`` "<path>/<i>"
    and a ``Loop``'s "<path>/child"; under a ``None`` path it names nothing,
    which spares visitors that ignore names strings as long as the body is
    deep. It keeps its own stack, so no depth overflows the interpreter's,
    and raises TypeError on a non-node.
    """
    values: list = []
    stack: list = [(body, path, -1)]  # -1: children not pushed yet
    while stack:
        node, path, count = stack.pop()
        if count >= 0:
            cut = len(values) - count
            child_values = values[cut:]
            del values[cut:]
            values.append(visit(node, path, child_values))
        elif isinstance(node, Call):
            values.append(visit(node, path, ()))
        elif isinstance(node, (Seq, Par)):
            children = node.children
            stack.append((node, path, len(children)))
            for i in range(len(children) - 1, -1, -1):
                stack.append((children[i], None if path is None else f"{path}/{i}", -1))
        elif isinstance(node, Loop):
            stack.append((node, path, 1))
            stack.append((node.child, None if path is None else f"{path}/child", -1))
        else:
            raise TypeError(f"not a composition node: {node!r}")
    return values[0]


def walk_calls(node: CompositionNode) -> list[Call]:
    """Every call site of the body, in child order."""
    calls: list[Call] = []

    def visit(node: CompositionNode, path: None, values: Sequence) -> None:
        if isinstance(node, Call):
            calls.append(node)

    fold_body(node, None, visit)
    return calls


def direct_callees(kernel: Kernel) -> tuple[str, ...]:
    """Distinct kernels called from this kernel's body, sorted."""
    if kernel.body is None:
        return ()
    return tuple(sorted({c.kernel for c in walk_calls(kernel.body)}))


def _call_graph_dfs(design: Design) -> tuple[tuple[str, ...], list[str]]:
    """Kernel ids with every callee before its callers, and each kernel found
    closing a call-graph cycle. Depth-first from each kernel in sorted order,
    callees sorted and unresolved ones skipped, on an explicit stack so that
    deep call chains cannot overflow the interpreter's."""
    finished: dict[str, bool] = {}  # False while the kernel is on the stack
    order: list[str] = []
    cycles: list[str] = []
    for root in sorted(design.kernels):
        if root in finished:
            continue
        finished[root] = False
        stack = [(root, iter(direct_callees(design.kernels[root])))]
        while stack:
            kid, callees = stack[-1]
            callee = next(callees, None)
            if callee is None:
                stack.pop()
                finished[kid] = True
                order.append(kid)
            elif callee not in design.kernels:
                continue
            elif callee not in finished:
                finished[callee] = False
                stack.append((callee, iter(direct_callees(design.kernels[callee]))))
            elif not finished[callee]:
                cycles.append(callee)
    return tuple(order), cycles


def topological_order(design: Design) -> tuple[str, ...]:
    """``_call_graph_dfs``'s order; raises CyclicDesign naming the first
    kernel found on a call-graph cycle."""
    order, cycles = _call_graph_dfs(design)
    if cycles:
        raise CyclicDesign(cycles[0])
    return order


def validate(design: Design, require_variants: bool = True) -> list[Violation]:
    """Check every model invariant; returns a sorted list of violations.

    The result is independent of kernel-map insertion order. With
    ``require_variants=False`` empty variant lists are tolerated, which is the
    state of a design skeleton before variant generation.
    """
    out: set[Violation] = set()

    def check_node(node: CompositionNode, path: str, values: Sequence) -> None:
        if isinstance(node, Call):
            if node.kernel not in design.kernels:
                out.add(UnresolvedCall(path, node.kernel))
            if node.multiplicity < 1:
                out.add(MalformedNode(path, f"multiplicity {node.multiplicity} < 1"))
        elif isinstance(node, Par):
            if len(node.children) < 2:
                out.add(MalformedNode(path, f"par with {len(node.children)} children"))
        elif isinstance(node, Loop):
            if node.trip_count < 1:
                out.add(MalformedNode(path, f"trip_count {node.trip_count} < 1"))

    if design.top not in design.kernels:
        out.add(MalformedNode("top", f"top kernel {design.top!r} is not defined"))

    for kid in sorted(design.kernels):
        kernel = design.kernels[kid]
        if not kernel.variants:
            if require_variants:
                out.add(EmptyVariants(kid))
        else:
            indices = [v.index for v in kernel.variants]
            if len(set(indices)) != len(indices):
                out.add(BadVariant(kid, "duplicate variant index"))
            for v in kernel.variants:
                if v.area_tenths < 0 or v.latency < 0:
                    out.add(BadVariant(kid, f"negative cost in variant {v.index}"))
        if kernel.body is not None:
            fold_body(kernel.body, f"{kid}/body", check_node)

    out.update(CycleDetected(kid) for kid in _call_graph_dfs(design)[1])

    # Reachability from top.
    if design.top in design.kernels:
        seen = {design.top}
        frontier = [design.top]
        while frontier:
            kid = frontier.pop()
            for callee in direct_callees(design.kernels[kid]):
                if callee in design.kernels and callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        for kid in sorted(design.kernels):
            if kid not in seen:
                out.add(UnreachableKernel(kid))

    return sorted(out, key=repr)


def check_configuration(design: Design, configuration: Configuration) -> None:
    """Raise ValueError unless the configuration is complete and in range.

    Every index must be an ``int`` and not a ``bool``, as on the wire: ``1.0``
    and ``True`` equal ``1`` and hash alike, so they would share its memoized
    replies, yet ``1.0`` cannot index a variant list.
    """
    chosen = configuration.as_dict()
    if set(chosen) != set(design.kernels):
        missing = sorted(set(design.kernels) - set(chosen))
        extra = sorted(set(chosen) - set(design.kernels))
        raise ValueError(f"configuration mismatch: missing={missing} extra={extra}")
    for kid, idx in chosen.items():
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise ValueError(f"kernel {kid!r}: variant index {idx!r} is not an int")
        n = len(design.kernels[kid].variants)
        if not 0 <= idx < n:
            raise ValueError(f"kernel {kid!r}: variant index {idx} out of range [0, {n})")


def configuration_count(design: Design) -> int:
    count = 1
    for kid in design.kernels:
        count *= len(design.kernels[kid].variants)
    return count


def configuration_space(
    design: Design, cap: int = ENUMERATION_CAP
) -> tuple[list[str], Iterator[tuple[int, ...]]]:
    """Sorted kernel ids and every variant-index tuple over them, lexicographically.

    Raises CapExceeded at once when there are more than ``cap`` tuples.
    """
    count = configuration_count(design)
    if count > cap:
        raise CapExceeded(count, cap)
    ids = sorted(design.kernels)
    ranges = [range(len(design.kernels[kid].variants)) for kid in ids]
    return ids, itertools.product(*ranges)


def enumerate_configurations(
    design: Design, cap: int = ENUMERATION_CAP
) -> Iterator[Configuration]:
    """Yield every configuration once, in lexicographic (kernel id, index) order."""
    ids, combos = configuration_space(design, cap)
    for combo in combos:
        yield Configuration(tuple(zip(ids, combo)))


# --------------------------------------------------------------------------
# JSON serialization
# --------------------------------------------------------------------------
#
# Schema (all field names fixed, unknown fields rejected):
#   {"top": id, "kernels": [{"id": ..., "source": {...},
#                            "variants": [{"area", "latency", "pragma"}],
#                            "body": node?}]}
#   node = {"call": {"kernel", "multiplicity"?}} | {"seq": [node, ...]}
#        | {"par": [node, ...]} | {"loop": {"trip_count", "child": node}}
#   pragma = {"unroll": int, "ii": int | null}
#   source = {"trip_count", "body_latency", "op_count", "base_area", "op_area"}
# Areas appear in units with at most one decimal place.

def _require_keys(obj: Any, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}", where)
    unknown = set(obj) - required - optional
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)}", where)
    missing = required - set(obj)
    if missing:
        raise ParseError(f"missing field(s) {sorted(missing)}", where)


def _parse_int(value: Any, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"expected an integer, got {value!r}", where)
    if minimum is not None and value < minimum:
        raise ParseError(f"{value} below minimum {minimum}", where)
    return value


def _parse_area(value: Any, where: str) -> int:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"expected a number, got {value!r}", where)
    if value < 0:
        raise ParseError(f"area {value} is negative", where)
    try:
        return area_to_tenths(value)
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def _node_from_dict(data: Any, where: str, depth: int = 1) -> CompositionNode:
    if depth > MAX_BODY_DEPTH:
        raise ParseError(f"body nested deeper than {MAX_BODY_DEPTH} levels", where)
    if not isinstance(data, dict) or len(data) != 1:
        raise ParseError("node must be an object with exactly one key", where)
    (tag, payload), = data.items()
    if tag == "call":
        _require_keys(payload, {"kernel"}, {"multiplicity"}, where)
        if not isinstance(payload["kernel"], str):
            raise ParseError("kernel id must be a string", where)
        mult = _parse_int(payload.get("multiplicity", 1), f"{where}.multiplicity")
        return Call(sys.intern(payload["kernel"]), mult)
    if tag in ("seq", "par"):
        if not isinstance(payload, list):
            raise ParseError(f"{tag} payload must be a list", where)
        children = tuple(
            _node_from_dict(item, f"{where}/{i}", depth + 1) for i, item in enumerate(payload)
        )
        return Seq(children) if tag == "seq" else Par(children)
    if tag == "loop":
        _require_keys(payload, {"trip_count", "child"}, set(), where)
        trip = _parse_int(payload["trip_count"], f"{where}.trip_count")
        return Loop(trip, _node_from_dict(payload["child"], f"{where}/child", depth + 1))
    raise ParseError(f"unknown node kind {tag!r}", where)


def _node_to_dict(node: CompositionNode, path: None, values: list) -> dict[str, Any]:
    if isinstance(node, Call):
        return {"call": {"kernel": node.kernel, "multiplicity": node.multiplicity}}
    if isinstance(node, Loop):
        return {"loop": {"trip_count": node.trip_count, "child": values[0]}}
    return {"seq" if isinstance(node, Seq) else "par": values}


def _pragma_from_dict(data: Any, where: str) -> PragmaConfig:
    _require_keys(data, {"unroll", "ii"}, set(), where)
    unroll = _parse_int(data["unroll"], f"{where}.unroll", minimum=1)
    ii = data["ii"]
    if ii is not None:
        ii = _parse_int(ii, f"{where}.ii", minimum=1)
    if unroll == 1 and ii is None:
        return DEFAULT_PRAGMA
    return PragmaConfig(unroll=unroll, ii=ii)


def _source_from_dict(data: Any, where: str) -> KernelSource:
    _require_keys(
        data, {"trip_count", "body_latency", "op_count", "base_area", "op_area"}, set(), where
    )
    return KernelSource(
        trip_count=_parse_int(data["trip_count"], f"{where}.trip_count", minimum=0),
        body_latency=_parse_int(data["body_latency"], f"{where}.body_latency", minimum=0),
        op_count=_parse_int(data["op_count"], f"{where}.op_count", minimum=1),
        base_area_tenths=_parse_area(data["base_area"], f"{where}.base_area"),
        op_area_tenths=_parse_area(data["op_area"], f"{where}.op_area"),
    )


def _kernel_from_dict(data: Any, where: str) -> Kernel:
    _require_keys(data, {"id", "source", "variants"}, {"body"}, where)
    kid = data["id"]
    if not isinstance(kid, str) or not kid:
        raise ParseError("kernel id must be a non-empty string", where)
    kid = sys.intern(kid)  # ids recur in calls and in every design parsed: one string each
    if not isinstance(data["variants"], list):
        raise ParseError("variants must be a list", f"{where}.variants")
    variants = []
    for i, item in enumerate(data["variants"]):
        vwhere = f"{where}.variants[{i}]"
        _require_keys(item, {"area", "latency", "pragma"}, set(), vwhere)
        variants.append(
            KernelVariant(
                index=i,
                area_tenths=_parse_area(item["area"], f"{vwhere}.area"),
                latency=_parse_int(item["latency"], f"{vwhere}.latency", minimum=0),
                pragma=_pragma_from_dict(item["pragma"], f"{vwhere}.pragma"),
            )
        )
    body = data.get("body")
    node = None if body is None else _node_from_dict(body, f"{where}:{kid}/body")
    return Kernel(
        id=kid,
        source=_source_from_dict(data["source"], f"{where}.source"),
        variants=tuple(variants),
        body=node,
    )


def design_from_dict(data: Any, where: str = "design") -> Design:
    """Build a Design from parsed JSON; strict about field names and types."""
    _require_keys(data, {"top", "kernels"}, set(), where)
    if not isinstance(data["top"], str):
        raise ParseError("top must be a string", where)
    if not isinstance(data["kernels"], list):
        raise ParseError("kernels must be a list", where)
    kernels: dict[str, Kernel] = {}
    for i, item in enumerate(data["kernels"]):
        kernel = _kernel_from_dict(item, f"{where}.kernels[{i}]")
        if kernel.id in kernels:
            raise ParseError(f"duplicate kernel id {kernel.id!r}", where)
        kernels[kernel.id] = kernel
    return Design(kernels=kernels, top=data["top"])


def design_to_dict(design: Design) -> dict[str, Any]:
    kernels = []
    for kid, kernel in design.kernels.items():
        entry: dict[str, Any] = {
            "id": kid,
            "source": {
                "trip_count": kernel.source.trip_count,
                "body_latency": kernel.source.body_latency,
                "op_count": kernel.source.op_count,
                "base_area": tenths_to_area(kernel.source.base_area_tenths),
                "op_area": tenths_to_area(kernel.source.op_area_tenths),
            },
            "variants": [
                {
                    "area": v.area,
                    "latency": v.latency,
                    "pragma": {"unroll": v.pragma.unroll, "ii": v.pragma.ii},
                }
                for v in kernel.variants
            ],
        }
        if kernel.body is not None:
            entry["body"] = fold_body(kernel.body, None, _node_to_dict)
        kernels.append(entry)
    return {"top": design.top, "kernels": kernels}


def loads_design(text: str) -> Design:
    try:
        data = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder's; the node parser stops at MAX_BODY_DEPTH
        raise ParseError("design nested too deeply") from None
    return design_from_dict(data)


def dumps_design(design: Design) -> str:
    try:
        return json.dumps(design_to_dict(design), indent=2, sort_keys=True) + "\n"
    except RecursionError:  # the encoder's, on a body no file may hold (MAX_BODY_DEPTH)
        raise ParseError("design nested too deeply") from None


def _summary(node: CompositionNode, path: None, values: Sequence[str]) -> str:
    if isinstance(node, Call):
        return node.kernel if node.multiplicity == 1 else f"{node.kernel} x{node.multiplicity}"
    if isinstance(node, Loop):
        return f"loop{node.trip_count}({values[0]})"
    return ("seq(" if isinstance(node, Seq) else "par(") + ", ".join(values) + ")"


def node_summary(node: CompositionNode) -> str:
    """Compact one-line rendering of a composition tree, for observations."""
    return fold_body(node, None, _summary)
