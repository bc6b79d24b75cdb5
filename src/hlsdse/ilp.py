"""Variant selection as an integer linear program, with an exact solver.

``build_model`` lowers a design into a declarative model: one binary
selection variable per (kernel, variant) with one-hot constraints per kernel,
auxiliary max variables for parallel sections (lower-bounded by each branch,
pulled tight by minimization), and either an area-cap constraint
(ConstrainedArea mode) or a slack pair linearizing |area - target|
(Lagrangian mode).

``solve`` finds the exact optimum by branch and bound over the one-hot
groups: kernels are branched in descending variant-count order and a subtree
is pruned when an admissible bound (the objective with every undecided
kernel at its cheapest possible contribution) already exceeds the incumbent.
There is no LP relaxation and no big-M constant; all arithmetic is exact
(areas are integer tenths). The tie-break among equal-objective optima is
total and shared with the brute-force oracle: smaller area first, then the
lexicographically smaller configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .design import (
    Call,
    CompositionNode,
    Configuration,
    Design,
    Loop,
    Par,
    Seq,
    direct_callees,
)
from .errors import RetriesExhausted
from .latency import LatencyModelKind, _run_plan, eval_area, par_node_values

DEFAULT_MAX_RETRIES = 10


class VarKind(Enum):
    BINARY = "binary"
    NONNEG_INT = "nonneg-int"


@dataclass(frozen=True)
class SelectionVar:
    kernel: str
    variant: int


@dataclass(frozen=True)
class AuxParMax:
    node_path: str


@dataclass(frozen=True)
class AreaSlackPlus:
    pass


@dataclass(frozen=True)
class AreaSlackMinus:
    pass


Annotation = Union[SelectionVar, AuxParMax, AreaSlackPlus, AreaSlackMinus]


@dataclass(frozen=True)
class IlpVariable:
    id: str
    kind: VarKind
    annotation: Annotation


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coef * var) <relation> rhs, relation one of '<=', '>=', '='."""

    terms: tuple[tuple[int, str], ...]
    relation: str
    rhs: int


@dataclass(frozen=True)
class ConstrainedArea:
    area_target_tenths: int


@dataclass(frozen=True)
class Lagrangian:
    """Minimize alpha * latency + |area - target| (area in tenths)."""

    area_target_tenths: int
    alpha: Union[int, float, Fraction] = 1

    @property
    def alpha_fraction(self) -> Fraction:
        if isinstance(self.alpha, float):
            return Fraction(str(self.alpha))
        return Fraction(self.alpha)


ObjectiveSpec = Union[ConstrainedArea, Lagrangian]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class IlpSolution:
    status: SolveStatus
    configuration: Configuration | None
    objective: Fraction | None
    predicted_latency: int | None
    predicted_area_tenths: int | None
    aux_values: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class IlpModel:
    variables: tuple[IlpVariable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[tuple[Union[int, Fraction], str], ...]
    latency_model: LatencyModelKind
    objective_spec: ObjectiveSpec
    design: Design
    branch_order: tuple[str, ...]


@dataclass(frozen=True)
class RelaxResult:
    solution: IlpSolution
    retries: int
    area_target_tenths: int


def _selection_var_id(kernel: str, variant: int) -> str:
    return f"x_{kernel}_{variant}"


def _aux_var_id(path: str) -> str:
    return f"t_{path}"


Expr = dict[str, int]


def _scale_add(dst: Expr, src: Expr, factor: int) -> None:
    for var, coef in src.items():
        dst[var] = dst.get(var, 0) + factor * coef


class _ModelBuilder:
    def __init__(self, design: Design) -> None:
        self.design = design
        self.variables: list[IlpVariable] = []
        self.constraints: list[LinearConstraint] = []

    def add_aux(self, path: str) -> str:
        var_id = _aux_var_id(path)
        self.variables.append(IlpVariable(var_id, VarKind.NONNEG_INT, AuxParMax(path)))
        return var_id

    def latency_expr(self, kind: LatencyModelKind) -> Expr:
        design = self.design
        if kind is LatencyModelKind.TOP_ONLY:
            return self._self_terms(design.top)
        if kind is LatencyModelKind.SUM_ALL:
            expr: Expr = {}
            for kid in sorted(design.kernels):
                _scale_add(expr, self._self_terms(kid), 1)
            return expr
        if kind is LatencyModelKind.SUM_WITH_MULTIPLIERS:
            return self._structural_expr(parallel_as_sum=True)
        if kind is LatencyModelKind.CORRECT:
            return self._structural_expr(parallel_as_sum=False)
        if kind is LatencyModelKind.TOP_PLUS_MAX_CHILDREN:
            return self._top_plus_max_expr()
        raise ValueError(f"unknown latency model {kind!r}")

    def _self_terms(self, kid: str) -> Expr:
        kernel = self.design.kernels[kid]
        expr: Expr = {}
        for v in kernel.variants:
            if v.latency:
                expr[_selection_var_id(kid, v.index)] = v.latency
        return expr

    def _structural_expr(self, parallel_as_sum: bool) -> Expr:
        design = self.design
        kernel_exprs: dict[str, Expr] = {}

        def node_expr(node: CompositionNode, path: str) -> Expr:
            if isinstance(node, Call):
                expr: Expr = {}
                _scale_add(expr, kernel_exprs[node.kernel], node.multiplicity)
                return expr
            if isinstance(node, Seq) or (isinstance(node, Par) and parallel_as_sum):
                expr = {}
                for i, child in enumerate(node.children):
                    _scale_add(expr, node_expr(child, f"{path}/{i}"), 1)
                return expr
            if isinstance(node, Par):
                aux = self.add_aux(path)
                for i, child in enumerate(node.children):
                    child_expr = node_expr(child, f"{path}/{i}")
                    terms = [(1, aux)] + [(-c, v) for v, c in sorted(child_expr.items())]
                    self.constraints.append(LinearConstraint(tuple(terms), ">=", 0))
                return {aux: 1}
            if isinstance(node, Loop):
                expr = {}
                _scale_add(expr, node_expr(node.child, f"{path}/child"), node.trip_count)
                return expr
            raise TypeError(f"not a composition node: {node!r}")

        for kid in design.order:
            kernel = design.kernels[kid]
            expr = self._self_terms(kid)
            if kernel.body is not None:
                _scale_add(expr, node_expr(kernel.body, f"{kid}/body"), 1)
            kernel_exprs[kid] = expr
        return kernel_exprs[design.top]

    def _top_plus_max_expr(self) -> Expr:
        design = self.design
        totals: dict[str, Expr] = {}
        for kid in design.order:
            children = direct_callees(design.kernels[kid])
            own = self._self_terms(kid)
            if not children:
                totals[kid] = own
                continue
            aux = self.add_aux(f"{kid}/children")
            for child in children:
                terms = [(1, aux)] + [(-c, v) for v, c in sorted(totals[child].items())]
                self.constraints.append(LinearConstraint(tuple(terms), ">=", 0))
            expr: Expr = {aux: 1}
            _scale_add(expr, own, 1)
            totals[kid] = expr
        return totals[design.top]


def build_model(
    design: Design,
    objective: ObjectiveSpec,
    latency_model: LatencyModelKind = LatencyModelKind.CORRECT,
) -> IlpModel:
    """Lower a design plus objective into a declarative selection model."""
    builder = _ModelBuilder(design)

    # Binary selection variables and their one-hot constraints, kernels sorted.
    one_hots: list[LinearConstraint] = []
    for kid in sorted(design.kernels):
        terms = []
        for v in design.kernels[kid].variants:
            var_id = _selection_var_id(kid, v.index)
            builder.variables.append(
                IlpVariable(var_id, VarKind.BINARY, SelectionVar(kid, v.index))
            )
            terms.append((1, var_id))
        one_hots.append(LinearConstraint(tuple(terms), "=", 1))

    latency_terms = builder.latency_expr(latency_model)
    area_terms: Expr = {}
    for kid in sorted(design.kernels):
        for v in design.kernels[kid].variants:
            if v.area_tenths:
                area_terms[_selection_var_id(kid, v.index)] = v.area_tenths

    constraints = one_hots + builder.constraints
    objective_terms: list[tuple[Union[int, Fraction], str]] = []

    if isinstance(objective, ConstrainedArea):
        constraints.append(
            LinearConstraint(
                tuple((c, v) for v, c in sorted(area_terms.items())),
                "<=",
                objective.area_target_tenths,
            )
        )
        objective_terms = [(c, v) for v, c in sorted(latency_terms.items())]
    elif isinstance(objective, Lagrangian):
        builder.variables.append(IlpVariable("d_plus", VarKind.NONNEG_INT, AreaSlackPlus()))
        builder.variables.append(IlpVariable("d_minus", VarKind.NONNEG_INT, AreaSlackMinus()))
        terms = [(c, v) for v, c in sorted(area_terms.items())]
        terms += [(-1, "d_plus"), (1, "d_minus")]
        constraints.append(
            LinearConstraint(tuple(terms), "=", objective.area_target_tenths)
        )
        alpha = objective.alpha_fraction
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {objective.alpha!r}")
        coef = int(alpha) if alpha.denominator == 1 else alpha
        objective_terms = [(coef * c, v) for v, c in sorted(latency_terms.items())]
        objective_terms += [(1, "d_plus"), (1, "d_minus")]
    else:
        raise TypeError(f"not an objective spec: {objective!r}")

    branch_order = tuple(
        sorted(design.kernels, key=lambda kid: (-len(design.kernels[kid].variants), kid))
    )
    return IlpModel(
        variables=tuple(builder.variables),
        constraints=tuple(constraints),
        objective=tuple(objective_terms),
        latency_model=latency_model,
        objective_spec=objective,
        design=design,
        branch_order=branch_order,
    )


def _check_declarative(
    model: IlpModel,
    configuration: Configuration,
    aux_values: dict[str, int],
    area_tenths: int,
    objective_value: Fraction | int,
) -> None:
    # The structured search and the declarative model are built independently
    # enough that cross-checking the winner against every constraint is a
    # cheap safety net.
    assignment: dict[str, Fraction | int] = {
        _aux_var_id(path): value for path, value in aux_values.items()
    }
    chosen_by_kid = configuration.as_dict()
    for kid in model.design.kernels:
        chosen = chosen_by_kid[kid]
        for v in model.design.kernels[kid].variants:
            assignment[_selection_var_id(kid, v.index)] = 1 if v.index == chosen else 0
    if isinstance(model.objective_spec, Lagrangian):
        diff = area_tenths - model.objective_spec.area_target_tenths
        assignment["d_plus"] = max(diff, 0)
        assignment["d_minus"] = max(-diff, 0)

    for constraint in model.constraints:
        value = sum(coef * assignment[var] for coef, var in constraint.terms)
        ok = (
            value <= constraint.rhs
            if constraint.relation == "<="
            else value >= constraint.rhs
            if constraint.relation == ">="
            else value == constraint.rhs
        )
        if not ok:
            raise AssertionError(
                f"solution violates constraint {constraint!r} (value {value})"
            )
    declared = sum(coef * assignment[var] for coef, var in model.objective)
    if declared != objective_value:
        raise AssertionError(
            f"declarative objective {declared} != solver objective {objective_value}"
        )


def solve(model: IlpModel) -> IlpSolution:
    """Exact optimum of the model, deterministic up to the documented tie-break."""
    design = model.design
    order = model.branch_order
    kernels = design.kernels
    constrained = isinstance(model.objective_spec, ConstrainedArea)
    target = model.objective_spec.area_target_tenths
    alpha = None if constrained else model.objective_spec.alpha_fraction

    min_latency = {kid: min(v.latency for v in kernels[kid].variants) for kid in kernels}
    min_area = {kid: min(v.area_tenths for v in kernels[kid].variants) for kid in kernels}
    max_area = {kid: max(v.area_tenths for v in kernels[kid].variants) for kid in kernels}

    plan, slots = design.plan(model.latency_model), design.order
    partial: dict[str, int] = {}

    def self_latency(kid: str) -> int:
        idx = partial.get(kid)
        return min_latency[kid] if idx is None else kernels[kid].variants[idx].latency

    def latency_bound() -> int:
        return _run_plan(plan, [self_latency(kid) for kid in slots])

    # (objective, area, configuration): the objective stays an int under
    # ConstrainedArea, so bounds compare without Fraction arithmetic.
    best_key: tuple | None = None
    best_latency = 0

    def bound() -> Fraction | int | None:
        area_lo = area_hi = 0
        for kid in kernels:
            idx = partial.get(kid)
            if idx is None:
                area_lo += min_area[kid]
                area_hi += max_area[kid]
            else:
                chosen = kernels[kid].variants[idx].area_tenths
                area_lo += chosen
                area_hi += chosen
        if constrained:
            if area_lo > target:
                return None  # no completion can satisfy the area cap
            return latency_bound()
        distance_lb = max(0, area_lo - target, target - area_hi)
        return alpha * latency_bound() + distance_lb

    def visit(depth: int) -> None:
        nonlocal best_key, best_latency
        if depth == len(order):
            config = Configuration.from_mapping(partial)
            area = eval_area(design, config)
            if constrained and area > target:
                return
            latency = latency_bound()  # exact: every kernel is chosen here
            objective = latency if constrained else alpha * latency + abs(area - target)
            key = (objective, area, config)
            if best_key is None or key < best_key:
                best_key, best_latency = key, latency
            return
        kid = order[depth]
        for idx in range(len(kernels[kid].variants)):
            partial[kid] = idx
            b = bound()
            # Strict comparison: an equal bound may still tie and win on the
            # (area, configuration) components of the key.
            if b is not None and (best_key is None or b <= best_key[0]):
                visit(depth + 1)
            del partial[kid]

    visit(0)

    if best_key is None:
        return IlpSolution(
            status=SolveStatus.INFEASIBLE,
            configuration=None,
            objective=None,
            predicted_latency=None,
            predicted_area_tenths=None,
        )
    objective, area, config = best_key
    aux = par_node_values(design, config, model.latency_model)
    _check_declarative(model, config, aux, area, objective)
    return IlpSolution(
        status=SolveStatus.OPTIMAL,
        configuration=config,
        objective=Fraction(objective),
        predicted_latency=best_latency,
        predicted_area_tenths=area,
        aux_values=tuple(sorted(aux.items())),
    )


def relax_target(area_target_tenths: int, step_fraction: float) -> int:
    """One relaxation step: floor(target * (1 + step)), exact arithmetic."""
    if step_fraction < 0:
        raise ValueError(f"step_fraction must be >= 0, got {step_fraction}")
    factor = 1 + Fraction(str(step_fraction))
    return (area_target_tenths * factor.numerator) // factor.denominator


def retry_relax(
    model: IlpModel, step_fraction: float, max_retries: int = DEFAULT_MAX_RETRIES
) -> RelaxResult:
    """Solve, relaxing an infeasible area target by (1 + step) per retry.

    Requires a ConstrainedArea model. Returns the first Optimal solution with
    the retry count and the target that finally admitted it; raises
    RetriesExhausted when every attempt stays infeasible.
    """
    if not isinstance(model.objective_spec, ConstrainedArea):
        raise ValueError("retry_relax requires a ConstrainedArea model")
    if step_fraction < 0:
        raise ValueError(f"step_fraction must be >= 0, got {step_fraction}")
    target = model.objective_spec.area_target_tenths
    current = model
    for retries in range(max_retries + 1):
        solution = solve(current)
        if solution.status is SolveStatus.OPTIMAL:
            return RelaxResult(
                solution=solution,
                retries=retries,
                area_target_tenths=current.objective_spec.area_target_tenths,
            )
        target = relax_target(target, step_fraction)
        current = build_model(model.design, ConstrainedArea(target), model.latency_model)
    raise RetriesExhausted(max_retries, target)


def to_lp_text(model: IlpModel) -> str:
    """Human-readable rendering of the declarative model, for debugging."""

    def term(coef, var: str) -> str:
        return f"{coef}*{var}"

    lines = ["min: " + " + ".join(term(c, v) for c, v in model.objective)]
    for constraint in model.constraints:
        lhs = " + ".join(term(c, v) for c, v in constraint.terms)
        lines.append(f"{lhs} {constraint.relation} {constraint.rhs}")
    for variable in model.variables:
        lines.append(f"{variable.kind.value}: {variable.id}")
    return "\n".join(lines) + "\n"
