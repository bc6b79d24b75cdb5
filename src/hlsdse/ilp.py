"""Variant selection as an integer linear program, with an exact solver.

``build_model`` reads a declarative model off the latency model's plan
(``Design.plan``): one binary selection variable per (kernel, variant) with
one-hot constraints per kernel, the plan's linear forms over those
variables, one auxiliary variable per max step (lower-bounded by each of its
forms, pulled tight by minimization), and either an area-cap constraint
(ConstrainedArea mode) or a slack pair linearizing |area - target|
(Lagrangian mode). What each latency model means is said once, in
``latency.lower_latency_plan``.

``solve`` finds the exact optimum without an LP relaxation or a big-M
constant; all arithmetic is exact (areas are integer tenths). A
ConstrainedArea model is answered on the composed (area, latency) front of
its latency model (``front.best_within``): kernels reached along one path of
the model's plan combine as fronts, and kernels reached along more than one
are searched depth first, skipping a subtree whose relaxed front cannot
beat the best point found so far. A Lagrangian model, whose
``|area - target|`` term can favour a larger area, is solved by branch and
bound over the one-hot groups: kernels are branched in descending
variant-count order and a subtree is pruned when an admissible bound (the
objective with every undecided kernel at its cheapest possible contribution)
already exceeds the incumbent. The tie-break among equal-objective optima is
total and shared with the brute-force oracle: smaller area first, then the
lexicographically smaller configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .design import Configuration, Design
from .latency import LatencyModelKind, LinearForm, _run_plan, eval_area, par_node_values


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


def _selection_var_id(kernel: str, variant: int) -> str:
    return f"x_{kernel}_{variant}"


def _aux_var_id(path: str) -> str:
    return f"t_{path}"


Expr = dict[str, int]


def _scale_add(dst: Expr, src: Expr, factor: int) -> None:
    for var, coef in src.items():
        dst[var] = dst.get(var, 0) + factor * coef


def _latency_terms(
    design: Design,
    kind: LatencyModelKind,
    variables: list[IlpVariable],
    constraints: list[LinearConstraint],
) -> Expr:
    """The model's plan over the selection variables: the top's latency term.

    Each kernel slot starts as its own variant latencies. An add step adds
    its substituted form; a max step becomes an aux variable bounded below
    by each of its forms, and its slot becomes that variable.
    """
    plan = design.plan(kind)
    exprs: list[Expr] = [
        {_selection_var_id(kid, v.index): v.latency
         for v in design.kernels[kid].variants if v.latency}
        for kid in design.order
    ]
    exprs += [{} for _ in range(plan.size - len(exprs))]

    def substituted(form: LinearForm) -> Expr:
        expr: Expr = {}
        for slot, coef in form:
            _scale_add(expr, exprs[slot], coef)
        return expr

    for slot, path, forms in plan.steps:
        if path is None:
            for s, coef in forms[0]:
                _scale_add(exprs[slot], exprs[s], coef)
            continue
        aux = _aux_var_id(path)
        variables.append(IlpVariable(aux, VarKind.NONNEG_INT, AuxParMax(path)))
        for form in forms:
            terms = [(1, aux)] + [(-c, v) for v, c in sorted(substituted(form).items())]
            constraints.append(LinearConstraint(tuple(terms), ">=", 0))
        exprs[slot] = {aux: 1}
    return exprs[plan.top]


def build_model(
    design: Design,
    objective: ObjectiveSpec,
    latency_model: LatencyModelKind = LatencyModelKind.CORRECT,
) -> IlpModel:
    """Lower a design plus objective into a declarative selection model."""
    variables: list[IlpVariable] = []
    constraints: list[LinearConstraint] = []
    # Binary selection variables and their one-hot constraints, kernels sorted.
    for kid in sorted(design.kernels):
        terms = []
        for v in design.kernels[kid].variants:
            var_id = _selection_var_id(kid, v.index)
            variables.append(IlpVariable(var_id, VarKind.BINARY, SelectionVar(kid, v.index)))
            terms.append((1, var_id))
        constraints.append(LinearConstraint(tuple(terms), "=", 1))

    latency_terms = _latency_terms(design, latency_model, variables, constraints)
    area_terms: Expr = {}
    for kid in sorted(design.kernels):
        for v in design.kernels[kid].variants:
            if v.area_tenths:
                area_terms[_selection_var_id(kid, v.index)] = v.area_tenths

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
        variables.append(IlpVariable("d_plus", VarKind.NONNEG_INT, AreaSlackPlus()))
        variables.append(IlpVariable("d_minus", VarKind.NONNEG_INT, AreaSlackMinus()))
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
        variables=tuple(variables),
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
    # Guards the search, not the lowering: the winner found by the front
    # search, recovery or branch and bound must satisfy every row of the
    # model, with the plan's own max values as the aux variables, and score
    # the objective the search claims. The lowering's independent reference
    # is the test suite's recursive ``reference_latency``.
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


def _lagrangian_search(model: IlpModel) -> tuple[Fraction, int, Configuration, int]:
    """Branch and bound for a Lagrangian model: (objective, area,
    configuration, latency) of the least (objective, area, configuration)."""
    design = model.design
    order = model.branch_order
    kernels = design.kernels
    target = model.objective_spec.area_target_tenths
    alpha = model.objective_spec.alpha_fraction

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

    best_key: tuple | None = None  # (objective, area, configuration)
    best_latency = 0

    def bound() -> Fraction:
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
        distance_lb = max(0, area_lo - target, target - area_hi)
        return alpha * latency_bound() + distance_lb

    def visit(depth: int) -> None:
        nonlocal best_key, best_latency
        if depth == len(order):
            config = Configuration.from_mapping(partial)
            area = eval_area(design, config)
            latency = latency_bound()  # exact: every kernel is chosen here
            key = (alpha * latency + abs(area - target), area, config)
            if best_key is None or key < best_key:
                best_key, best_latency = key, latency
            return
        kid = order[depth]
        for idx in range(len(kernels[kid].variants)):
            partial[kid] = idx
            # Not strict: an equal bound may still tie and win on the
            # (area, configuration) components of the key.
            if best_key is None or bound() <= best_key[0]:
                visit(depth + 1)
            del partial[kid]

    visit(0)
    assert best_key is not None  # every configuration meets a Lagrangian model
    return (*best_key, best_latency)


def solve(model: IlpModel) -> IlpSolution:
    """Exact optimum of the model, deterministic up to the documented tie-break."""
    design = model.design
    if isinstance(model.objective_spec, ConstrainedArea):
        from .front import best_within  # compiled on first use, not at package import

        best = best_within(design, model.latency_model, model.objective_spec.area_target_tenths)
        if best is None:
            return IlpSolution(
                status=SolveStatus.INFEASIBLE,
                configuration=None,
                objective=None,
                predicted_latency=None,
                predicted_area_tenths=None,
            )
        config, (area, latency), _ = best
        objective: Fraction | int = latency
    else:
        objective, area, config, latency = _lagrangian_search(model)
    aux = par_node_values(design, config, model.latency_model)
    _check_declarative(model, config, aux, area, objective)
    return IlpSolution(
        status=SolveStatus.OPTIMAL,
        configuration=config,
        objective=Fraction(objective),
        predicted_latency=latency,
        predicted_area_tenths=area,
        aux_values=tuple(sorted(aux.items())),
    )


def relax_target(area_target_tenths: int, step_fraction: float) -> int:
    """One relaxation step: floor(target * (1 + step)), exact arithmetic."""
    if step_fraction < 0:
        raise ValueError(f"step_fraction must be >= 0, got {step_fraction}")
    factor = 1 + Fraction(str(step_fraction))
    return (area_target_tenths * factor.numerator) // factor.denominator


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
