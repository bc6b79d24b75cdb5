"""Scripted external policy for the batch-external workload.

Speaks hlsdse's line-delimited JSON protocol on stdin/stdout. It inspects
every kernel, synthesizes a deterministic series of candidate
configurations, asks the solver once at the session target and selects the
best answer seen: the lowest latency among candidates within the target,
otherwise the smallest area. It stops ``SPARE_ACTIONS`` short of the action
budget, so every run ends in a selection and the engine never waits for an
action that does not come.

Run it as ``python3 child_policy.py``; it exits after its selection or when
its input closes.
"""

import json
import sys

ACTION_BUDGET = 40  # hlsdse's default Budget.max_actions
SPARE_ACTIONS = 4


def send(action):
    sys.stdout.write(json.dumps({"type": "action", "action": action}) + "\n")
    sys.stdout.flush()


def receive():
    """Payload of the next observation; exits when the engine closes."""
    line = sys.stdin.readline()
    if not line:
        sys.exit(0)
    payload = json.loads(line)["payload"]
    if "error" in payload:
        sys.exit(1)
    return payload


def tenths(area):
    return round(area * 10)


def candidates(menus, count):
    """``count`` configurations in mixed-radix order over each kernel's
    variants, starting from the lowest-latency one and moving to ever
    smaller areas; repeats once the design's configurations run out."""
    ids = sorted(menus)
    orders = {
        kid: [v["index"] for v in sorted(menus[kid], key=lambda v: (v["latency"], v["area"]))]
        for kid in ids
    }
    total = 1
    for kid in ids:
        total *= len(orders[kid])
    for i in range(count):
        rest = i % total
        choice = {}
        for kid in ids:
            rest, digit = divmod(rest, len(orders[kid]))
            choice[kid] = orders[kid][digit]
        yield choice


def main():
    task = json.loads(sys.stdin.readline())
    target = tenths(task["area_target"])
    ids = [k["id"] for k in task["design_summary"]["kernels"]]
    menus = {}
    for kid in ids:
        send({"inspect": {"kernel": kid}})
        menus[kid] = receive()["kernel_view"]["variants"]

    seen = []  # (area tenths, latency, choice)
    synth_count = ACTION_BUDGET - SPARE_ACTIONS - len(ids) - 2  # 2 = solve + select
    for choice in candidates(menus, synth_count):
        send({"synthesize": {"choice": choice}})
        result = receive()["synth_result"]
        seen.append((tenths(result["area"]), result["latency"], choice))

    send({"solve_ilp": {}})
    outcome = receive()["ilp_outcome"]
    if outcome["status"] == "optimal":
        seen.append(
            (tenths(outcome["predicted_area"]), outcome["predicted_latency"], outcome["configuration"])
        )

    feasible = [(lat, area, sorted(c.items())) for area, lat, c in seen if area <= target]
    if feasible:
        best = min(feasible)[2]
    else:
        best = min((area, lat, sorted(c.items())) for area, lat, c in seen)[2]
    send({"select": {"choice": dict(best)}})


if __name__ == "__main__":
    main()
