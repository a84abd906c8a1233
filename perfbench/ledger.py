"""Arithmetic of the whole-trial benchmark, kept apart from process
handling so that perfbench/test_ledger.py can check it on made-up trials.

A trial record is one JSON line printed by perfbench_trial (see
perfbench_trial.cpp): the untraced pass's facts at the top level and, in a
traced run, the traced pass under "traced".
"""

import math
import statistics

# Layers of the self-time account, in the order a trial runs them.
LEDGER_LAYERS = ("deploy", "observers", "tracing", "substrate", "control",
                 "rca", "grade", "unattributed")


# The host speed the end-to-end timings are scaled to, in ns per step of
# perfbench_trial's host_ns_per_step() chains: about that of the 4-core
# x86-64 reference VM in its usual state.
REFERENCE_HOST_NS = 3.0


def at_reference_speed(value, host_ns):
    """A time measured while the host's chain took `host_ns` per step,
    scaled to what it would be at REFERENCE_HOST_NS."""
    if host_ns <= 0:
        raise ValueError(f"host speed {host_ns} ns per step")
    return value * REFERENCE_HOST_NS / host_ns


def scaled_trials(trials, host_ns=None):
    """Copies of the trials with wall_ms at the reference speed, each
    scaled by the host speed measured around it, or all by `host_ns` when
    it is given; the wall time as measured is kept as measured_wall_ms."""
    return [dict(t, wall_ms=at_reference_speed(t["wall_ms"],
                                               host_ns or t["host_ns"]),
                 measured_wall_ms=t["wall_ms"]) for t in trials]


def quantile(values, q):
    """The q-quantile of `values`, interpolated linearly between order
    statistics (q=0.5 is the median, q=1 the maximum)."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def by_kind(trials):
    """Trials grouped by fault kind, in first-seen order."""
    kinds = {}
    for t in trials:
        kinds.setdefault(t["kind"], []).append(t)
    return kinds


def kind_median_wall_ms(kinds):
    """Typical trial wall: the median of each fault kind, geometric mean
    over the kinds. With one kind it is the plain median; with several it
    weighs each kind alike, where a pooled median would fall between the
    groups of cheap and costly kinds and jump between them from seed to
    seed."""
    return statistics.geometric_mean(
        [quantile([t["wall_ms"] for t in ts], 0.5) for ts in kinds.values()])


def pkts_per_s(trials):
    """Simulator throughput in host time: packets injected over trial wall
    time, both summed over every trial. Each fault kind weighs by its cost,
    so a slowdown of one costly kind shows in full."""
    return (sum(t["injected"] for t in trials) /
            sum(t["wall_ms"] for t in trials) * 1e3)


def recall_at(ranks, k):
    """Share of graded trials whose ground truth ranked within the top k;
    a None rank (truth not listed) is a miss, as in Table 1."""
    if not ranks:
        raise ValueError("recall over no graded trials")
    return sum(1 for r in ranks if r is not None and r <= k) / len(ranks)


def failure(trial):
    """Why a trial failed, or None when it did not: it threw, its fault was
    not injected, or packets were not conserved."""
    if "error" in trial:
        return "error: " + trial["error"]
    if not trial["fault_injected"]:
        return "fault not injected"
    out = trial["delivered"] + trial["dropped"] + trial["unroutable"]
    if out > trial["injected"]:
        return (f"conservation: delivered+dropped+unroutable {out} > "
                f"injected {trial['injected']}")
    return None


def failure_ratio(trials):
    """(failed, attempted) over the trials."""
    return sum(1 for t in trials if failure(t) is not None), len(trials)


def consistency(trial):
    """Differences between a trial's untraced and traced passes. The traced
    pass must reproduce packets injected and delivered and every system's
    rank; its event count may exceed the untraced one only by the
    sampler's ticks."""
    traced = trial["traced"]
    problems = []
    for key in ("injected", "delivered"):
        if traced[key] != trial[key]:
            problems.append(f"{key} {trial[key]} -> {traced[key]}")
    if traced["ranks"] != trial["ranks"]:
        problems.append(f"ranks {trial['ranks']} -> {traced['ranks']}")
    if traced["events"] - trial["events"] != traced["ticks"]:
        problems.append(f"events {trial['events']} -> {traced['events']} "
                        f"with {traced['ticks']} sampler ticks")
    return problems


# Slack for rounding when testing whether one span contains another (ms).
_EPS_MS = 1e-6


def _self_times(spans):
    """Self time of each span (its duration less what its direct children
    cover), with children found by interval containment."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][1], -spans[i][2]))
    self_ms = [s[2] for s in spans]
    stack = []  # indices of the enclosing spans, innermost last
    for i in order:
        end = spans[i][1] + spans[i][2]
        while stack and spans[stack[-1]][1] + spans[stack[-1]][2] < end - _EPS_MS:
            stack.pop()
        if stack:
            self_ms[stack[-1]] -= spans[i][2]
        stack.append(i)
    return self_ms


def account(trial):
    """Self-time account of one traced trial, in ms per layer.

    deploy and grade are the parts of the trial before and after the
    simulator.run span; control and rca are the self times of the
    controller.* and rca.* spans inside it; observers is the time the
    probe booked to the observers; tracing is what the traced pass's
    instruments (the probe's clock reads above all) cost, measured as the
    traced trial wall less the untraced one; substrate is what remains of
    the run (event engine and forwarding).
    unattributed is the trial wall less all of the above: zero when the
    layers tile the trial, negative when they over-claim it.
    """
    traced = trial["traced"]
    spans = traced["spans"]
    runs = [s for s in spans if s[0] == "simulator.run"]
    if len(runs) != 1:
        raise ValueError(f"expected one simulator.run span, got {len(runs)}")
    run_start, run_ms = runs[0][1], runs[0][2]
    run_end = run_start + run_ms
    inside = [s for s in spans if s[1] >= run_start - _EPS_MS
              and s[1] + s[2] <= run_end + _EPS_MS]
    self_ms = _self_times(inside)
    layer = {"control": 0.0, "rca": 0.0}
    run_self = 0.0
    for span, own in zip(inside, self_ms):
        if span[0] == "simulator.run":
            run_self += own
        elif span[0].startswith("controller."):
            layer["control"] += own
        elif span[0].startswith("rca."):
            layer["rca"] += own
    observers = observer_ms(traced)
    trial_ms = traced["trial_ms"]
    tracing = trial_ms - trial["wall_ms"]
    out = {
        "deploy": run_start,
        "observers": observers,
        "tracing": tracing,
        "substrate": max(0.0, run_self - observers - tracing),
        "control": layer["control"],
        "rca": layer["rca"],
        "grade": trial_ms - run_end,
    }
    out["unattributed"] = trial_ms - sum(out.values())
    return out


def observer_ms(traced):
    """Total observer time of a traced trial (0 when no probe ran)."""
    return sum(o["ns"] for o in (traced["observers"] or {}).values()) / 1e6


def span_totals(traced, prefix):
    """(total ms, count) of the spans whose name starts with `prefix`."""
    hits = [s[2] for s in traced["spans"] if s[0].startswith(prefix)]
    return sum(hits), len(hits)
