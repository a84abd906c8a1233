#!/usr/bin/env python3
"""Whole-trial benchmark of the MARS reproduction.

    python3 perfbench/run.py --workload table1_k4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench_trial (and the MARS
libraries it links) under .bench_build/, runs a fixed list of the
workload's trials back to back in a child process, sized to take about
--seconds on a 4-core host, checks the results, prints one line per metric
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 runs every trial a second time with tracing on and reports the
per-layer ledger. Exits nonzero when a correctness or consistency check
fails. perfbench/METHOD.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "perfbench_trial")
SPEC = os.path.join(HERE, "k16_sharded.json")
BASELINES = ("spidermon", "intsight", "syndb")
OBSERVED = ("mars",) + BASELINES

# round_s: nominal wall time of one round (one trial of each fault kind on
# k=4, one trial on k=16) on a 4-core x86-64 host. A run makes
# round(--seconds / round_s) rounds, so its trial list, and the work it
# times, depend only on --seed and --seconds, never on the host's speed.
# setups: fresh processes timed for setup_s, half before the trials and
# half after, so a drift of the host's speed during the run shows in both.
# speed: how a timing is scaled to the reference host speed (METHOD.md,
# "Host speed"): "each" by the speed measured around it, "run" by the
# median of every speed measured in the run.
WORKLOADS = {
    "table1_k4": {"round_s": 2.5, "setups": 201, "speed": "each"},
    "mars_k4": {"round_s": 0.6, "setups": 201, "speed": "each"},
    "mars_k16_sharded": {"round_s": 6.0, "setups": 3, "speed": "run"},
}

CHILD_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "--target",
                     "perfbench_trial", "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")


def run_child(args):
    """Run perfbench_trial and return its JSON lines."""
    try:
        proc = subprocess.run([EXE, "--spec", SPEC] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench_trial {' '.join(args)} timed out")
    if proc.returncode != 0:
        fail(f"perfbench_trial {' '.join(args)} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def rounds(workload, seconds, trace):
    """Rounds a run makes. A traced run runs every trial twice, so it makes
    half as many, but no fewer than 4: the first trial of a process runs
    cold, and over fewer trials that skews the traced/untraced comparison."""
    n = max(1, round(seconds / WORKLOADS[workload]["round_s"]))
    return max(min(n, 4), n // 2) if trace else n


def run_trials(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--rounds",
            str(rounds(workload, seconds, trace))]
    lines = run_child(args + (["--trace"] if trace else []))
    trials = lines[:-1]
    if all(ledger.failure(t) is not None for t in trials):
        fail("every trial failed: " + "; ".join(
            str(ledger.failure(t)) for t in trials[:3]))
    return trials, lines[-1]


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def median_of(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- untraced

def setup_times(workload, count):
    """setup_s and host speed of `count` fresh processes."""
    return [run_child(["--workload", workload, "--setup"])[0]
            for _ in range(count)]


def end_to_end(workload, seed, seconds):
    count = WORKLOADS[workload]["setups"]
    setups = setup_times(workload, count // 2)
    trials, tail = run_trials(workload, seed, seconds, trace=False)
    setups += setup_times(workload, count - count // 2)
    ok = [t for t in trials if ledger.failure(t) is None]
    run_ns = None
    if WORKLOADS[workload]["speed"] == "run":
        run_ns = median_of([x["host_ns"] for x in ok + setups])
    scaled = ledger.scaled_trials(ok, run_ns)
    walls = [t["wall_ms"] for t in scaled]
    out = {
        "setup_s": metric(median_of([
            ledger.at_reference_speed(x["setup_s"], run_ns or x["host_ns"])
            for x in setups]), "s", len(setups)),
        "trial_wall_ms_p50": metric(
            ledger.kind_median_wall_ms(ledger.by_kind(scaled)), "ms",
            len(walls)),
        "sim_pkts_per_s": metric(ledger.pkts_per_s(scaled), "pkt/s",
                                 len(walls)),
        "peak_rss_mb": metric(tail["peak_rss_mb"], "MB", 1),
        "mars_inband_bytes_per_pkt": metric(
            sum(t["mars_telemetry_bytes"] for t in ok) /
            sum(t["injected"] for t in ok), "B/pkt", len(ok)),
    }
    info = {
        "trial_wall_ms_max": metric(max(walls), "ms", len(walls)),
        "measured.setup_s": metric(
            median_of([x["setup_s"] for x in setups]), "s", len(setups)),
        "measured.trial_wall_ms_p50": metric(
            ledger.kind_median_wall_ms(ledger.by_kind(ok)), "ms", len(ok)),
        "measured.sim_pkts_per_s": metric(ledger.pkts_per_s(ok), "pkt/s",
                                          len(ok)),
        "host_ns_per_step": metric(
            median_of([t["host_ns"] for t in ok]), "ns", len(ok)),
    }
    info.update(quality(ok))
    return trials, out, info


def quality(trials):
    """Recall@k over the run's trials, graded as in Table 1."""
    mars = [t["ranks"]["mars"] for t in trials]
    out = {
        "mars_recall_at_1": metric(ledger.recall_at(mars, 1), "ratio",
                                   len(mars)),
        "mars_recall_at_3": metric(ledger.recall_at(mars, 3), "ratio",
                                   len(mars)),
    }
    base = [ledger.recall_at([t["ranks"][s] for t in trials], 1)
            for s in BASELINES if s in trials[0]["ranks"]]
    out["baselines_recall_at_1"] = metric(
        statistics.fmean(base) if base else 0.0, "ratio",
        len(trials) if base else 0)
    return out


# ------------------------------------------------------------------ traced

def per_layer(workload, seed, seconds):
    layers = [run_child(["--workload", workload, "--setup-layers"])[0]
              for _ in range(WORKLOADS[workload]["setups"])]
    trials, _ = run_trials(workload, seed, seconds, trace=True)
    ok = [t for t in trials if ledger.failure(t) is None]
    problems = [f"trial {t['trial']}: {p}" for t in ok
                for p in ledger.consistency(t)]
    traced = [t["traced"] for t in ok]
    n = len(traced)
    accounts = [ledger.account(t) for t in ok]
    injected = sum(t["injected"] for t in ok)
    events = sum(t["events"] for t in ok)
    run_ms = [ledger.span_totals(tr, "simulator.run")[0] for tr in traced]
    trial_ms = sum(tr["trial_ms"] for tr in traced)

    def mean(values):
        return sum(values) / n

    def gauge(tr, name):
        return tr["gauges"].get(name, 0.0)

    out, absent = {}, []
    for system in OBSERVED:
        present = [tr["observers"][system] for tr in traced
                   if (tr["observers"] or {}).get(system) is not None]
        if len(present) != n:
            absent.append(f"observer.{system}.*")
            present = []
        ns = sum(o["ns"] for o in present)
        out[f"observer.{system}.ns_per_pkt"] = metric(
            ns / injected if present else 0.0, "ns/pkt", len(present))
        out[f"observer.{system}.share_of_run"] = metric(
            ns / 1e6 / sum(run_ms) if present else 0.0, "ratio",
            len(present))
        out[f"observer.{system}.calls"] = metric(
            sum(o["calls"] for o in present) / n if present else 0.0,
            "count", len(present))

    substrate = sum(a["substrate"] for a in accounts)
    out["sim.run_ms"] = metric(mean(run_ms), "ms", n)
    out["sim.events"] = metric(events / n, "count", n)
    out["sim.substrate_ns_per_event"] = metric(substrate * 1e6 / events,
                                               "ns/event", n)
    sharded = any("sim.windows" in tr["gauges"] for tr in traced)
    if not sharded:
        absent.append("sim.windows/lookahead_stalls/shard.*/mailbox.*")
    shard_fracs = [[v for k, v in tr["gauges"].items()
                    if k.startswith("sim.shard.") and
                    k.endswith(".busy_fraction")] for tr in traced]
    out["sim.windows"] = metric(
        mean([gauge(tr, "sim.windows") for tr in traced]), "count", n)
    out["sim.lookahead_stalls"] = metric(
        mean([gauge(tr, "sim.lookahead_stalls") for tr in traced]), "count",
        n)
    out["sim.shard.busy_fraction_min"] = metric(
        mean([min(f) if f else 0.0 for f in shard_fracs]), "ratio", n)
    out["sim.shard.busy_fraction_mean"] = metric(
        mean([statistics.fmean(f) if f else 0.0 for f in shard_fracs]),
        "ratio", n)
    out["sim.mailbox.mail"] = metric(
        mean([gauge(tr, "sim.mailbox.mail") for tr in traced]), "count", n)

    k = len(layers)
    out["control.registry_build_s"] = metric(
        median_of([x["registry_s"] for x in layers]), "s", k)
    out["control.registry_paths"] = metric(layers[0]["registry_paths"],
                                           "count", k)
    out["net.fabric_build_ms"] = metric(
        median_of([x["fabric_ms"] for x in layers]), "ms", k)
    out["net.routing_build_ms"] = metric(
        median_of([x["routing_ms"] for x in layers]), "ms", k)

    out["mars.deploy_ms"] = metric(mean([a["deploy"] for a in accounts]),
                                   "ms", n)
    out["mars.grade_ms"] = metric(mean([a["grade"] for a in accounts]), "ms",
                                  n)
    for name, prefix in (("poll", "controller.poll"),
                         ("drain", "controller.ring_drain")):
        totals = [ledger.span_totals(tr, prefix) for tr in traced]
        out[f"control.{name}_ms"] = metric(mean([t[0] for t in totals]), "ms",
                                           n)
        out[f"control.{name}s"] = metric(mean([t[1] for t in totals]),
                                         "count", n)
    sent = sum(gauge(tr, "mars.notifications") for tr in traced)
    suppressed = sum(gauge(tr, "mars.notifications_suppressed")
                     for tr in traced)
    out["dataplane.notify_suppressed_ratio"] = metric(
        suppressed / (sent + suppressed) if sent + suppressed else 0.0,
        "ratio", n)
    for phase in ("analyze", "estimate", "mine", "sbfl", "localize"):
        out[f"rca.{phase}_ms"] = metric(
            mean([ledger.span_totals(tr, f"rca.{phase}")[0]
                  for tr in traced]), "ms", n)
    out["rca.diagnoses"] = metric(
        mean([gauge(tr, "mars.diagnoses") for tr in traced]), "count", n)
    out["net.pool_peak_in_flight"] = metric(
        max(gauge(tr, "sim.packet_pool.peak") for tr in traced), "count", n)
    out["obs.trace_overhead"] = metric(
        trial_ms / sum(t["wall_ms"] for t in ok), "ratio", n)

    for layer in ledger.LEDGER_LAYERS:
        out[f"ledger.{layer}_share"] = metric(
            sum(a[layer] for a in accounts) / trial_ms, "ratio", n)
    ecmp = [(tr, a) for t, tr, a in zip(ok, traced, accounts)
            if t["kind"] == "ecmp"]
    ecmp_ms = sum(tr["trial_ms"] for tr, _ in ecmp)
    spidermon_ecmp = [tr["observers"]["spidermon"]["ns"] / 1e6
                      for tr, _ in ecmp
                      if (tr["observers"] or {}).get("spidermon")]
    if not spidermon_ecmp:
        absent.append("ecmp.spidermon_share")
    out["ecmp.spidermon_share"] = metric(
        sum(spidermon_ecmp) / ecmp_ms if ecmp_ms else 0.0, "ratio",
        len(spidermon_ecmp))
    if not ecmp:
        absent.append("ecmp.grade_share")
    out["ecmp.grade_share"] = metric(
        sum(a["grade"] for _, a in ecmp) / ecmp_ms if ecmp_ms else 0.0,
        "ratio", len(ecmp))

    out.update(quality(ok))
    if out["baselines_recall_at_1"]["n"] == 0:
        absent.append("baselines_recall_at_1")
    walls = [t["wall_ms"] for t in ok]
    out["trial_wall_ms_max"] = metric(max(walls), "ms", len(walls))
    report_ledger(accounts, ok)
    return trials, out, absent, problems


def report_ledger(accounts, ok):
    """Print the self-time account per fault kind and overall."""
    rows = {}
    for t, a in zip(ok, accounts):
        rows.setdefault(t["kind"], []).append((t, a))
    rows["all"] = list(zip(ok, accounts))
    print("self-time account of the traced trial wall (share; ms/trial):")
    head = "  kind        trials  trial_ms " + " ".join(
        f"{layer:>12s}" for layer in ledger.LEDGER_LAYERS)
    print(head)
    for kind, items in rows.items():
        total = sum(t["traced"]["trial_ms"] for t, _ in items)
        cells = " ".join(
            f"{sum(a[layer] for _, a in items) / total:12.3f}"
            for layer in ledger.LEDGER_LAYERS)
        print(f"  {kind:<10s} {len(items):7d} {total / len(items):9.1f} "
              f"{cells}")
    observers = {}
    for t in ok:
        for system, o in (t["traced"]["observers"] or {}).items():
            per = observers.setdefault(t["kind"], {})
            per[system] = per.get(system, 0.0) + o["ns"] / 1e6
    if observers:
        print("observer time by fault kind (share of the traced trial wall):")
        for kind, per in observers.items():
            total = sum(t["traced"]["trial_ms"] for t in ok
                        if t["kind"] == kind)
            print(f"  {kind:<10s} " + " ".join(
                f"{system}={ms / total:.3f}" for system, ms in per.items()))


# -------------------------------------------------------------------- main

def check_names(metrics, trace):
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        fail(f"metrics differ from BENCHMARK.json: printed-only "
             f"{sorted(set(got) - set(declared))}, declared-only "
             f"{sorted(set(declared) - set(got))}, unit mismatches "
             f"{sorted(k for k in got.keys() & declared.keys() if got[k] != declared[k])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.trace:
        trials, metrics, absent, problems = per_layer(
            args.workload, args.seed, args.seconds)
        info = {}
    else:
        trials, metrics, info = end_to_end(args.workload, args.seed,
                                           args.seconds)
        absent, problems = [], []
    failures = [f"trial {t['trial']} ({t['kind']}, seed {t['seed']}): "
                f"{ledger.failure(t)}" for t in trials
                if ledger.failure(t) is not None]
    failed, attempted = ledger.failure_ratio(trials)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {attempted} trials "
          f"attempted, {failed} failed")
    for line in failures + [f"inconsistent {p}" for p in problems]:
        print(f"  FAIL {line}")
    for name, m in list(metrics.items()) + list(info.items()):
        tag = "" if name in metrics else "  (informational)"
        print(f"  {name:<36s} {m['value']:>16.6g} {m['unit']:<9s} "
              f"n={m['n']}{tag}")
    if absent:
        print("  absent on this workload, printed as 0: " + ", ".join(absent))
    check_names(metrics, args.trace)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
