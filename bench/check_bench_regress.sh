#!/usr/bin/env bash
# Four recorded-benchmark gates:
#
# 1. Zero-overhead-when-disabled: the recorded pairwise ratio of
#    BM_LeafSpine_HotPath_Instrumented to BM_LeafSpine_HotPath (an idle
#    MetricsRegistry + SpanTracer constructed but never attached) must not
#    regress more than 5% below the PR-2 reference of 0.976.
# 2. Telemetry frontier ordering: the histogram backend's raison d'être is
#    undercutting postcard's in-band bytes per packet; a frontier report
#    where it doesn't means the digest wire accounting regressed.
# 3. Gray-failure accumulation: the evidence accumulator exists to keep
#    flapping links localized; its Recall@3 on flap must stay at least at
#    the single-window number and above an absolute floor.
# 4. PathID audit: the collision grid is deterministic, so every count in
#    a fresh report must exactly match the committed reference — any drift
#    means enumeration order, the hash, or the separation pass changed
#    behaviour. The recorded reference K=16 single-pass build must beat
#    the superseded 8-core parallel build it replaced, and a report's
#    registry-cache hit must stay at least 100x faster than its cold build.
#
# Usage: bench/check_bench_regress.sh [report.json] [frontier.json] [gray.json] [pathid.json]
#   Defaults to the committed BENCH_sim_hotpath.json,
#   BENCH_telemetry_frontier.json, BENCH_robustness_gray.json and
#   BENCH_pathid_audit.json. Pass freshly refreshed reports
#   (bench/run_sim_hotpath.sh out.json; bench_fig9_bandwidth
#   --frontier-out out.json; MARS_TRIALS=20 bench_robustness --gray-out
#   out.json; bench/run_pathid_audit.sh out.json) to gate new
#   measurements instead of the committed records.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
report=${1:-$repo_root/BENCH_sim_hotpath.json}
frontier=${2:-$repo_root/BENCH_telemetry_frontier.json}
gray=${3:-$repo_root/BENCH_robustness_gray.json}
pathid=${4:-$repo_root/BENCH_pathid_audit.json}

if [[ ! -f $report ]]; then
  echo "error: $report not found" >&2
  exit 1
fi
if [[ ! -f $frontier ]]; then
  echo "error: $frontier not found" >&2
  exit 1
fi
if [[ ! -f $gray ]]; then
  echo "error: $gray not found" >&2
  exit 1
fi
if [[ ! -f $pathid ]]; then
  echo "error: $pathid not found" >&2
  exit 1
fi

python3 - "$report" <<'EOF'
import json
import sys

REFERENCE_RATIO = 0.976   # recorded when instrumentation landed (PR 2)
MAX_REGRESSION = 0.05     # fail past 5% below the reference

report_path = sys.argv[1]
doc = json.load(open(report_path))

ratio = doc.get("instrumented_unattached_ratio")
if ratio is None:
    sys.exit(f"error: {report_path} has no instrumented_unattached_ratio")

floor = REFERENCE_RATIO * (1.0 - MAX_REGRESSION)
verdict = "ok" if ratio >= floor else "REGRESSION"
print(f"instrumented/plain ratio {ratio:.3f} "
      f"(reference {REFERENCE_RATIO:.3f}, floor {floor:.3f}): {verdict}")
if ratio < floor:
    sys.exit(
        f"error: instrumented hot-path ratio {ratio:.3f} regressed more "
        f"than {MAX_REGRESSION:.0%} below the {REFERENCE_RATIO:.3f} "
        "reference — instrumentation is leaking onto the packet hot path")
EOF

python3 - "$frontier" <<'EOF'
import json
import sys

frontier_path = sys.argv[1]
doc = json.load(open(frontier_path))

per_backend = {
    p["backend"]: p for p in doc.get("points", [])
    if p.get("system") == "mars" and "backend" in p
}
missing = {"postcard", "int-md", "histogram"} - per_backend.keys()
if missing:
    sys.exit(f"error: {frontier_path} missing mars points for {missing}")

hist = per_backend["histogram"]["inband_bytes_per_packet"]
post = per_backend["postcard"]["inband_bytes_per_packet"]
verdict = "ok" if hist < post else "REGRESSION"
print(f"histogram in-band {hist:.2f} B/pkt vs postcard {post:.2f}: {verdict}")
if hist >= post:
    sys.exit(
        f"error: histogram backend spends {hist:.2f} in-band bytes/packet, "
        f"not below postcard's {post:.2f} — the compact-marker accounting "
        "regressed and the backend no longer earns its accuracy cost")
EOF

python3 - "$gray" <<'EOF'
import json
import sys

FLAP_RECALL3_FLOOR = 0.90  # recorded 1.00 at 20 trials; allow seed noise

gray_path = sys.argv[1]
doc = json.load(open(gray_path))

kinds = {k["kind"]: k for k in doc.get("kinds", [])}
flap = kinds.get("flap")
if flap is None:
    sys.exit(f"error: {gray_path} has no flap record")

accum = flap["recall3_accum"]
single = flap["recall3_single"]
ok = accum >= FLAP_RECALL3_FLOOR and accum >= single
verdict = "ok" if ok else "REGRESSION"
print(f"flap Recall@3 accumulated {accum:.2f} vs single-window {single:.2f} "
      f"(floor {FLAP_RECALL3_FLOOR:.2f}): {verdict}")
if accum < FLAP_RECALL3_FLOOR:
    sys.exit(
        f"error: flap Recall@3 with accumulation is {accum:.2f}, below the "
        f"{FLAP_RECALL3_FLOOR:.2f} floor — the evidence accumulator no "
        "longer keeps flapping links localized")
if accum < single:
    sys.exit(
        f"error: accumulation ({accum:.2f}) ranks flapping links WORSE than "
        f"single-window SBFL ({single:.2f}) — accumulated evidence is being "
        "outvoted by ambient noise")
EOF

python3 - "$pathid" "$repo_root/BENCH_pathid_audit.json" <<'EOF'
import json
import sys

pathid_path, committed_path = sys.argv[1:3]
doc = json.load(open(pathid_path))
committed = json.load(open(committed_path))

reference = committed.get("reference")
current = doc.get("current")
if reference is None or current is None:
    sys.exit(f"error: {pathid_path} is missing the reference/current "
             "sections (regenerate with bench/run_pathid_audit.sh)")

# The collision census is deterministic by construction: one sequential
# pass in a fixed enumeration and separation order, so counts never depend
# on host or timing. Exact-match every row.
EXACT = ("paths", "id_space", "initial_collisions", "residual_collisions",
         "mat_entries", "rounds", "pigeonhole_infeasible", "conflict_free")
ref_grid = {(r["k"], r["hash"], r["width_bits"]): r
            for r in reference["grid"]}
drift = []
for row in current["grid"]:
    key = (row["k"], row["hash"], row["width_bits"])
    ref = ref_grid.get(key)
    if ref is None:
        drift.append(f"unexpected grid row {key}")
        continue
    for field in EXACT:
        if row[field] != ref[field]:
            drift.append(f"K={key[0]} {key[1]}/{key[2]}b {field}: "
                         f"{row[field]} != recorded {ref[field]}")
verdict = "ok" if not drift else "REGRESSION"
print(f"pathid collision grid: {len(current['grid'])} rows exact-matched "
      f"against reference: {verdict}")
if drift:
    sys.exit("error: PathID collision grid drifted from the committed "
             "record — the audit pass is no longer deterministic or the "
             "hash/separation behaviour changed:\n  " + "\n  ".join(drift))

# Construction: the recorded single-pass build must beat the 8-core
# parallel build it superseded. A fresh report's build time is not gated:
# it depends on the host, and AUDIT_K=8 builds take milliseconds.
ref_con = reference["construction"]
build = ref_con["build_seconds"]
superseded = ref_con["superseded_parallel_seconds"]
verdict = "ok" if build < superseded else "REGRESSION"
print(f"pathid K={ref_con['k']} reference build: {build:.3f}s vs the "
      f"superseded {ref_con['superseded_parallel_threads']}-thread parallel "
      f"build's {superseded:.3f}s: {verdict}")
if build >= superseded:
    sys.exit(
        f"error: recorded single-pass registry build ({build:.3f}s) is not "
        f"faster than the {superseded:.3f}s parallel build it replaced")

cur_con = current["construction"]
hit = cur_con["cache_hit_seconds"]
cold = cur_con["cache_cold_seconds"]
if hit * 100 > max(cold, 1e-3):
    sys.exit(
        f"error: registry cache hit ({hit * 1e6:.0f} us) is within 100x of "
        f"the cold build ({cold:.3f}s) — the cache is rebuilding instead "
        "of sharing")
print(f"pathid registry cache: hit {hit * 1e6:.0f} us vs cold build "
      f"{cold:.3f}s: ok")
EOF
