#!/usr/bin/env bash
# Re-measure the sharded-simulation scale curves and refresh the `current`
# section of BENCH_sim_scale.json. The `reference_scaling_8core` section is
# the recorded 8-core run (see the file's `method` note) and is preserved
# across refreshes so the speedup claims stay anchored. N shards run on N
# threads, so a row means most on a host with at least N idle cores: on a
# 4-core host the 8-shard row oversubscribes, and on one core every
# multi-shard row is flat-to-slower by construction (the window barrier
# buys nothing without cores to spend).
#
# Usage: bench/run_sim_scale.sh [output.json]
#   BUILD_DIR overrides the build directory (default: <repo>/build).
#   SCALE_FLOWS / SCALE_DURATION_MS shrink the run (CI smoke uses tiny
#   values; recorded curves use the defaults: 100k flows, 300 ms).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-$repo_root/build}
out=${1:-$repo_root/BENCH_sim_scale.json}
bench_bin=$build_dir/bench/bench_sim_scale
flows=${SCALE_FLOWS:-100000}
duration_ms=${SCALE_DURATION_MS:-300}

if [[ ! -x $bench_bin ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target bench_sim_scale)" >&2
  exit 1
fi

raw16=$(mktemp) raw32=$(mktemp)
trap 'rm -f "$raw16" "$raw32"' EXIT

"$bench_bin" --k 16 --flows "$flows" --pps 50 --duration-ms "$duration_ms" \
  --propagation-us 10 --shards 1,2,4,8 --out "$raw16"
"$bench_bin" --k 32 --flows "$flows" --pps 50 --duration-ms "$duration_ms" \
  --propagation-us 10 --shards 1,2,4,8 --out "$raw32"

python3 - "$raw16" "$raw32" "$out" "$repo_root/BENCH_sim_scale.json" <<'EOF'
import json
import sys

raw16, raw32, out_path, committed_path = sys.argv[1:5]

def profile(p):
    # Per-shard PDES profiler summary (see sim::ShardStats): window-end
    # attribution, cross-shard mailbox volume, per-shard occupancy.
    prof = p['profile']
    return {
        'window_caps': prof['window_caps'],
        'critical_path_events': prof['critical_path_events'],
        'mailbox': {
            'drains': prof['mailbox']['drains'],
            'total_mail': prof['mailbox']['total_mail'],
            'max_batch': prof['mailbox']['max_batch'],
        },
        'shards': [
            {
                'busy_windows': s['busy_windows'],
                'busy_fraction': round(s['busy_fraction'], 4),
                'window_events': s['window_events'],
                'max_window_events': s['max_window_events'],
            }
            for s in prof['shards']
        ],
    }

def curve(path):
    doc = json.load(open(path))
    points = []
    base = doc['points'][0]['wall_ms']
    for p in doc['points']:
        points.append({
            'shards': p['shards'],
            'wall_ms': round(p['wall_ms'], 1),
            'events': p['events'],
            'events_per_sec': round(p['events_per_sec']),
            'windows': p['windows'],
            'lookahead_stalls': p['lookahead_stalls'],
            'speedup_vs_1_shard': round(base / p['wall_ms'], 2),
            'profile': profile(p),
        })
    return {'config': doc['config'], 'points': points}

# Merge into the output file if it exists; otherwise seed a new file from
# the committed record so the reference section carries over.
try:
    doc = json.load(open(out_path))
except FileNotFoundError:
    try:
        doc = json.load(open(committed_path))
    except FileNotFoundError:
        doc = {'benchmark': 'bench_sim_scale'}
doc['current'] = {'k16': curve(raw16), 'k32': curve(raw32)}

json.dump(doc, open(out_path, 'w'), indent=2)
print(f"wrote {out_path}")
EOF
