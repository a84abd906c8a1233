#!/usr/bin/env bash
# Re-measure the PathID collision audit and refresh the `current` section
# of BENCH_pathid_audit.json. The `reference` section is the recorded run
# (see the file's `method` note) and is preserved across refreshes, so the
# construction claim stays anchored to it. The collision grid is
# deterministic and must be identical on every host — the regression gate
# exact-matches it.
#
# Usage: bench/run_pathid_audit.sh [output.json]
#   BUILD_DIR overrides the build directory (default: <repo>/build).
#   AUDIT_K picks the construction-timing fabric (default 16, which CI
#   smoke runs too: a smaller fabric's ~1 ms cold build leaves gate 4's
#   100x cache check at the mercy of timer noise).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-$repo_root/build}
out=${1:-$repo_root/BENCH_pathid_audit.json}
bench_bin=$build_dir/bench/bench_pathid_memory
audit_k=${AUDIT_K:-16}

if [[ ! -x $bench_bin ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target bench_pathid_memory)" >&2
  exit 1
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

"$bench_bin" --audit-out "$raw" --audit-k "$audit_k" \
  --benchmark_filter=PathRegistryBuild/4 --benchmark_min_time=0.01

python3 - "$raw" "$out" "$repo_root/BENCH_pathid_audit.json" <<'EOF'
import json
import sys

raw_path, out_path, committed_path = sys.argv[1:4]

raw = json.load(open(raw_path))

# Merge into the output file if it exists; otherwise seed a new file from
# the committed record so the reference section carries over.
try:
    doc = json.load(open(out_path))
except FileNotFoundError:
    try:
        doc = json.load(open(committed_path))
    except FileNotFoundError:
        doc = {'benchmark': 'bench_pathid_audit'}
doc['current'] = {'grid': raw['grid'], 'construction': raw['construction']}

json.dump(doc, open(out_path, 'w'), indent=2)
print(f"wrote {out_path}")
EOF
