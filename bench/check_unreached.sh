#!/usr/bin/env bash
# Unreached-code gate: every strong (`T`) mars:: function that the src/
# libraries define must be reachable from at least one shipped binary.
# A function that only its own unit test calls fails the gate; delete it,
# or move it into tests/ beside its caller.
#
# Method:
# - Configure the repository into an ignored build directory and build
#   every example and bench binary (read from the mars_add_example,
#   mars_add_bench and add_executable lines of examples/CMakeLists.txt and
#   bench/CMakeLists.txt, so a new binary joins the check by itself), plus
#   perfbench/perfbench_trial.cpp compiled on its own. Everything is built
#   at -O0 with -ffunction-sections: at -O2 a function inlined at every
#   call site leaves an unreferenced out-of-line copy, which would be
#   flagged falsely.
# - Relink each binary with every libmars_*.a whole-archived and
#   -Wl,--gc-sections, so the linker keeps exactly the functions reachable
#   from main, static initializers and the vtables they use.
# - A `T` symbol in a libmars_*.a whose demangled name starts with mars::
#   and that survives in none of the relinked binaries is unreached.
#
# It cannot see header-only code: inline functions, templates and class
# members defined in headers are weak or local symbols, or are never
# emitted at all when nothing calls them, so a dead one passes the gate.
#
# Usage: bench/check_unreached.sh
#   BUILD_DIR overrides the build directory (default:
#   <repo>/build-unreached). JOBS sets build parallelism (default: nproc).
#   Exits 0 when every unreached symbol is on the allowlist below; else
#   prints each one with its library and object file and exits 1.
set -euo pipefail
export LC_ALL=C

# Functions that no shipped binary calls but tests need to observe. One
# entry per line, each with the reason it stays. Demangled, as nm -C
# prints them.
allowlist=(
  # Under concurrent get_or_build, the TSan-run cache test can prove that
  # exactly one build happened only through stats().misses == 1.
  'mars::control::PathRegistryCache::stats() const'
)

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-$repo_root/build-unreached}
jobs=${JOBS:-$(nproc)}
flags="-O0 -ffunction-sections -fdata-sections"

# Shipped binaries: the CMake targets, and the object holding each main.
targets=()
objects=()
for dir in examples bench; do
  while read -r name; do
    targets+=("$name")
    objects+=("$build_dir/$dir/CMakeFiles/$name.dir/$name.cpp.o")
  done < <(sed -n -E \
    's/^[[:space:]]*(mars_add_example|mars_add_bench|add_executable)\(([A-Za-z0-9_]+).*/\2/p' \
    "$repo_root/$dir/CMakeLists.txt")
done
if [[ ${#targets[@]} -eq 0 ]]; then
  echo "error: no binaries found in examples/ or bench/ CMakeLists.txt" >&2
  exit 1
fi

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="$flags" > /dev/null
cmake --build "$build_dir" -j"$jobs" --target "${targets[@]}" > /dev/null

cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build_dir/CMakeCache.txt")
perfbench_obj=$build_dir/unreached/perfbench_trial.cpp.o
mkdir -p "$build_dir/unreached"
# shellcheck disable=SC2086  # $flags is a list of compiler flags.
"$cxx" -std=c++20 $flags -I"$repo_root/src" \
  -c "$repo_root/perfbench/perfbench_trial.cpp" -o "$perfbench_obj"
objects+=("$perfbench_obj")

mapfile -t libs < <(find "$build_dir/src" -name 'libmars_*.a' | sort)
if [[ ${#libs[@]} -eq 0 ]]; then
  echo "error: no libmars_*.a under $build_dir/src" >&2
  exit 1
fi

# Relink every binary with all libraries whole-archived; the linker's
# garbage collection drops each section nothing reachable refers to.
kept=$build_dir/unreached/kept.txt
: > "$kept"
for obj in "${objects[@]}"; do
  [[ -f $obj ]] || { echo "error: $obj not built" >&2; exit 1; }
  out=$build_dir/unreached/$(basename "$obj" .cpp.o)
  "$cxx" "$obj" -o "$out" -Wl,--gc-sections \
    -Wl,--whole-archive "${libs[@]}" -Wl,--no-whole-archive \
    -Wl,--as-needed -lbenchmark -pthread
  nm --defined-only "$out" | awk '{print $3}' >> "$kept"
done
sort -u -o "$kept" "$kept"

# Strong mars:: functions the libraries define: mangled, library:object.
defined=$build_dir/unreached/defined.txt
for lib in "${libs[@]}"; do
  nm -A --defined-only "$lib" 2>/dev/null |
    awk -v lib="$(basename "$lib")" '$2 == "T" {
      split($1, parts, ":"); print $3, lib ":" parts[2] }'
done | sort -u > "$defined"

unreached=$build_dir/unreached/unreached.txt
join -v 1 "$defined" "$kept" | awk '{print $1 "\t" $2}' | c++filt |
  grep '^mars::' | sort -u > "$unreached" || true

allowed=0
failed=0
while IFS=$'\t' read -r name where; do
  skip=0
  for entry in "${allowlist[@]}"; do
    [[ $name == "$entry" ]] && skip=1
  done
  if [[ $skip -eq 1 ]]; then
    allowed=$((allowed + 1))
    echo "allowed:   $name  ($where)"
  else
    failed=$((failed + 1))
    echo "unreached: $name  ($where)"
  fi
done < "$unreached"

echo "${#objects[@]} binaries; $((failed + allowed)) unreached symbols in" \
  "$(cut -f2 "$unreached" | sort -u | wc -l) object files," \
  "$allowed of them allowlisted"
if [[ $failed -gt 0 ]]; then
  echo "error: $failed src/ functions are reached by no shipped binary;" \
    "delete them, move them into tests/, or allowlist them with a reason" >&2
  exit 1
fi
