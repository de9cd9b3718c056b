#!/usr/bin/env bash
# Lists the library functions that no tool, bench or example executable
# keeps: a Release build with -ffunction-sections and --gc-sections drops
# every unreferenced function from the executables, so a strong text symbol
# of a libswim_* archive that is defined in none of them is reachable from
# tests only (or from nothing). A function inlined into every caller shows
# up too, so read the list as candidates, not verdicts.
#
#   tools/dead_symbols.sh [build-dir]     # default: build-dead-symbols
#
# Prints the modules (library: object) none of whose functions survive
# first, then every unreferenced function. Informational: it exits 0
# whenever the build succeeds.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-dead-symbols}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if ! { cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
         -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" &&
       cmake --build "$build" -j "$(nproc)"; } >"$work/build.log" 2>&1; then
  tail -n 40 "$work/build.log" >&2
  echo "dead_symbols.sh: build failed" >&2
  exit 1
fi

# Every symbol any executable still defines after garbage collection.
find "$build/tools" "$build/bench" "$build/examples" -maxdepth 1 -type f \
  -perm -u+x -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk 'NF >= 3 { print $3 }' | sort -u >"$work/kept"

# "library: object<TAB>symbol" for every strong text symbol the archives
# define, e.g. "swim_stats: histogram.cc.o".
find "$build/src" -name 'libswim_*.a' -print0 |
  xargs -0 nm -A --defined-only 2>/dev/null |
  awk '$2 == "T" {
         split($1, path, ":"); n = split(path[1], dirs, "/")
         lib = dirs[n]; sub(/^lib/, "", lib); sub(/\.a$/, "", lib)
         print lib ": " path[2] "\t" $3
       }' |
  sort -u >"$work/defined"

awk -F'\t' 'NR == FNR { kept[$1] = 1; next }
            !($2 in kept) { print }' "$work/kept" "$work/defined" \
  >"$work/dead"

echo "== modules with no function kept by any executable"
awk -F'\t' 'NR == FNR { dead[$1]++; next } { total[$1]++ }
            END { for (m in total) if (dead[m] == total[m]) print "  " m }' \
  "$work/dead" "$work/defined" | sort

echo "== unreferenced functions, by object file"
awk -F'\t' '{ print "  " $1 ": " $2 }' "$work/dead" | c++filt
echo "$(wc -l <"$work/dead") unreferenced library functions"
