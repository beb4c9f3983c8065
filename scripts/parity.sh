#!/usr/bin/env bash
# Answers and counters against another revision, in one command.
#
# Usage: scripts/parity.sh <rev> [--ignore-row <name>]...
#
# Builds scripts/parity/parity_dump.cc from the working tree twice (in
# Release): against the library sources of <rev>, exported with
# `git archive` into a temporary directory, and against the working
# tree's src/. Runs both builds, drops the ignored QueryStats rows from
# both outputs, and diffs them. Exits 0 when they match, 1 on a
# difference (the diff is printed), 2 on a usage or build error.
#
# `--ignore-row <name>` skips a row a change documents as moved, or one the
# other revision does not have (e.g. `--ignore-row pair_bounds`); repeat
# it for several rows. `io.page_misses` and `io.logical_accesses` are rows
# of their own. Timers (every double row) are never printed.
#
# This is a development tool, not a CI gate: a change may legitimately
# move answers on exact ties.

set -euo pipefail

usage() {
  echo "usage: scripts/parity.sh <rev> [--ignore-row <name>]..." >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
rev="$1"
shift
ignored=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --ignore-row)
      [[ $# -ge 2 ]] || usage
      ignored+=("$2")
      shift 2
      ;;
    *) usage ;;
  esac
done

root="$(cd "$(dirname "$0")/.." && pwd)"
git -C "$root" rev-parse --verify --quiet "${rev}^{commit}" >/dev/null ||
  { echo "parity: unknown revision '${rev}'" >&2; exit 2; }

work="$(mktemp -d "${TMPDIR:-/tmp}/gpssn-parity.XXXXXX")"
trap 'rm -rf "${work}"' EXIT

mkdir -p "${work}/base"
git -C "$root" archive "$rev" src | tar -x -C "${work}/base"

jobs="$(nproc 2>/dev/null || echo 2)"
build() {  # build <name> <src dir>
  cmake -S "$root/scripts/parity" -B "${work}/build-$1" \
    -DCMAKE_BUILD_TYPE=Release -DGPSSN_SRC="$2" >&2 &&
    cmake --build "${work}/build-$1" --target gpssn_parity -j "$jobs" >&2
}
if ! build base "${work}/base/src"; then
  echo "parity: build of ${rev} failed" >&2
  exit 2
fi
if ! build head "$root/src"; then
  echo "parity: build of the working tree failed" >&2
  exit 2
fi

# Keeps every line except the ignored `stat <name>=` rows.
filter() {
  if [[ ${#ignored[@]} -eq 0 ]]; then
    cat
  else
    local alternatives
    alternatives="$(IFS='|'; echo "${ignored[*]//./\\.}")"
    grep -v -E " stat (${alternatives})=" || true
  fi
}

echo "parity: running ${rev} ..." >&2
"${work}/build-base/gpssn_parity" > "${work}/base.out"
echo "parity: running the working tree ..." >&2
"${work}/build-head/gpssn_parity" > "${work}/head.out"
filter < "${work}/base.out" > "${work}/base.txt"
filter < "${work}/head.out" > "${work}/head.txt"

if diff -u --label "${rev}" --label "working tree" \
    "${work}/base.txt" "${work}/head.txt"; then
  echo "parity: no difference ($(wc -l < "${work}/head.txt") lines)" >&2
  exit 0
fi
echo "parity: outputs differ" >&2
exit 1
