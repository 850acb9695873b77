#!/bin/sh
# Regenerates every deterministic paper table (run_all.sh --list) into a
# temp directory and diffs each against the committed results/ file. Exits
# non-zero, printing the diff, if any table changed or any bench failed.
# Tables run in parallel, one per core, each on one simulator worker
# (simulated numbers do not depend on the worker count). Usage:
#   results/check.sh
cd "$(dirname "$0")/.." || exit 1
out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT
export MPTOPK_WORKERS=1

results/run_all.sh --list |
  xargs -P "$(nproc)" -I{} sh -c \
    'results/run_all.sh --table "$1" > "$2/$1" || echo "$1" >> "$2/failed"' \
    sh {} "$out"

status=0
for t in $(results/run_all.sh --list); do
  if grep -qx "$t" "$out/failed" 2>/dev/null; then
    echo "FAIL $t: bench exited non-zero" >&2
    status=1
  elif ! diff -u "results/$t" "$out/$t"; then
    echo "FAIL $t: differs from results/$t" >&2
    status=1
  fi
done
[ $status -eq 0 ] && echo "all $(results/run_all.sh --list | wc -l) deterministic tables match"
exit $status
