#!/usr/bin/env bash
# Two-rank loopback-TCP smoke test for cmd/dsbp: launch two rank
# processes on 127.0.0.1, require both to exit 0, and require their
# final memberships (written with -out) to be byte-identical, so the
# move exchange left both replicas in one state, and their final MDLs
# (printed as final_mdl=...) to match — the cross-process version of
# the transport-equivalence tests in internal/dist/net. Both ranks run
# with -verify, so a replica that drifts from its own membership fails
# the run even where the ranks would agree on the wrong MDL. Used by CI;
# runnable locally with no arguments.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/gengraph" ./cmd/gengraph
go build -o "$tmp/dsbp" ./cmd/dsbp

"$tmp/gengraph" -vertices 400 -communities 6 -min-degree 3 -max-degree 40 \
  -seed 7 -out "$tmp/graph.tsv"

peers="127.0.0.1:39401,127.0.0.1:39402"
common=(-peers "$peers" -graph "$tmp/graph.tsv" -communities 6 -mode hybrid -seed 11 -max-sweeps 30 -verify)

"$tmp/dsbp" -rank 0 "${common[@]}" -out "$tmp/rank0.membership" >"$tmp/rank0.out" 2>"$tmp/rank0.err" &
pid0=$!
"$tmp/dsbp" -rank 1 "${common[@]}" -out "$tmp/rank1.membership" >"$tmp/rank1.out" 2>"$tmp/rank1.err" &
pid1=$!

fail=0
wait "$pid0" || { echo "rank 0 exited non-zero"; cat "$tmp/rank0.err"; fail=1; }
wait "$pid1" || { echo "rank 1 exited non-zero"; cat "$tmp/rank1.err"; fail=1; }
[ "$fail" -eq 0 ] || exit 1

cat "$tmp/rank0.out" "$tmp/rank1.out"

mdl0=$(grep -o 'final_mdl=[0-9.eE+-]*' "$tmp/rank0.out")
mdl1=$(grep -o 'final_mdl=[0-9.eE+-]*' "$tmp/rank1.out")
if [ -z "$mdl0" ] || [ "$mdl0" != "$mdl1" ]; then
  echo "FAIL: rank MDLs disagree or missing: rank0='$mdl0' rank1='$mdl1'"
  exit 1
fi
if ! cmp -s "$tmp/rank0.membership" "$tmp/rank1.membership"; then
  echo "FAIL: rank memberships differ"
  exit 1
fi
echo "OK: both ranks agree on $mdl0 and on all $(wc -l <"$tmp/rank0.membership") vertices' blocks"
