#!/usr/bin/env bash
# scripts/shard-diff.sh "<sweep args>" [post-check…]
#
# The sharded-sweep determinism check: run `ronsim -sweep <sweep args>`
# once unsharded and once as two -cells shards recombined by
# -merge-only; merged/ and cells/ must come out byte-identical. Each
# post-check is a shell command run inside the unsharded output
# directory, so it can grep sweep.json or test for merged/<grid point>.
#
# Environment: RONSIM is the binary (default ./ronsim); OUT the scratch
# root (default a fresh temp dir) that receives single/ and shards/;
# SINGLE_WRAP a command prefix for the unsharded run (/usr/bin/time …).
set -euo pipefail
args=$1
shift
ronsim=${RONSIM:-./ronsim}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"
set -x
# $args and $SINGLE_WRAP are word lists, split on purpose.
${SINGLE_WRAP:-} "$ronsim" -sweep $args -out "$out/single"
"$ronsim" -sweep $args -out "$out/shards" -cells '*-r00'
"$ronsim" -sweep $args -out "$out/shards" -cells '*-r01'
"$ronsim" -sweep -merge-only -out "$out/shards"
diff -r "$out/single/merged" "$out/shards/merged"
diff -r "$out/single/cells" "$out/shards/cells"
for check in "$@"; do
  (cd "$out/single" && eval "$check")
done
