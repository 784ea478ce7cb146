#!/bin/sh
# Coordinator for sharded figure runs: splits one cmd/figures invocation
# into N shard processes sharing a persistent content-addressed input
# cache, runs them concurrently, and merges their partial envelopes with
# cmd/shardmerge into the exact JSON the unsharded run would have
# written (plus any -trace/-attr files the figures args name). The shards deduplicate generation through the shared cache:
# the first process to need an input builds and persists it, the rest
# read it back.
#
# Usage: scripts/shard_run.sh N OUT.json [figures args...]
#
#	scripts/shard_run.sh 4 report.json -fig 1 -scale medium
#	scripts/shard_run.sh 2 all.json -all
#
# The cache directory defaults to a per-invocation temporary; export
# PARGRAPH_CACHE to keep inputs warm across invocations.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: scripts/shard_run.sh N OUT.json [figures args...]" >&2
    exit 2
fi
n=$1
out=$2
shift 2
if [ "$n" -lt 1 ] 2>/dev/null; then
    echo "shard_run: shard count must be a positive integer, got '$n'" >&2
    exit 2
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Build once; N concurrent `go run`s would race on the build cache lock
# and hide compile errors behind whichever shard fails first.
go build -o "$workdir/figures" ./cmd/figures
go build -o "$workdir/shardmerge" ./cmd/shardmerge

cache=${PARGRAPH_CACHE:-$workdir/cache}

i=0
pids=""
while [ "$i" -lt "$n" ]; do
    "$workdir/figures" "$@" -json -shard "$i/$n" -cache-dir "$cache" \
        >"$workdir/part$i.json" &
    pids="$pids $!"
    i=$((i + 1))
done

status=0
for pid in $pids; do
    wait "$pid" || status=$?
done
if [ "$status" -ne 0 ]; then
    echo "shard_run: a shard process failed (exit $status)" >&2
    exit "$status"
fi

"$workdir/shardmerge" "$workdir"/part*.json >"$out"
echo "shard_run: merged $n shards into $out"
