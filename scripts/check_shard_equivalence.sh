#!/bin/sh
# CI guard for the sharding contract: the fig1 sweep run as a full shard
# set and merged by cmd/shardmerge must be byte-identical to the
# unsharded run — report JSON and Chrome trace for shard counts 2 and 4
# (shards given -trace carry their events to the merge, which writes the
# file), and the §5 summary as CSV, which the merge derives. Any drift
# between the sharded and unsharded paths — a cell skipped by the wrong
# shard, a merge reordering, a float re-rendered differently, an
# artifact the merge renders differently — shows up here as a diff, not
# as a quietly wrong figure.
#
# Usage: scripts/check_shard_equivalence.sh
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/figures" ./cmd/figures
go build -o "$workdir/shardmerge" ./cmd/shardmerge

"$workdir/figures" -fig 1 -json -trace "$workdir/unsharded_trace.json" \
    >"$workdir/unsharded.json" 2>/dev/null

for n in 2 4; do
    cache="$workdir/cache$n"
    i=0
    while [ "$i" -lt "$n" ]; do
        "$workdir/figures" -fig 1 -json -shard "$i/$n" -cache-dir "$cache" \
            -trace "$workdir/merged_trace$n.json" >"$workdir/part$n.$i.json"
        i=$((i + 1))
    done
    "$workdir/shardmerge" "$workdir"/part$n.*.json >"$workdir/merged$n.json"
    if ! cmp -s "$workdir/unsharded.json" "$workdir/merged$n.json"; then
        echo "check_shard_equivalence: FAIL — N=$n merged report differs from unsharded"
        diff "$workdir/unsharded.json" "$workdir/merged$n.json" | head -20
        exit 1
    fi
    if ! cmp -s "$workdir/unsharded_trace.json" "$workdir/merged_trace$n.json"; then
        echo "check_shard_equivalence: FAIL — N=$n merged trace differs from unsharded"
        exit 1
    fi
    echo "check_shard_equivalence: N=$n merged report and trace byte-identical to unsharded"
done

# The summary leg: shards carry only their fig1/fig2 cells, and the
# merge derives the headline ratios and renders them as the spec's CSV.
"$workdir/figures" -summary -csv -cache-dir "$workdir/cache2" \
    >"$workdir/unsharded_summary.csv"
for i in 0 1; do
    "$workdir/figures" -summary -csv -shard "$i/2" -cache-dir "$workdir/cache2" \
        >"$workdir/summary_part.$i.json"
done
"$workdir/shardmerge" "$workdir"/summary_part.*.json >"$workdir/merged_summary.csv"
if ! cmp -s "$workdir/unsharded_summary.csv" "$workdir/merged_summary.csv"; then
    echo "check_shard_equivalence: FAIL — merged -summary -csv differs from unsharded"
    diff "$workdir/unsharded_summary.csv" "$workdir/merged_summary.csv" | head -20
    exit 1
fi
echo "check_shard_equivalence: N=2 merged -summary -csv byte-identical to unsharded"
