// Command shardmerge reassembles a sharded experiment run. Each shard
// process (cmd/figures or cmd/profile with -shard i/N) emits a partial
// JSON envelope holding its zero-slotted results, its manifest (the
// canonical spec plus input content keys) and, when the spec names a
// trace or attribution file, its cells' trace events. shardmerge checks
// that the partials form one complete shard set of one spec on one
// input set, merges them slot-wise, and renders exactly the artifacts
// the unsharded command would have written — stdout and files, byte
// for byte — from the spec the shards carry. The output is chosen by
// the shards' own flags, not by shardmerge's:
//
//	figures -fig 1 -json -trace t.json -shard 0/2 > part0.json
//	figures -fig 1 -json -trace t.json -shard 1/2 > part1.json
//	shardmerge part0.json part1.json > merged.json   # and t.json
//
// -manifest also writes the merged manifest, byte-identical to the one
// the unsharded run writes with -emit-manifest:
//
//	shardmerge -manifest merged.manifest.json part*.json
package main

import (
	"bufio"
	"flag"
	"log"
	"os"

	"pargraph/internal/harness"
	"pargraph/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardmerge: ")
	maniOut := flag.String("manifest", "", "also write the merged reproducibility manifest to this file")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("no partial files given")
	}

	parts := make([]*harness.Partial, 0, flag.NArg())
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		p, err := harness.ReadPartial(bufio.NewReader(f))
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		parts = append(parts, p)
	}

	if err := runner.Merge(parts, *maniOut, runner.Options{}); err != nil {
		log.Fatal(err)
	}
}
