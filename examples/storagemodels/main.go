// Storagemodels compares the four §4.1 storage layouts head to head on one
// device-sized relation: flat (raw values), the paper's hybrid (sorted
// ID-coded domains), domain storage (value pointers, unsorted domains), and
// PicoDBMS-style ring storage (value rings). It reports memory footprint
// and local skyline evaluation time, making the paper's prose argument for
// hybrid storage measurable.
//
// Run with: go run ./examples/storagemodels
package main

import (
	"fmt"
	"time"

	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/storage"
)

func main() {
	const n = 50000
	fmt.Printf("one device's relation: %d tuples, 2 attributes, 100 distinct values each\n\n", n)
	fmt.Printf("%-8s  %10s  %14s  %14s  %8s\n", "model", "size", "skyline IN", "skyline AC", "vs flat")
	fmt.Printf("%-8s  %10s  %14s  %14s  %8s\n", "-----", "----", "----------", "----------", "-------")

	var flatIN time.Duration
	for _, model := range []string{"flat", "hybrid", "domain", "ring"} {
		var sizes int
		var times [2]time.Duration
		for di, dist := range []gen.Distribution{gen.Independent, gen.AntiCorrelated} {
			data := gen.Generate(gen.HandheldConfig(n, 2, dist, 42))
			var rel storage.Relation
			switch model {
			case "flat":
				rel = storage.NewFlat(data)
			case "hybrid":
				rel = storage.NewHybrid(data)
			case "domain":
				rel = storage.NewDomain(data)
			case "ring":
				rel = storage.NewRing(data)
			}
			sizes = rel.MemBytes()
			start := time.Now()
			var count int
			if h, ok := rel.(*storage.Hybrid); ok {
				count = len(localsky.HybridSkylineScratch(h, localsky.Query{}, nil, nil, nil).Skyline)
			} else {
				count = len(localsky.BNLSkylineScratch(rel, localsky.Query{}, nil, nil, nil).Skyline)
			}
			times[di] = time.Since(start)
			_ = count
		}
		if model == "flat" {
			flatIN = times[0]
		}
		speedup := float64(flatIN) / float64(times[0])
		fmt.Printf("%-8s  %7d KB  %11.2f ms  %11.2f ms  %7.2fx\n",
			model, sizes/1024,
			float64(times[0].Microseconds())/1000,
			float64(times[1].Microseconds())/1000,
			speedup)
	}

	fmt.Println("\nwhy the paper picks hybrid (§4.1-4.2):")
	fmt.Println("  - sorted domains make ID order equal value order: dominance tests compare")
	fmt.Println("    small integers instead of dereferenced floats")
	fmt.Println("  - the SFS presort means accepted skyline tuples are never evicted")
	fmt.Println("  - domain bounds l_j, h_j are O(1) — the whole-relation filter check is O(n attrs)")
	fmt.Println("  - byte-wide IDs shrink the relation versus flat raw values")
}
