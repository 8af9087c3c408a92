// Command manetbench is the repository's benchmark: five fixed-work
// workloads over the four tiers (device-local engine, simulator, socket
// transport, serving front), reached through their public functions only.
//
//	bash benchmark/run.sh                        every workload, untraced
//	bash benchmark/run.sh --trace 1              every workload, traced
//	bash benchmark/run.sh --workload live_rr_9   one workload (the driver's call)
//	bash benchmark/run.sh --aa 3                 two sets of three suites, compared
//
// See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"manetskyline/internal/manet"
)

// registry holds the five workloads in BENCHMARK.json's order. A nominal
// block is sized so that three to five of them fill the 15 s BENCHMARK.json
// asks for.
var registry = []workload{
	{name: "sim_bf_100", nominalBlock: 5.5, setupReps: 3,
		new: func(seed int64, smoke bool, rec *spanRecorder) runner {
			return &simRunner{name: "sim_bf_100", seed: seed, rec: rec, scenarios: 5,
				maxPartial: 0.15, minPrecision: 0.9, minRecall: 0.85,
				params: small100(manet.BreadthFirst, smoke)}
		}},
	{name: "sim_df_100", nominalBlock: 5.3, setupReps: 1,
		new: func(seed int64, smoke bool, rec *spanRecorder) runner {
			return &simRunner{name: "sim_df_100", seed: seed, rec: rec, scenarios: 2,
				maxPartial: 0.15, minPrecision: 0.9, minRecall: 0.85,
				params: small100(manet.DepthFirst, smoke)}
		}},
	{name: "sim_bf_30k", nominalBlock: 3.4, setupReps: 1,
		new: func(seed int64, smoke bool, rec *spanRecorder) runner {
			// At 30 000 devices the 80 % quorum is out of reach (bounded link
			// queues drop most replies), so every query ends by its deadline
			// with the replies of some devices, and no floor applies.
			return &simRunner{name: "sim_bf_30k", seed: seed, rec: rec, scenarios: 1,
				maxPartial: 1, large: true, params: large30k(smoke)}
		}},
	{name: "local_ac_25", nominalBlock: 3.1, setupReps: 3, new: newLocalRunner},
	{name: "live_rr_9", nominalBlock: 3.1, setupReps: 3, new: newLiveRunner},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range registry {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the flags of one single-workload run.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	traceDir string
}

func main() {
	var (
		name  = flag.String("workload", "", "run this workload only and print its result line (default: every workload, each in a fresh process)")
		trace = flag.Int("trace", 0, "1 for the traced run that prints the per-layer metrics, 0 for the untraced run that prints the end-to-end ones")
		scale = flag.String("scale", "full", "full, or smoke for the sizes the tests use")
		aa    = flag.Int("aa", 0, "self-check: run the untraced suite this many times in each of two sets and compare the sets' medians against the bounds")
		spec  = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		opt   options
	)
	flag.Int64Var(&opt.seed, "seed", 1, "the only input that changes the generated data")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "nominal measuring time; it fixes the number of blocks")
	flag.StringVar(&opt.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>.spans.json")
	flag.Parse()
	opt.traced = *trace == 1
	opt.smoke = *scale == "smoke"

	var err error
	switch {
	case flag.NArg() > 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "smoke") || opt.seconds <= 0:
		flag.Usage()
		os.Exit(2)
	case *spec:
		_, err = os.Stdout.Write(specJSON())
	case *aa > 0:
		err = selfCheck(*aa, opt, os.Stdout)
	case *name == "":
		_, err = runSuite(opt, os.Stdout)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var res result
		if res, err = runWorkload(w, opt, os.Stdout); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "manetbench:", err)
		os.Exit(1)
	}
}

// runWorkload measures one workload in this process and writes the
// human-readable report to out.
func runWorkload(w workload, opt options, out io.Writer) (result, error) {
	fmt.Fprintln(out, header())
	k := w.blocks(opt.seconds)
	if opt.smoke {
		k = 3
	}
	var res result
	var err error
	if opt.traced {
		res, err = runTraced(w, opt, max(2, k/2), out)
	} else {
		res, err = runUntraced(w, opt, k, out)
	}
	fmt.Fprintf(out, "# load1 at end %s\n", load1())
	return res, err
}

// runUntraced produces the end-to-end metrics.
func runUntraced(w workload, opt options, k int, out io.Writer) (result, error) {
	r := w.new(opt.seed, opt.smoke, nil)
	defer r.close()
	setups := make([]float64, w.setupReps)
	for i := range setups {
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return result{}, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	blocks := make([]blockResult, k)
	for b := range blocks {
		var err error
		runtime.GC() // garbage of the previous block is not this block's cost
		if blocks[b], err = r.block(false); err != nil {
			return result{}, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, b := range blocks {
		res.Attempted += b.ops()
		res.Failed += b.failed
	}
	res.Correct = res.Failed == 0
	best := fastest(blocks)
	var lat []float64
	var cpu, wall float64
	for _, u := range best {
		lat = append(lat, u.latMs...)
		cpu += u.cpu
		wall += u.wall
	}
	blockOps := float64(blocks[0].ops())
	if len(lat) == 0 {
		// No operation was timed on its own: the one latency sample is
		// the block's time over its operations.
		lat = []float64{wall * 1e3 / blockOps}
	}
	values := map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        throughput(best),
		"cpu_us_per_op":    cpu * 1e6 / blockOps,
		"peak_rss_mb":      rss,
		"query_p50_ms":     median(lat),
		"query_p99_ms":     percentile(lat, 99),
		"air_bytes_per_op": blocks[0].airBytes / blockOps,
	}

	fmt.Fprintf(out, "workload %s seed %d seconds %g trace 0: %d identical blocks of %d units, %d ops\n",
		w.name, opt.seed, opt.seconds, k, len(best), blocks[0].ops())
	perBlock := make([]float64, k)
	for b := range blocks {
		perBlock[b] = throughput(blocks[b].units)
	}
	notes := map[string]string{
		"setup_s":          fmt.Sprintf("median of %v", setups),
		"ops_per_s":        fmt.Sprintf("each unit's fastest of %d executions; whole blocks ran at %.6g", k, perBlock),
		"cpu_us_per_op":    "of the same executions",
		"query_p50_ms":     fmt.Sprintf("%d samples", len(lat)),
		"query_p99_ms":     fmt.Sprintf("%d samples, %d beyond", len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat))))),
		"air_bytes_per_op": "of the first block",
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		fmt.Fprintf(out, "  %-18s %14.6g %-5s %s\n", m.Name, values[m.Name], m.Unit, notes[m.Name])
	}
	fmt.Fprintf(out, "  ops_attempted %d ops_failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

// runTraced produces the per-layer metrics: pairs of untraced and traced
// blocks over the same inputs, then the layer probes. End-to-end metrics are
// never taken from this run.
func runTraced(w workload, opt options, pairs int, out io.Writer) (result, error) {
	rec := newSpanRecorder()
	r := w.new(opt.seed, opt.smoke, rec)
	defer r.close()
	sp := rec.begin("setup", 0, "")
	err := r.setup()
	rec.end(sp)
	if err != nil {
		return result{}, err
	}

	plain := make([]blockResult, pairs)
	traced := make([]blockResult, pairs)
	var m0, m1 runtime.MemStats
	var mallocs, allocBytes, pauseNs float64
	var gcs uint32
	res := result{Metrics: map[string]metricValue{}}
	for b := 0; b < pairs; b++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if plain[b], err = r.block(false); err != nil {
			return result{}, err
		}
		runtime.ReadMemStats(&m1)
		mallocs += float64(m1.Mallocs - m0.Mallocs)
		allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		pauseNs += float64(m1.PauseTotalNs - m0.PauseTotalNs)
		gcs += m1.NumGC - m0.NumGC
		runtime.GC()
		if traced[b], err = r.block(true); err != nil {
			return result{}, err
		}
		res.Attempted += plain[b].ops() + traced[b].ops()
		res.Failed += plain[b].failed + traced[b].failed
	}
	res.Correct = res.Failed == 0

	layer := map[string]float64{}
	if err := runProbes(opt.seed, opt.smoke, rec, layer); err != nil {
		return result{}, err
	}
	r.layers(plain, traced, layer)
	var plainOps float64
	for _, b := range plain {
		plainOps += float64(b.ops())
	}
	layer["runtime.allocs_per_op"] = mallocs / plainOps
	layer["runtime.alloc_bytes_per_op"] = allocBytes / plainOps
	layer["runtime.gc_cycles"] = float64(gcs)
	layer["runtime.gc_pause_ms"] = pauseNs / 1e6

	path := filepath.Join(opt.traceDir, w.name+".spans.json")
	if err := rec.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace 1: %d pairs of untraced and traced blocks of %d ops, tracing costs %.2f%% of ops/s, spans in %s\n",
		w.name, opt.seed, opt.seconds, pairs, plain[0].ops(), 100*traceOverhead(plain, traced), path)
	for _, m := range perLayer {
		// A layer the workload never enters reports 0.
		res.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, layer[m.Name], m.Unit)
		delete(layer, m.Name)
	}
	if len(layer) > 0 {
		names := make([]string, 0, len(layer))
		for n := range layer {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("metrics %v are measured but not named in the spec", names)
	}
	fmt.Fprintf(out, "  ops_attempted %d ops_failed %d\n", res.Attempted, res.Failed)
	return res, nil
}
