// Command skysim runs one MANET scenario end to end and reports per-query
// and aggregate metrics — the interactive face of the simulator behind
// Figures 8-12.
//
// Usage:
//
//	skysim -grid 5 -n 50000 -dim 2 -dist IN -d 250 -strategy BF -time 7200
//
// -strategy SF selects the sampling-filter strategy (tune with -filterk,
// -samplek, -samplettl, -samplewait):
//
//	skysim -grid 10 -n 10000 -strategy SF -filterk 2
//
// With -nodes it instead runs the large-scale preset (constant-density
// geometry, compact mobility, flood-installed routes, per-link queues) and
// reports simulator throughput and memory:
//
//	skysim -nodes 30000 -strategy BF
//
// -spans writes every query's timeline in the span JSONL format that
// skypeer serves at /trace.jsonl, so skytrace reads a simulated run:
//
//	skysim -grid 3 -n 900 -maxq 1 -spans run.jsonl && skytrace run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"manetskyline/internal/bench"
	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/manet"
	"manetskyline/internal/stats"
	"manetskyline/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skysim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		grid     = flag.Int("grid", 5, "grid side length (devices = grid²)")
		n        = flag.Int("n", 50000, "global relation cardinality")
		dim      = flag.Int("dim", 2, "non-spatial attributes (2-5)")
		dist     = flag.String("dist", "IN", "attribute distribution: IN|AC|CO")
		d        = flag.Float64("d", 250, "query distance of interest")
		strategy = flag.String("strategy", "BF", "forwarding: BF|DF|SF")
		mode     = flag.String("mode", "UNE", "VDR estimation: EXT|OVE|UNE")
		dynamic  = flag.Bool("dynamic", true, "dynamic filter updates")
		filters  = flag.Int("filters", 1, "filtering tuples per query (§7 multi-filter extension)")
		filterK  = flag.Int("filterk", 0, "SF broadcast filter-set size (0 = default)")
		sampleK  = flag.Int("samplek", 0, "SF per-device sample budget (0 = default)")
		sampleW  = flag.Float64("samplewait", 0, "SF sample-collection window in simulated seconds (0 = default)")
		sampleT  = flag.Int("samplettl", 0, "SF sampling-round flood TTL in hops (0 = default)")
		simTime  = flag.Float64("time", 7200, "simulated seconds")
		minQ     = flag.Int("minq", 1, "min queries per device")
		maxQ     = flag.Int("maxq", 5, "max queries per device")
		static   = flag.Bool("static", false, "disable mobility")
		fade     = flag.Float64("fade", 0, "radio gray-zone fade margin in [0,1]")
		loss     = flag.Float64("loss", 0, "independent frame loss probability")
		redist   = flag.Bool("redistribute", false, "hand relations to devices closer to the data (§7 extension)")
		faultsIn = flag.String("faults", "", "fault plan: a builtin name ("+
			"crash, pause, partition, crash+partition, lossy-center, chaos, churn) or a JSON plan file")
		recall     = flag.Bool("recall", false, "score every result against the centralized skyline oracle")
		retries    = flag.Int("retries", 0, "originator re-issues per query (0 disables)")
		backoff    = flag.Float64("backoff", 15, "delay before the first re-issue, doubling per attempt")
		backoffMax = flag.Float64("backoffmax", 120, "cap on the retry backoff (0 = uncapped)")
		deadline   = flag.Float64("deadline", 0, "per-query deadline in simulated seconds (0 disables)")
		ackTO      = flag.Float64("acktimeout", 5, "DF neighbour acknowledgement timeout")
		subtreeTO  = flag.Float64("subtreetimeout", 300, "DF child subtree result timeout")
		seed       = flag.Int64("seed", 1, "random seed")
		nodes      = flag.Int("nodes", 0, "run the large-scale preset with this many devices (ignores most other flags)")
		scaleTime  = flag.Float64("scaletime", 0, "simulated seconds for the -nodes preset (0 = preset default)")
		scaleOrig  = flag.Int("originators", 0, "query issuers for the -nodes preset (0 = preset default)")
		metrics    = flag.String("metrics", "", `dump Prometheus-format metrics to this file ("-" for stdout)`)
		spansOut   = flag.String("spans", "", `write per-query span timelines as JSONL, the format skytrace reads, to this file ("-" for stdout)`)
		verbose    = flag.Bool("v", false, "print per-query metrics")
	)
	flag.Parse()

	if *nodes > 0 {
		cfg := bench.LargeConfig{
			Nodes:       *nodes,
			SimTime:     *scaleTime,
			Originators: *scaleOrig,
			Seed:        *seed,
		}
		switch *strategy {
		case "BF":
			cfg.Strategy = manet.BreadthFirst
		case "DF":
			cfg.Strategy = manet.DepthFirst
		case "SF":
			cfg.Strategy = manet.SamplingFilter
		default:
			return fmt.Errorf("unknown strategy %q", *strategy)
		}
		fmt.Printf("scale preset: %d nodes requested, %v forwarding\n\n", *nodes, cfg.Strategy)
		fmt.Print(bench.RunLarge(cfg).Report())
		return nil
	}

	p := manet.DefaultParams()
	p.Grid = *grid
	p.GlobalN = *n
	p.Dim = *dim
	p.QueryDist = *d
	p.Dynamic = *dynamic
	p.NumFilters = *filters
	p.FilterK = *filterK
	p.SampleK = *sampleK
	p.SampleWait = *sampleW
	p.SampleTTL = *sampleT
	p.SimTime = *simTime
	p.MinQueries, p.MaxQueries = *minQ, *maxQ
	p.Static = *static
	p.Radio.FadeMargin = *fade
	p.Radio.Loss = *loss
	p.Redistribute = *redist
	p.Recall = *recall
	p.QueryRetries = *retries
	p.RetryBackoff = *backoff
	p.RetryBackoffMax = *backoffMax
	p.QueryDeadline = *deadline
	p.AckTimeout = *ackTO
	p.SubtreeTimeout = *subtreeTO
	p.Seed = *seed
	if *faultsIn != "" {
		plan, err := faults.Load(*faultsIn, p.NumDevices(), p.SimTime)
		if err != nil {
			return err
		}
		p.Faults = plan
	}
	if *metrics != "" {
		p.Metrics = telemetry.NewRegistry()
	}
	if *spansOut != "" {
		p.Spans = telemetry.NewSpanLog()
	}

	switch *dist {
	case "IN":
		p.Dist = gen.Independent
	case "AC":
		p.Dist = gen.AntiCorrelated
	case "CO":
		p.Dist = gen.Correlated
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	switch *strategy {
	case "BF":
		p.Strategy = manet.BreadthFirst
	case "DF":
		p.Strategy = manet.DepthFirst
	case "SF":
		p.Strategy = manet.SamplingFilter
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	switch *mode {
	case "EXT":
		p.Mode = core.Exact
	case "OVE":
		p.Mode = core.Over
	case "UNE":
		p.Mode = core.Under
	default:
		return fmt.Errorf("unknown estimation mode %q", *mode)
	}
	if err := p.Validate(); err != nil {
		return err
	}

	fmt.Printf("scenario: %d devices, %d tuples (%v, %d attrs), d=%g, %v/%v dynamic=%v, %gs simulated\n",
		p.NumDevices(), p.GlobalN, p.Dist, p.Dim, p.QueryDist, p.Strategy, p.Mode, p.Dynamic, p.SimTime)

	out := manet.Run(p)

	if *verbose {
		fmt.Println("\nper-query metrics:")
		for _, q := range out.Queries {
			status := "incomplete"
			rt := ""
			if q.Done {
				status = "done"
				if q.Partial {
					status = "partial"
				}
				rt = fmt.Sprintf(" rt=%.3fs", q.ResponseTime)
			}
			extra := ""
			if q.Retries > 0 {
				extra += fmt.Sprintf(" retries=%d", q.Retries)
			}
			if out.RecallComputed {
				extra += fmt.Sprintf(" recall=%.3f prec=%.3f", q.Recall, q.Precision)
			}
			fmt.Printf("  org=%-3d cnt=%-3d t=%-8.1f %-10s%s drr=%+.3f devices=%d msgs=%d result=%d%s\n",
				q.Org, q.Key.Cnt, q.Issued, status, rt, q.DRR(), q.Acc.Devices, q.Messages, q.ResultTuples, extra)
		}
	}

	fmt.Printf("\nqueries issued:   %d (skipped %d while busy)\n", len(out.Queries), out.SkippedIssues)
	fmt.Printf("completion rate:  %.1f%%\n", out.CompletionRate()*100)
	fmt.Printf("pooled DRR:       %.3f\n", out.PooledDRR())
	var rtw stats.Welford
	var rts []float64
	for _, q := range out.Queries {
		if q.Done {
			rtw.Add(q.ResponseTime)
			rts = append(rts, q.ResponseTime)
		}
	}
	if rtw.N() > 0 {
		fmt.Printf("resp. time:       mean %.3fs ± %.3fs, median %.3fs (n=%d)\n",
			rtw.Mean(), rtw.StdDev(), stats.Median(rts), rtw.N())
	} else {
		fmt.Printf("resp. time:       n/a (no completed queries)\n")
	}
	if p.Metrics != nil {
		if h := p.Metrics.Histogram("manet_response_time_seconds", "", nil); h.Count() > 0 {
			fmt.Printf("resp. quantiles:  p50 %.3fs  p95 %.3fs  p99 %.3fs (bucket-interpolated)\n",
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	fmt.Printf("mean msgs/query:  %.1f\n", out.MeanMessages())
	fmt.Printf("radio frames:     %d sent, %d received, %d lost to range, %d lost to noise\n",
		out.Radio.FramesSent, out.Radio.Receptions, out.Radio.DroppedRange, out.Radio.DroppedLoss)
	fmt.Printf("routing overhead: %d RREQ, %d RREP, %d RERR; data %d fwd / %d delivered / %d dropped\n",
		out.Aodv.RREQSent, out.Aodv.RREPSent, out.Aodv.RERRSent,
		out.Aodv.DataForwarded, out.Aodv.DataDelivered, out.Aodv.DataDropped)
	if out.Transfers > 0 {
		fmt.Printf("redistribution:   %d relation hand-offs\n", out.Transfers)
	}
	if p.Faults != nil {
		partial, retried := 0, 0
		for _, q := range out.Queries {
			if q.Partial {
				partial++
			}
			retried += q.Retries
		}
		fmt.Printf("fault plan %q:    %d outage, %d link, %d region, %d partition drops; %d duped, %d reordered\n",
			p.Faults.Name, out.Faults.OutageDrops, out.Faults.LinkDrops,
			out.Faults.RegionDrops, out.Faults.PartitionDrops,
			out.Faults.Duplicated, out.Faults.Reordered)
		fmt.Printf("degradation:      %d partial results, %d re-issues\n", partial, retried)
	}
	if out.RecallComputed {
		if r, ok := out.MeanRecall(); ok {
			pr, _ := out.MeanPrecision()
			fmt.Printf("recall:           mean %.3f, precision %.3f (centralized oracle)\n", r, pr)
		}
	}
	if p.Metrics != nil {
		if br := p.Metrics.Bytes(); br.OnAir > 0 {
			fmt.Printf("%s\n", br.String())
		}
	}
	fmt.Printf("events executed:  %d\n", out.Events)

	if *metrics != "" {
		if err := dumpTo(*metrics, p.Metrics.WritePrometheus); err != nil {
			return err
		}
	}
	if *spansOut != "" {
		if err := dumpTo(*spansOut, p.Spans.WriteJSONL); err != nil {
			return err
		}
	}
	return nil
}

// dumpTo writes a report to the named file, or to stdout for "-".
func dumpTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
