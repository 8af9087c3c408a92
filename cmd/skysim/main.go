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
// -nodes picks the scale preset (manet.ScaleParams: constant-density
// geometry, compact mobility, flood-installed routes, per-link queues) as the
// base scenario in place of the paper's; every flag given still applies over
// it, and the run and its report are the same:
//
//	skysim -nodes 30000 -strategy BF
//
// -time 0, the default, keeps the base scenario's own duration: 7200
// simulated seconds for the paper's scenario, 300 for the preset. Every
// report gives the run's wall time, events/sec and peak RSS.
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
	"strconv"
	"strings"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/manet"
	"manetskyline/internal/stats"
	"manetskyline/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skysim:", err)
		os.Exit(1)
	}
}

// options are the flags that set no field of the scenario's Params.
type options struct {
	nodes                  int
	simTime                float64
	faults, metrics, spans string
	verbose                bool
}

// parse binds every scenario flag to its field of p, with the field's
// current value as the flag's default, and parses args into p and the
// returned options.
func parse(p *manet.Params, args []string) options {
	var o options
	fs := flag.NewFlagSet("skysim", flag.ExitOnError)
	fs.IntVar(&o.nodes, "nodes", 0, "base the scenario on the scale preset with this many devices")
	fs.IntVar(&p.Grid, "grid", p.Grid, "grid side length (devices = grid²)")
	fs.IntVar(&p.GlobalN, "n", p.GlobalN, "global relation cardinality")
	fs.IntVar(&p.Dim, "dim", p.Dim, "non-spatial attributes (2-5)")
	fs.Var(named[gen.Distribution]{&p.Dist, []gen.Distribution{gen.Independent, gen.AntiCorrelated, gen.Correlated}},
		"dist", "attribute distribution: IN|AC|CO")
	fs.Float64Var(&p.QueryDist, "d", p.QueryDist, "query distance of interest")
	fs.Var(named[manet.Forwarding]{&p.Strategy, []manet.Forwarding{manet.BreadthFirst, manet.DepthFirst, manet.SamplingFilter}},
		"strategy", "forwarding: BF|DF|SF")
	fs.Var(named[core.Estimation]{&p.Mode, []core.Estimation{core.Exact, core.Over, core.Under}},
		"mode", "VDR estimation: EXT|OVE|UNE")
	fs.BoolVar(&p.Dynamic, "dynamic", p.Dynamic, "dynamic filter updates")
	fs.IntVar(&p.NumFilters, "filters", p.NumFilters, "filtering tuples per query (§7 multi-filter extension; 0 and 1 mean one)")
	fs.IntVar(&p.FilterK, "filterk", p.FilterK, "SF broadcast filter-set size (0 = default)")
	fs.IntVar(&p.SampleK, "samplek", p.SampleK, "SF per-device sample budget (0 = default)")
	fs.Float64Var(&p.SampleWait, "samplewait", p.SampleWait, "SF sample-collection window in simulated seconds (0 = default)")
	fs.IntVar(&p.SampleTTL, "samplettl", p.SampleTTL, "SF sampling-round flood TTL in hops (0 = default)")
	fs.Float64Var(&o.simTime, "time", 0, "simulated seconds (0 = the scenario's own: 7200, or 300 with -nodes)")
	fs.IntVar(&p.MinQueries, "minq", p.MinQueries, "min queries per device")
	fs.IntVar(&p.MaxQueries, "maxq", p.MaxQueries, "max queries per device")
	fs.BoolVar(&p.Static, "static", p.Static, "disable mobility")
	fs.Float64Var(&p.Radio.FadeMargin, "fade", p.Radio.FadeMargin, "radio gray-zone fade margin in [0,1]")
	fs.Float64Var(&p.Radio.Loss, "loss", p.Radio.Loss, "independent frame loss probability")
	fs.BoolVar(&p.Redistribute, "redistribute", p.Redistribute, "hand relations to devices closer to the data (§7 extension)")
	fs.StringVar(&o.faults, "faults", "", "fault plan: a builtin name ("+
		"crash, pause, partition, crash+partition, lossy-center, chaos, churn) or a JSON plan file")
	fs.BoolVar(&p.Recall, "recall", p.Recall, "score every result against the centralized skyline oracle")
	fs.IntVar(&p.QueryRetries, "retries", p.QueryRetries, "originator re-issues per query (0 disables)")
	fs.Float64Var(&p.RetryBackoff, "backoff", p.RetryBackoff, "delay before the first re-issue, doubling per attempt")
	fs.Float64Var(&p.RetryBackoffMax, "backoffmax", p.RetryBackoffMax, "cap on the retry backoff (0 = uncapped)")
	fs.Float64Var(&p.QueryDeadline, "deadline", p.QueryDeadline, "per-query deadline in simulated seconds (0 disables)")
	fs.Float64Var(&p.AckTimeout, "acktimeout", p.AckTimeout, "DF neighbour acknowledgement timeout")
	fs.Float64Var(&p.SubtreeTimeout, "subtreetimeout", p.SubtreeTimeout, "DF child subtree result timeout")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.StringVar(&o.metrics, "metrics", "", `dump Prometheus-format metrics to this file ("-" for stdout)`)
	fs.StringVar(&o.spans, "spans", "", `write per-query span timelines as JSONL, the format skytrace reads, to this file ("-" for stdout)`)
	fs.BoolVar(&o.verbose, "v", false, "print per-query metrics")
	fs.Parse(args)
	return o
}

// named is a flag over an enumeration whose String method names its values.
type named[T fmt.Stringer] struct {
	v   *T
	all []T
}

func (n named[T]) String() string {
	if n.v == nil {
		return ""
	}
	return (*n.v).String()
}

func (n named[T]) Set(s string) error {
	for _, c := range n.all {
		if c.String() == s {
			*n.v = c
			return nil
		}
	}
	return fmt.Errorf("not one of %v", n.all)
}

func run(args []string) error {
	p := manet.DefaultParams()
	o := parse(&p, args)
	if o.nodes > 0 {
		// The preset replaces the paper's scenario as the base, and the
		// flags given are parsed again over it.
		p = manet.ScaleParams(manet.ScaleConfig{Nodes: o.nodes, Strategy: p.Strategy, SimTime: o.simTime, Seed: p.Seed})
		o = parse(&p, args)
	} else if o.simTime != 0 {
		p.SimTime = o.simTime
	}
	if o.faults != "" {
		plan, err := faults.Load(o.faults, p.NumDevices(), p.SimTime)
		if err != nil {
			return err
		}
		p.Faults = plan
	}
	if o.metrics != "" {
		p.Metrics = telemetry.NewRegistry()
	}
	if o.spans != "" {
		p.Spans = telemetry.NewSpanLog()
	}
	if err := p.Validate(); err != nil {
		return err
	}

	fmt.Printf("scenario: %d devices, %d tuples (%v, %d attrs), d=%g, %v/%v dynamic=%v, %gs simulated\n",
		p.NumDevices(), p.GlobalN, p.Dist, p.Dim, p.QueryDist, p.Strategy, p.Mode, p.Dynamic, p.SimTime)

	start := time.Now()
	out := manet.Run(p)
	wall := time.Since(start)

	if o.verbose {
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
	fmt.Printf("wall time:        %.2fs, %.0f events/sec", wall.Seconds(), float64(out.Events)/wall.Seconds())
	if rss := peakRSS(); rss > 0 {
		fmt.Printf(", peak RSS %.1f MiB", float64(rss)/(1<<20))
	}
	fmt.Println()

	if o.metrics != "" {
		if err := dumpTo(o.metrics, p.Metrics.WritePrometheus); err != nil {
			return err
		}
	}
	if o.spans != "" {
		if err := dumpTo(o.spans, p.Spans.WriteJSONL); err != nil {
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

// peakRSS reads the process's resident-set high-water mark from
// /proc/self/status (VmHWM, reported in kB). Returns 0 when the file or
// field is unavailable (non-Linux hosts).
func peakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
