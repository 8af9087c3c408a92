package bench

import (
	"fmt"

	"manetskyline/internal/manet"
)

// The three-strategies head-to-head: BF, DF, and SF on the same mobile
// scenario, comparing what each strategy actually costs on the air. Unlike
// the Figure 8-12 sweeps (which predate SF and stay byte-identical to the
// paper's BF/DF series), this experiment exists to answer the SF question
// directly: does the sampling round pay for itself?

// strategyContenders is the comparison order of every head-to-head table.
var strategyContenders = []manet.Forwarding{
	manet.BreadthFirst, manet.DepthFirst, manet.SamplingFilter,
}

// strategyScenario is the shared scenario of one head-to-head row set: the
// paper's largest network (10×10 grid at default scale) under random
// waypoint mobility, one query per device.
func strategyScenario(sc Scale, strategy manet.Forwarding) manet.Params {
	p := manet.DefaultParams()
	p.Strategy = strategy
	p.MinQueries, p.MaxQueries = 1, 1
	p.Seed = 11
	switch sc {
	case Small:
		p.Grid = 5
		p.GlobalN = 4000
		p.SimTime = 300
	case Paper:
		p.Grid = 10
		p.GlobalN = 50000
		p.SimTime = 1200
	default:
		p.Grid = 10
		p.GlobalN = 10000
		p.SimTime = 600
	}
	return p
}

type strategyPoint struct {
	queryBytes int64
	queries    int
	msgs       float64
	resp       float64
	respOK     bool
	done       float64
	recall     float64
	recallOK   bool
}

func runStrategyPoint(p manet.Params) strategyPoint {
	out := manet.Run(p)
	resp, respOK := out.MeanResponseTime()
	pt := strategyPoint{
		queries: len(out.Queries),
		msgs:    out.MeanMessages(),
		resp:    resp,
		respOK:  respOK,
		done:    out.CompletionRate(),
	}
	for _, q := range out.Queries {
		pt.queryBytes += int64(q.Bytes)
	}
	if out.RecallComputed {
		pt.recall, pt.recallOK = out.MeanRecall()
	}
	return pt
}

// Strategies runs the head-to-head: a fault-free cost table (bytes on air,
// messages, latency) and a 5% frame-loss robustness table (recall against
// the centralized oracle, with the retry policy of the recall gates).
func Strategies(sc Scale) []*Table {
	type job struct {
		lossy bool
		pt    strategyPoint
	}
	jobs := make([]job, 0, 2*len(strategyContenders))
	for _, lossy := range []bool{false, true} {
		for range strategyContenders {
			jobs = append(jobs, job{lossy: lossy})
		}
	}
	forEach(len(jobs), func(i int) {
		strategy := strategyContenders[i%len(strategyContenders)]
		p := strategyScenario(sc, strategy)
		if jobs[i].lossy {
			p.Radio.Loss = 0.05
			p.Recall = true
			p.QueryRetries = 3
			p.RetryBackoff = 10
			p.RetryBackoffMax = 60
		}
		jobs[i].pt = runStrategyPoint(p)
	})

	ref := strategyScenario(sc, manet.BreadthFirst)
	cost := &Table{
		ID: "strategies-cost",
		Title: fmt.Sprintf("three strategies head-to-head: fault-free cost (%d devices, %d tuples, %gs, mobile)",
			ref.NumDevices(), ref.GlobalN, ref.SimTime),
		Columns: []string{"strategy", "query bytes on air", "bytes/query", "msgs/query", "resp (s)", "completion"},
	}
	loss := &Table{
		ID: "strategies-loss",
		Title: fmt.Sprintf("three strategies head-to-head: 5%% frame loss, 3 retries (%d devices, %d tuples)",
			ref.NumDevices(), ref.GlobalN),
		Columns: []string{"strategy", "mean recall", "completion", "query bytes on air"},
	}
	for i, strategy := range strategyContenders {
		pt := jobs[i].pt
		perQuery := int64(0)
		if pt.queries > 0 {
			perQuery = pt.queryBytes / int64(pt.queries)
		}
		resp := any("n/a")
		if pt.respOK {
			resp = pt.resp
		}
		cost.AddRow(strategy.String(), pt.queryBytes, perQuery, pt.msgs, resp, pt.done)

		lp := jobs[len(strategyContenders)+i].pt
		rec := any("n/a")
		if lp.recallOK {
			rec = lp.recall
		}
		loss.AddRow(strategy.String(), rec, lp.done, lp.queryBytes)
	}
	return []*Table{cost, loss}
}
