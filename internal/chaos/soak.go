package chaos

import (
	"fmt"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
)

// SoakConfig describes one live-socket soak: a grid of real tcp.Peers wired
// through a chaos Router, issuing queries on a cadence while the plan plays
// out, each query scored against a liveness-aware centralized oracle.
type SoakConfig struct {
	// Grid is the network side length: Grid×Grid peers, one per cell.
	Grid int
	// Tuples is the total dataset cardinality, grid-partitioned over peers.
	Tuples int
	// Seed drives data generation and the router's extras stream.
	Seed int64
	// Plan is the fault schedule; its outages are enacted for real (the
	// peer's process is closed, its lease decays) and its partitions, loss
	// and chaos windows are applied by the proxies.
	Plan *faults.Plan
	// Horizon is the plan time (seconds) that Wall maps onto.
	Horizon float64
	// Wall is how long queries are issued.
	Wall time.Duration
	// QueryEvery is the issue cadence, rotating over stable originators.
	QueryEvery time.Duration
	// D is the constrained-skyline distance (0 means unconstrained).
	D float64
	// SF issues queries under the sampling-filter strategy (tcp.Peer.QuerySF)
	// instead of the breadth-first flood; the oracle and scoring are
	// identical.
	SF bool
	// Peer configures every peer; LeaseTTL should be set so real crashes
	// decay out of the directory.
	Peer tcp.Config
	// Extras adds socket-level churn on every link.
	Extras Extras
	// Trace gives every peer its own SpanLog recording per-hop transport
	// spans. Logs are per-device and survive crash/respawn, so a restarted
	// peer keeps appending to its device's history; the merged spans come
	// back in SoakResult.Spans, ready for trace.Merge / cmd/skytrace.
	Trace bool
	// Flight, when non-nil, is shared by every peer: dead-letters, decode
	// failures, dial failures and reconnects land in the ring as they
	// happen.
	Flight *telemetry.FlightRecorder
	// FlightDump, when set with Flight, snapshots the recorder to this
	// file the first time a query's recall lands below RecallTrigger —
	// the black-box dump for the failure that tripped the gate.
	FlightDump string
	// RecallTrigger is the dump threshold (0 disables dumping).
	RecallTrigger float64
}

// QueryOutcome scores one soak query.
type QueryOutcome struct {
	Org      int
	Issued   time.Duration // offset from soak start
	Err      error
	Complete bool
	Results  int
	Recall   float64
	Truth    int
}

// SoakResult aggregates a soak run.
type SoakResult struct {
	Peers   int
	Queries []QueryOutcome
	// Spans is every peer's span log merged (only with SoakConfig.Trace).
	Spans []*telemetry.Span
	// FlightDumped reports whether a recall miss snapshotted the recorder.
	FlightDumped bool
}

// MeanRecall averages per-query recall (1 when no queries ran).
func (s *SoakResult) MeanRecall() float64 {
	if len(s.Queries) == 0 {
		return 1
	}
	sum := 0.0
	for _, q := range s.Queries {
		sum += q.Recall
	}
	return sum / float64(len(s.Queries))
}

// Soak runs the scenario. The oracle is liveness-aware: each query's ground
// truth is the constrained skyline over the union of the datasets of peers
// alive at issue time — a crashed device's tuples are gone and no protocol
// can recover them, but peers that are merely partitioned stay in the
// truth, so meeting a recall floor still requires the transport to carry
// their results across the heal.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Grid <= 0 || cfg.Plan == nil || cfg.Horizon <= 0 || cfg.Wall <= 0 ||
		cfg.QueryEvery <= 0 {
		return nil, fmt.Errorf("chaos: incomplete soak config %+v", cfg)
	}
	d := cfg.D
	if d == 0 {
		d = core.Unconstrained()
	}
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()

	res := &SoakResult{Peers: len(f.parts)}
	var (
		resMu  sync.Mutex
		wg     sync.WaitGroup
		dumped bool
	)
	start := time.Now()
	ticker := time.NewTicker(cfg.QueryEvery)
	defer ticker.Stop()
	for turn := 0; ; turn++ {
		<-ticker.C
		issued := time.Since(start)
		if issued >= cfg.Wall {
			break
		}
		org := f.stable[turn%len(f.stable)]
		p, alive, union := f.snapshot(org)
		if p == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qr tcp.QueryResult
			var err error
			if cfg.SF {
				qr, err = p.QuerySF(d, alive)
			} else {
				qr, err = p.Query(d, alive)
			}
			truth := skyline.Constrained(union, p.Pos(), d)
			out := QueryOutcome{
				Org: org, Issued: issued, Err: err,
				Complete: qr.Complete, Results: qr.Results, Truth: len(truth),
			}
			out.Recall, _ = skyline.Score(truth, qr.Skyline)
			if cfg.Flight != nil && cfg.RecallTrigger > 0 && out.Recall < cfg.RecallTrigger {
				cfg.Flight.Record(telemetry.FlightEvent{
					Kind: "recall_miss", Peer: int32(org),
					Detail: fmt.Sprintf("recall %.3f < %.3f (%d/%d tuples)",
						out.Recall, cfg.RecallTrigger, out.Results, out.Truth),
				})
			}
			resMu.Lock()
			res.Queries = append(res.Queries, out)
			if cfg.Flight != nil && cfg.FlightDump != "" && !dumped &&
				cfg.RecallTrigger > 0 && out.Recall < cfg.RecallTrigger {
				if err := cfg.Flight.DumpFile(cfg.FlightDump); err == nil {
					dumped = true
					res.FlightDumped = true
				}
			}
			resMu.Unlock()
		}()
	}
	wg.Wait()
	for _, l := range f.spans {
		res.Spans = append(res.Spans, l.Spans()...)
	}
	return res, nil
}
