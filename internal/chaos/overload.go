package chaos

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gateway"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// OverloadConfig describes one overload soak: the same live-socket peer
// grid and fault plan as Soak, but fronted by a gateway whose admission
// budget is deliberately smaller than the offered load. An open-loop clock
// drives queries at OfferedQPS — typically 2× the gateway's Rate — while
// crashes and partitions play out underneath.
//
// The contract under test is graceful degradation: the queries the gateway
// ACCEPTS must stay correct (recall against the liveness-aware oracle),
// and every query it does not accept must get an explicit rejection —
// zero unexplained outcomes.
type OverloadConfig struct {
	// Grid, Tuples, Seed, Plan, Horizon, Wall: as in SoakConfig.
	Grid    int
	Tuples  int
	Seed    int64
	Plan    *faults.Plan
	Horizon float64
	Wall    time.Duration
	// OfferedQPS is the open-loop arrival rate into the gateway.
	OfferedQPS float64
	// Regions is how many distinct query regions the clock cycles over
	// (0 ⇒ 2); fewer regions means more coalescing and caching.
	Regions int
	// D is the constrained-skyline distance (0 means unconstrained).
	D float64
	// SF runs queries under the sampling-filter strategy.
	SF bool
	// ReqDeadline bounds each request including admission queueing
	// (0 ⇒ 3s).
	ReqDeadline time.Duration
	// Peer configures every grid peer; Gateway configures the front tier.
	Peer    tcp.Config
	Gateway gateway.Config
}

// OverloadResult classifies every request of an overload soak. Accepted +
// Shedded + BackendErrors + Unexplained always equals Sent: a request with
// no explicit outcome lands in Unexplained, and the soak's gate holds that
// at zero.
type OverloadResult struct {
	Peers         int
	Sent          int
	Accepted      int
	Shedded       int
	ShedByReason  map[string]int
	BackendErrors int
	Unexplained   int
	// Coalesced and Cached count accepted responses served by attaching
	// to an in-flight execution or from the movement-aware cache.
	Coalesced int
	Cached    int
	// MeanRecall and MinRecall score accepted responses against the
	// liveness-aware oracle at each request's issue time.
	MeanRecall float64
	MinRecall  float64
	// P50/P95/P99 are latency quantiles over accepted requests.
	P50, P95, P99 time.Duration
}

// String renders the result as one log-friendly line.
func (r *OverloadResult) String() string {
	return fmt.Sprintf(
		"sent %d: accepted %d (%d coalesced, %d cached), shed %d %v, backend errors %d, unexplained %d, recall mean %.3f min %.3f, p50 %v p95 %v p99 %v",
		r.Sent, r.Accepted, r.Coalesced, r.Cached, r.Shedded, r.ShedByReason,
		r.BackendErrors, r.Unexplained, r.MeanRecall, r.MinRecall, r.P50, r.P95, r.P99)
}

// SoakOverload runs the scenario. The gateway fronts one stable entry peer
// (the first node the plan never crashes); its admission control, not the
// MANET, decides what runs, and the oracle holds the accepted subset to
// the usual recall floor.
func SoakOverload(cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.Grid <= 0 || cfg.Plan == nil || cfg.Horizon <= 0 || cfg.Wall <= 0 ||
		cfg.OfferedQPS <= 0 {
		return nil, fmt.Errorf("chaos: incomplete overload config %+v", cfg)
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 2
	}
	if cfg.ReqDeadline <= 0 {
		cfg.ReqDeadline = 3 * time.Second
	}
	d := cfg.D
	if d == 0 {
		d = core.Unconstrained()
	}
	f, err := newFleet(SoakConfig{
		Grid: cfg.Grid, Tuples: cfg.Tuples, Seed: cfg.Seed, Plan: cfg.Plan,
		Horizon: cfg.Horizon, Wall: cfg.Wall, Peer: cfg.Peer,
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	entry := f.stable[0]

	backend := func(req gateway.Request) (tcp.QueryResult, error) {
		p, alive, _ := f.snapshot(entry)
		if p == nil {
			return tcp.QueryResult{}, fmt.Errorf("chaos: entry peer down")
		}
		qd := req.D
		if qd <= 0 {
			qd = math.Inf(1)
		}
		if cfg.SF {
			return p.QuerySF(qd, alive)
		}
		return p.Query(qd, alive)
	}
	g, err := gateway.New(backend, cfg.Gateway)
	if err != nil {
		return nil, err
	}
	defer g.Close()

	// Query regions: distinct gateway cache/coalescing cells spread over
	// the field (the entry peer's own position anchors the MANET flood
	// either way, so regions only diversify the front-tier keys).
	regions := make([]tuple.Point, cfg.Regions)
	for i := range regions {
		regions[i] = tuple.Point{X: float64(i) * 4 * 250, Y: 0}
	}

	res := &OverloadResult{Peers: len(f.parts), ShedByReason: make(map[string]int), MinRecall: 1}
	var (
		resMu   sync.Mutex
		wg      sync.WaitGroup
		lats    []time.Duration
		recalls []float64
	)
	interval := time.Duration(float64(time.Second) / cfg.OfferedQPS)
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sent := 0
	for now := start; !now.After(start.Add(cfg.Wall)); {
		// Liveness-aware oracle snapshot at issue time.
		_, _, union := f.snapshot(entry)

		req := gateway.Request{
			Pos:      regions[sent%len(regions)],
			D:        cfg.D,
			Deadline: time.Now().Add(cfg.ReqDeadline),
		}
		if cfg.SF {
			req.Strategy = gateway.SF
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			r, err := g.Do(req)
			lat := time.Since(t0)
			resMu.Lock()
			defer resMu.Unlock()
			switch {
			case err == nil:
				res.Accepted++
				lats = append(lats, lat)
				switch r.Source {
				case gateway.SourceCoalesced:
					res.Coalesced++
				case gateway.SourceCache:
					res.Cached++
				}
				truth := skyline.Constrained(union, f.positions[entry], d)
				recall, _ := skyline.Score(truth, r.Skyline)
				recalls = append(recalls, recall)
				if recall < res.MinRecall {
					res.MinRecall = recall
				}
			case errors.Is(err, gateway.ErrShedded):
				res.Shedded++
				var se *gateway.SheddedError
				if errors.As(err, &se) {
					res.ShedByReason[wire.RejectCodeName(se.Code)]++
				}
			case err != nil && !errors.Is(err, gateway.ErrGatewayClosed):
				res.BackendErrors++
			default:
				res.Unexplained++
			}
		}()
		now = <-ticker.C
	}
	res.Sent = sent
	wg.Wait()

	sum := 0.0
	for _, r := range recalls {
		sum += r
	}
	if len(recalls) > 0 {
		res.MeanRecall = sum / float64(len(recalls))
	} else {
		res.MeanRecall = 1
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	res.P50, res.P95, res.P99 = q(0.50), q(0.95), q(0.99)
	return res, nil
}
