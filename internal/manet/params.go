// Package manet assembles the full simulated system of §5.2: mobile devices
// holding grid-partitioned local relations in hybrid storage, moving under
// random waypoint, communicating over a unit-disk radio with AODV routing,
// and processing distributed constrained skyline queries with either
// breadth-first or depth-first forwarding. Local processing consumes
// simulated time according to the handheld cost model, reproducing the
// paper's methodology of adding estimated device costs to simulated
// communication delays (§5.2.3).
package manet

import (
	"fmt"
	"math"

	"manetskyline/internal/aodv"
	"manetskyline/internal/core"
	"manetskyline/internal/device"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/telemetry"
)

// Forwarding selects the query dissemination strategy of §5.2.1: BF, DF or
// SF, as core.Strategy defines them.
type Forwarding = core.Strategy

// The strategies, under the names the simulator's callers use.
const (
	BreadthFirst   = core.BreadthFirst
	DepthFirst     = core.DepthFirst
	SamplingFilter = core.SamplingFilter
)

// Params configures one simulated scenario.
type Params struct {
	// Grid is g: the spatial domain is partitioned into g×g cells, one
	// device per cell (m = g²).
	Grid int
	// GlobalN is the cardinality of the global relation.
	GlobalN int
	// Dim is the number of non-spatial attributes.
	Dim int
	// Dist is the attribute distribution.
	Dist gen.Distribution
	// Space is the side of the square spatial domain (1000 in the paper).
	Space float64
	// Overlap optionally duplicates a fraction of tuples into a
	// neighbouring cell, exercising duplicate elimination.
	Overlap float64

	// QueryDist is the distance of interest d (100/250/500 in the paper).
	QueryDist float64
	// Mode is the dominating-region estimation; the paper's simulations
	// use under-estimation (§5.2.2-II).
	Mode core.Estimation
	// OverFactor configures Over estimation (0 ⇒ default).
	OverFactor float64
	// Dynamic enables hop-by-hop filter updates (the paper's simulations
	// always update "if possible").
	Dynamic bool
	// NumFilters attaches k filtering tuples per query (§7 multi-filter
	// extension); 0 and 1 mean the paper's single filter.
	NumFilters int
	// Strategy selects BF, DF, or SF forwarding.
	Strategy Forwarding

	// FilterK is the SF filter-set size: how many high-pruning-power tuples
	// the originator selects from the collected sample and broadcasts in
	// the collect phase (0 ⇒ 2). Only the SamplingFilter strategy reads
	// it. The default is deliberately small: every extra filter rides the
	// full flood, costing 8·dim bytes per reception, while its marginal
	// pruning gain fades fast — on dense networks large k loses more on
	// the flood than it saves on survivors.
	FilterK int
	// SampleK is how many local-skyline tuples each device volunteers
	// during the SF sampling round (0 ⇒ 2).
	SampleK int
	// SampleTTL is the hop budget of the SF sampling broadcast (0 ⇒ 1):
	// how far the sample request travels before the filter flood takes
	// over query dissemination. One hop samples the originator's
	// neighbourhood, which is enough to pick filters from while keeping
	// the sampling round off the flood budget.
	SampleTTL int
	// SampleWait is how long (simulated seconds) the SF originator collects
	// samples before selecting the filter set and flooding it (0 ⇒ 30).
	SampleWait float64

	// SimTime is the simulated duration in seconds (2 h in the paper).
	SimTime float64
	// MinQueries and MaxQueries bound how many queries each device issues
	// at random times (1-5 in the paper).
	MinQueries, MaxQueries int
	// BFQuorum is the fraction of other devices whose results define BF
	// response time (0.8 in the paper).
	BFQuorum float64
	// AckTimeout is how long a DF device waits for a neighbour to
	// acknowledge a forwarded query before trying the next neighbour.
	AckTimeout float64
	// SubtreeTimeout is how long a DF device waits for an accepted child's
	// subtree result before giving up on it.
	SubtreeTimeout float64

	// QueryRetries enables graceful degradation under loss: an originator
	// whose query has not completed re-issues it up to this many times (BF
	// re-floods the query; DF restarts the traversal over the untried
	// neighbourhood), with capped exponential backoff. 0 disables retries —
	// the paper's fire-and-forget behaviour.
	QueryRetries int
	// RetryBackoff is the delay before the first re-issue; each further
	// attempt doubles it up to RetryBackoffMax.
	RetryBackoff float64
	// RetryBackoffMax caps the exponential backoff (0 ⇒ uncapped).
	RetryBackoffMax float64
	// QueryDeadline, when positive, finalizes any still-open query that
	// many simulated seconds after issue: the originator keeps whatever it
	// merged so far and the query is flagged Partial. 0 keeps queries open
	// until their normal completion condition (or simulation end).
	QueryDeadline float64

	// Faults attaches a scripted fault schedule (internal/faults) to the
	// run: timed link/region loss, node outage churn, partitions, and frame
	// duplication/reordering, all injected deterministically. nil (or an
	// empty plan) leaves the run byte-identical to a fault-free one.
	Faults *faults.Plan
	// Recall enables the centralized-oracle accounting layer: after the
	// run, every query's result is compared against the constrained skyline
	// of the union of all device relations, and per-query recall/precision
	// land in QueryMetrics, Outcome aggregates, and telemetry spans.
	// Implies KeepSkylines.
	Recall bool

	// Radio, Mobility, Aodv, and Cost configure the substrates.
	Radio    radio.Config
	Mobility mobility.Config
	Aodv     aodv.Config
	Cost     device.CostModel

	// Redistribute enables the paper's §7 future-work extension: devices
	// that drift away from the region their data describes periodically
	// hand their relation to a device currently closer to that region, so
	// spatially constrained queries keep finding the relevant data within
	// few network hops despite mobility.
	Redistribute bool
	// RedistributePeriod is the hand-off check interval in seconds
	// (0 ⇒ 600).
	RedistributePeriod float64

	// originators, when positive, restricts query issuance to the first
	// originators devices instead of all of them, so the scale preset
	// measures per-query cost at 30k+ devices without scheduling 30k
	// simultaneous floods; 0 keeps the paper's every-device-issues
	// behavior and its RNG draw order. Only ScaleParams sets it.
	originators int
	// scalePath switches on the rest of the scale preset's machinery. It
	// swaps per-device Waypoint trajectories for the struct-of-arrays
	// mobility.Field (~88 B/node instead of ~5 KB/node; statistically
	// equivalent trajectories, but not bit-compatible with Waypoint). And
	// it piggybacks reverse-route installation on BF query floods: every
	// device that hears the flood learns a route toward the originator
	// (the RREQ trick applied to application broadcasts), so result
	// returns skip AODV discovery; at 30k devices that is the difference
	// between one flood and one flood plus ~30k RREQ storms, for 8 more
	// bytes per flood frame. Only ScaleParams sets it.
	scalePath bool

	// Static disables movement entirely (devices stay at their starting
	// points); used by correctness tests.
	Static bool
	// KeepSkylines retains each query's final merged skyline in the
	// metrics, for verification.
	KeepSkylines bool

	// Metrics, when non-nil, receives counters from every layer of the
	// stack. The devices' core_* metrics are live; the radio_*, aodv_* and
	// manet_* totals are added when Run returns, from the per-run counts
	// the Outcome carries. Instrumentation never disturbs the simulation's
	// randomness, so runs are bit-identical with and without it.
	Metrics *telemetry.Registry
	// Spans, when non-nil, collects per-query issue→process→result
	// timelines (see telemetry.SpanLog); Outcome.Spans exposes them.
	Spans *telemetry.SpanLog

	// Seed drives all randomness.
	Seed int64
}

// DefaultParams returns a scenario matching the paper's Tables 6 and 7 at a
// moderate scale: 5×5 devices, 50K tuples, 2 attributes, independent data,
// d = 250, under-estimated dynamic filtering, BF forwarding, 2 simulated
// hours.
func DefaultParams() Params {
	return Params{
		Grid:    5,
		GlobalN: 50000,
		Dim:     2,
		Dist:    gen.Independent,
		Space:   1000,

		QueryDist: 250,
		Mode:      core.Under,
		Dynamic:   true,
		Strategy:  BreadthFirst,

		SimTime:        7200,
		MinQueries:     1,
		MaxQueries:     5,
		BFQuorum:       0.8,
		AckTimeout:     5,
		SubtreeTimeout: 300,

		// Retry/deadline defaults are tuned but disabled (QueryRetries=0,
		// QueryDeadline=0) so default runs match the paper's protocol.
		RetryBackoff:    15,
		RetryBackoffMax: 120,

		Radio:    radio.DefaultConfig(),
		Mobility: mobility.DefaultConfig(),
		Aodv:     aodv.DefaultConfig(),
		Cost:     device.Handheld200MHz(),

		Seed: 1,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Grid <= 0 {
		return fmt.Errorf("manet: non-positive grid %d", p.Grid)
	}
	if p.GlobalN < 0 || p.Dim <= 0 {
		return fmt.Errorf("manet: bad dataset shape n=%d dim=%d", p.GlobalN, p.Dim)
	}
	if p.Space <= 0 {
		return fmt.Errorf("manet: non-positive space %g", p.Space)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SimTime", p.SimTime}, {"SampleWait", p.SampleWait},
		{"AckTimeout", p.AckTimeout}, {"SubtreeTimeout", p.SubtreeTimeout},
		{"RetryBackoff", p.RetryBackoff}, {"RetryBackoffMax", p.RetryBackoffMax},
		{"QueryDeadline", p.QueryDeadline}, {"RedistributePeriod", p.RedistributePeriod},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("manet: non-finite %s %g", f.name, f.v)
		}
	}
	if p.SimTime <= 0 {
		return fmt.Errorf("manet: non-positive sim time %g", p.SimTime)
	}
	if p.MinQueries < 0 || p.MaxQueries < p.MinQueries {
		return fmt.Errorf("manet: bad query count range [%d,%d]", p.MinQueries, p.MaxQueries)
	}
	if p.BFQuorum <= 0 || p.BFQuorum > 1 {
		return fmt.Errorf("manet: BF quorum %g outside (0,1]", p.BFQuorum)
	}
	if p.AckTimeout <= 0 || p.SubtreeTimeout <= 0 {
		return fmt.Errorf("manet: non-positive DF timeouts")
	}
	if p.Strategy != BreadthFirst && p.Strategy != DepthFirst && p.Strategy != SamplingFilter {
		return fmt.Errorf("manet: unknown forwarding strategy %d", int(p.Strategy))
	}
	if p.FilterK < 0 || p.SampleK < 0 || p.SampleTTL < 0 || p.SampleWait < 0 {
		return fmt.Errorf("manet: negative SF tuning field")
	}
	if p.QueryRetries < 0 {
		return fmt.Errorf("manet: negative query retries %d", p.QueryRetries)
	}
	if p.QueryRetries > 0 && p.RetryBackoff <= 0 {
		return fmt.Errorf("manet: retries enabled with non-positive backoff %g", p.RetryBackoff)
	}
	if p.QueryDeadline < 0 {
		return fmt.Errorf("manet: negative query deadline %g", p.QueryDeadline)
	}
	if p.originators < 0 || p.originators > p.NumDevices() {
		return fmt.Errorf("manet: originators %d outside [0,%d]", p.originators, p.NumDevices())
	}
	if err := p.Faults.Validate(p.NumDevices()); err != nil {
		return err
	}
	if err := p.Radio.Validate(); err != nil {
		return err
	}
	if err := p.Aodv.Validate(); err != nil {
		return err
	}
	if err := p.Cost.Validate(); err != nil {
		return err
	}
	if !p.Static {
		if err := p.Mobility.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NumDevices returns m = Grid².
func (p Params) NumDevices() int { return p.Grid * p.Grid }

// filterK, sampleK, sampleTTL, and sampleWait return the SF knobs with
// their defaults applied.
func (p Params) filterK() int {
	if p.FilterK > 0 {
		return p.FilterK
	}
	return 2
}

func (p Params) sampleTTL() int {
	if p.SampleTTL > 0 {
		return p.SampleTTL
	}
	return 1
}

func (p Params) sampleK() int {
	if p.SampleK > 0 {
		return p.SampleK
	}
	return 2
}

func (p Params) sampleWait() float64 {
	if p.SampleWait > 0 {
		return p.SampleWait
	}
	return 30
}

// retryDelay is the capped exponential backoff before re-issue number
// attempt+1 (attempt is 0-based).
func (p Params) retryDelay(attempt int) float64 {
	d := p.RetryBackoff
	for i := 0; i < attempt && (p.RetryBackoffMax <= 0 || d < p.RetryBackoffMax); i++ {
		d *= 2
	}
	if p.RetryBackoffMax > 0 && d > p.RetryBackoffMax {
		d = p.RetryBackoffMax
	}
	return d
}
