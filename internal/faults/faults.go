// Package faults provides scriptable, seed-deterministic fault injection:
// timed per-link and per-region loss windows, node outage churn (crash,
// pause, reboot), network partitions, and frame duplication/reordering. A
// Plan declares the schedule; one evaluator, Eval, applies it on both
// tiers. The simulator's radio medium consults it through its fault hooks,
// without touching the medium's own random stream, so fault-free runs stay
// byte-identical to their goldens and fault runs are bit-deterministic for
// a given (plan, seed) pair. The live chaos proxies (internal/chaos) ask
// the same evaluator the same questions on a wall clock mapped onto plan
// time.
//
// The design follows the graceful-degradation framing of distributed
// skyline monitoring over mobile things: the question is never only "does
// the protocol survive?" but "how much of the true skyline does a degraded
// run still return?" — skyline.Score answers it against these schedules on
// both tiers.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
)

// Window bounds a fault in simulated time: active on [Start, End). An End
// of zero (or negative) means the fault never ends — the idiom for a crash
// that is not followed by a reboot.
type Window struct {
	Start float64 `json:"start"`
	End   float64 `json:"end,omitempty"`
}

// Active reports whether the window covers time now.
func (w Window) Active(now float64) bool {
	return now >= w.Start && (w.End <= 0 || now < w.End)
}

// validate checks window sanity (an open end is allowed).
func (w Window) validate(what string) error {
	if w.Start < 0 {
		return fmt.Errorf("faults: %s starts at negative time %g", what, w.Start)
	}
	if w.End > 0 && w.End <= w.Start {
		return fmt.Errorf("faults: %s window [%g,%g) is empty", what, w.Start, w.End)
	}
	return nil
}

// LinkLoss drops frames on one directed link (or both directions) with the
// given probability while the window is active. Prob 1 severs the link.
type LinkLoss struct {
	Window
	From          int     `json:"from"`
	To            int     `json:"to"`
	Bidirectional bool    `json:"bidirectional,omitempty"`
	Prob          float64 `json:"prob"`
}

// RegionLoss drops frames whose sender or receiver stands inside the
// rectangle with the given probability while the window is active — a
// jammed or congested area of the field.
type RegionLoss struct {
	Window
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
	Prob float64 `json:"prob"`
}

// contains reports whether (x, y) lies inside the region.
func (r RegionLoss) contains(x, y float64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Outage silences one node for the window: it neither transmits nor
// receives. An open-ended window is a crash; a bounded one is a pause
// followed by a reboot (protocol state survives, as on a real device whose
// radio was off).
type Outage struct {
	Window
	Node int `json:"node"`
}

// Partition splits the network for the window: frames between nodes in
// different groups are dropped. Nodes not listed in any group share one
// implicit extra group.
type Partition struct {
	Window
	Groups [][]int `json:"groups"`
}

// Chaos perturbs frame delivery while active: with probability Prob per
// transmission, Duplicate schedules up to MaxExtra extra copies and Reorder
// postpones delivery by up to MaxDelay seconds (letting later frames
// overtake).
type Chaos struct {
	Window
	Prob     float64 `json:"prob"`
	MaxExtra int     `json:"max_extra,omitempty"`
	MaxDelay float64 `json:"max_delay,omitempty"`
}

// maxCopies bounds Chaos.MaxExtra: 802.11's default short retry limit, the
// most copies a link layer makes of one frame.
const maxCopies = 7

// validate checks one duplicate or reorder window, named what in errors.
func (c Chaos) validate(what string) error {
	if err := c.Window.validate(what); err != nil {
		return err
	}
	if c.Prob <= 0 || c.Prob > 1 {
		return fmt.Errorf("faults: %s probability %g outside (0,1]", what, c.Prob)
	}
	if c.MaxExtra < 0 || c.MaxExtra > maxCopies {
		return fmt.Errorf("faults: %s max_extra %d outside [0,%d]", what, c.MaxExtra, maxCopies)
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("faults: %s negative max delay %g", what, c.MaxDelay)
	}
	return nil
}

// Plan is one named, serializable fault schedule.
type Plan struct {
	Name string `json:"name,omitempty"`
	// Seed drives the evaluator's private random stream; zero means the
	// seed NewEval is given, which the simulator derives from the scenario
	// seed, so the same plan under different scenario seeds draws
	// different (but still reproducible) loss patterns.
	Seed       int64        `json:"seed,omitempty"`
	LinkLoss   []LinkLoss   `json:"link_loss,omitempty"`
	RegionLoss []RegionLoss `json:"region_loss,omitempty"`
	Outages    []Outage     `json:"outages,omitempty"`
	Partitions []Partition  `json:"partitions,omitempty"`
	Duplicate  []Chaos      `json:"duplicate,omitempty"`
	Reorder    []Chaos      `json:"reorder,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || len(p.LinkLoss) == 0 && len(p.RegionLoss) == 0 &&
		len(p.Outages) == 0 && len(p.Partitions) == 0 &&
		len(p.Duplicate) == 0 && len(p.Reorder) == 0
}

// Validate checks the plan against a network of numNodes nodes; pass a
// negative count to skip node-bound checks.
func (p *Plan) Validate(numNodes int) error {
	if p == nil {
		return nil
	}
	checkNode := func(n int, what string) error {
		if n < 0 || (numNodes >= 0 && n >= numNodes) {
			return fmt.Errorf("faults: %s references node %d outside [0,%d)", what, n, numNodes)
		}
		return nil
	}
	for i, l := range p.LinkLoss {
		if err := l.validate("link_loss"); err != nil {
			return err
		}
		if err := checkNode(l.From, "link_loss"); err != nil {
			return err
		}
		if err := checkNode(l.To, "link_loss"); err != nil {
			return err
		}
		if l.Prob <= 0 || l.Prob > 1 {
			return fmt.Errorf("faults: link_loss[%d] probability %g outside (0,1]", i, l.Prob)
		}
	}
	for i, r := range p.RegionLoss {
		if err := r.validate("region_loss"); err != nil {
			return err
		}
		if r.MinX > r.MaxX || r.MinY > r.MaxY {
			return fmt.Errorf("faults: region_loss[%d] rectangle is inverted", i)
		}
		if r.Prob <= 0 || r.Prob > 1 {
			return fmt.Errorf("faults: region_loss[%d] probability %g outside (0,1]", i, r.Prob)
		}
	}
	for _, o := range p.Outages {
		if err := o.validate("outage"); err != nil {
			return err
		}
		if err := checkNode(o.Node, "outage"); err != nil {
			return err
		}
	}
	for i, pt := range p.Partitions {
		if err := pt.validate("partition"); err != nil {
			return err
		}
		if len(pt.Groups) < 1 {
			return fmt.Errorf("faults: partition[%d] has no groups", i)
		}
		seen := map[int]bool{}
		for _, g := range pt.Groups {
			for _, n := range g {
				if err := checkNode(n, "partition"); err != nil {
					return err
				}
				if seen[n] {
					return fmt.Errorf("faults: partition[%d] lists node %d twice", i, n)
				}
				seen[n] = true
			}
		}
	}
	for i, c := range p.Duplicate {
		if err := c.validate(fmt.Sprintf("duplicate[%d]", i)); err != nil {
			return err
		}
	}
	for i, c := range p.Reorder {
		if err := c.validate(fmt.Sprintf("reorder[%d]", i)); err != nil {
			return err
		}
	}
	return nil
}

// ParseJSON decodes a plan from JSON bytes.
func ParseJSON(b []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("faults: bad plan JSON: %w", err)
	}
	return &p, nil
}

// ReadFile loads a plan from a JSON file.
func ReadFile(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseJSON(b)
}
