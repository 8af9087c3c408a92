package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// unit is one timed call into the program: a simulated scenario, a static
// query, a stretch of live queries. Every block times the same units in the
// same order.
type unit struct {
	// ops is the number of operations the call attempted.
	ops int
	// wall and cpu are the seconds of wall-clock and of process CPU time
	// (user plus system) the call took.
	wall, cpu float64
	// latMs holds the host-time latency of each operation the call timed on
	// its own, in milliseconds. It is empty when the operations ran
	// interleaved inside the call, as simulated queries do.
	latMs []float64
}

// blockResult is what one block reports to the harness. A block checks its
// outputs outside its units' timed calls.
type blockResult struct {
	units []unit
	// failed counts the operations that did not produce their result.
	failed int
	// airBytes is the number of bytes the program reports having put on
	// the (simulated or loopback) air during the block.
	airBytes float64
	// counts holds layer counters summed over the block, before any
	// per-query division.
	counts map[string]float64
}

// timeUnit runs f as the block's next unit and returns it for the caller to
// add latency samples to.
func (r *blockResult) timeUnit(ops int, f func()) *unit {
	cpu0, t0 := cpuSeconds(), time.Now()
	f()
	wall := time.Since(t0).Seconds()
	r.units = append(r.units, unit{ops: ops, wall: wall, cpu: cpuSeconds() - cpu0})
	return &r.units[len(r.units)-1]
}

func (r blockResult) ops() (n int) {
	for _, u := range r.units {
		n += u.ops
	}
	return n
}

// fastest returns, for every unit, its fastest execution over the blocks.
// The blocks repeat identical work, and whatever else the machine is doing
// can only add to a unit's time, never take from it; on the sizing box the
// same simulated scenario took anything from 1.04 s to 1.99 s depending on
// the moment, in bursts of several seconds that a median over a handful of
// blocks does not escape.
func fastest(blocks []blockResult) []unit {
	best := append([]unit(nil), blocks[0].units...)
	for _, b := range blocks[1:] {
		for i, u := range b.units {
			if u.wall < best[i].wall {
				best[i] = u
			}
		}
	}
	return best
}

// throughput is operations per second over a list of units.
func throughput(units []unit) float64 {
	var ops, wall float64
	for _, u := range units {
		ops += float64(u.ops)
		wall += u.wall
	}
	return ops / wall
}

// runner is one workload bound to a seed.
type runner interface {
	// setup does everything that precedes the timed section: it makes the
	// inputs from the seed, builds what the blocks run against, checks the
	// program's output against the centralized oracle and warms up. Each
	// call discards what the previous call built.
	setup() error
	// block runs the fixed work once; traced turns the program's own
	// tracing on for that block.
	block(traced bool) (blockResult, error)
	// layers adds the workload's own per-layer metrics to layer, which
	// already holds the probe results, from the paired untraced and traced
	// blocks of a traced run.
	layers(plain, traced []blockResult, layer map[string]float64)
	close()
}

// workload is a runner factory with its sizing.
type workload struct {
	name string
	// nominalBlock is how long one block takes on the 2-core sizing box,
	// in seconds; --seconds divided by it fixes the number of blocks.
	nominalBlock float64
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// new binds the workload to a seed; rec is nil on an untraced run.
	new func(seed int64, smoke bool, rec *spanRecorder) runner
}

// blocks returns how many blocks a run of the given length executes: at
// least three, so that every unit has three chances of an undisturbed
// execution.
func (w workload) blocks(seconds float64) int {
	return max(3, int(math.Round(seconds/w.nominalBlock)))
}

// call runs f on a goroutine of its own and waits for it. Every call into
// the single-threaded tiers goes through it, so that the program's frames
// always sit at the same distance from the top of a fresh stack. The
// device-local engine's speed depends on where its frames lie: padding this
// benchmark's own runUntraced frame by 320 bytes, nothing else changed,
// moved core.RunStatic in the set-up path from 0.39 s to 0.13 s per query,
// while the same calls from a block ran at 0.13 s either way. Without this,
// any edit to the benchmark would move the numbers.
func call(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// --- statistics --------------------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of a non-empty sample; an even count averages the middle pair.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of a non-empty sample.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(v,
// n=4) gives (the exclusive method), which is what the driver computes.
func quartileSpread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// sumCounts adds up the layer counts of several blocks.
func sumCounts(blocks []blockResult) map[string]float64 {
	sum := map[string]float64{}
	for _, b := range blocks {
		for k, v := range b.counts {
			sum[k] += v
		}
	}
	return sum
}

// traceOverhead is the share of throughput tracing costs, fastest traced
// executions against fastest untraced ones.
func traceOverhead(plain, traced []blockResult) float64 {
	return 1 - throughput(fastest(traced))/throughput(fastest(plain))
}

// --- environment header ------------------------------------------------------

// header describes where the numbers were taken.
func header() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				_, cpu, _ = strings.Cut(line, ": ")
				break
			}
		}
	}
	return fmt.Sprintf("# commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q, load1 %s",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, load1())
}

// load1 is the one-minute load average.
func load1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	first, _, _ := strings.Cut(string(data), " ")
	return first
}
