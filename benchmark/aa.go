package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// suiteResult is one workload's result line from a suite run.
type suiteResult struct {
	workload string
	result
}

// runSuite runs every workload, each in a fresh child process so that no
// workload inherits another's heap or peak RSS.
func runSuite(opt options, out io.Writer) ([]suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []suiteResult
	for _, w := range registry {
		trace, scale := "0", "full"
		if opt.traced {
			trace = "1"
		}
		if opt.smoke {
			scale = "smoke"
		}
		args := []string{"--workload", w.name, "--trace", trace, "--scale", scale,
			"--seed", strconv.FormatInt(opt.seed, 10),
			"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"--tracedir", opt.traceDir}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if _, werr := out.Write(stdout); werr != nil {
			return nil, werr
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		res := suiteResult{workload: w.name}
		if err := json.Unmarshal(lines[len(lines)-1], &res.result); err != nil {
			return nil, fmt.Errorf("workload %s: result line: %w", w.name, err)
		}
		all = append(all, res)
	}
	return all, nil
}

// selfCheck is the A/A test the bounds rest on: two sets of n untraced suite
// runs over the same n seeds. For every workload and end-to-end metric it
// prints both medians, how far apart they are, the metric's bound and the
// quartile spread of the first set as the driver computes it, and it fails
// when two medians differ by more than the bound or a count that must
// repeat exactly does not.
func selfCheck(n int, opt options, out io.Writer) error {
	opt.traced = false
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = map[key][]float64{}
		for i := 0; i < n; i++ {
			o := opt
			o.seed = opt.seed + int64(i)
			fmt.Fprintf(out, "## set %d run %d (seed %d)\n", s+1, i+1, o.seed)
			results, err := runSuite(o, out)
			if err != nil {
				return err
			}
			for _, r := range results {
				if r.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", r.workload, o.seed, r.Failed, r.Attempted)
				}
				for name, v := range r.Metrics {
					k := key{r.workload, name}
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
	}
	fmt.Fprintf(out, "\n%-12s %-17s %14s %14s %8s %6s %8s\n", "workload", "metric", "median A", "median B", "|B-A|/A", "bound", "spread A")
	bad := 0
	for _, w := range registry {
		for _, m := range endToEnd {
			k := key{w.name, m.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if diff < 0 {
				diff = -diff
			}
			spread := "-"
			if n >= 2 {
				spread = fmt.Sprintf("%.4f", quartileSpread(a))
			}
			verdict := ""
			if diff > *m.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			if exactRepeat[[2]string{w.name, m.Name}] {
				for i := range a {
					if a[i] != b[i] {
						verdict += fmt.Sprintf("  NOT EXACT (seed %d: %v then %v)", opt.seed+int64(i), a[i], b[i])
						bad++
						break
					}
				}
			}
			fmt.Fprintf(out, "%-12s %-17s %14.6g %14.6g %8.4f %6.2f %8s%s\n", w.name, m.Name, ma, mb, diff, *m.Bound, spread, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload/metric pairs disagree between two sets of runs of the same code", bad)
	}
	return nil
}
