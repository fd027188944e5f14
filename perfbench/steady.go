package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each selected workload runs times in child processes,
// seeds seed..seed+runs-1, and prints per end-to-end metric the median,
// the quartiles (as Python's statistics.quantiles computes them) and the
// spread (q3-q1)/median against the metric's bound. The spread should stay
// below a third of the bound; setup_s is judged by its median only.
func steadiness(workload string, seed int64, seconds, runs int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		if workload == "" || workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		shares := map[string]int{}
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			res, err := runChild(self, name, s, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", name, s, err)
				return 2
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: outputs incorrect\n", name, s)
				status = 1
			}
			shares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)]++
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", name, s, res.Metrics)
		}
		fmt.Printf("workload %s: %d runs, failed/attempted %v\n", name, runs, failedShares(shares))
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "spread/bound")
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := (q3 - q1) / med
			verdict := ""
			if m.Name != "setup_s" && spread > m.Bound/3 {
				verdict = "  above a third of the bound"
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f %6.2f%s\n", m.Name, med, q1, q3, spread, m.Bound, spread/m.Bound, verdict)
		}
	}
	return status
}

// failedShares lists the distinct failed/attempted ratios seen, as exact
// fractions in lowest terms.
func failedShares(counts map[string]int) []string {
	seen := map[string]bool{}
	for k := range counts {
		var f, a int64
		if _, err := fmt.Sscanf(k, "%d/%d", &f, &a); err != nil || a == 0 {
			continue
		}
		g := gcd(f, a)
		seen[strconv.FormatInt(f/g, 10)+"/"+strconv.FormatInt(a/g, 10)] = true
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// runChild runs the benchmark once in a child process, as a fresh process
// per run, and parses the last line of its standard output.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("result line %q: %v", last, err)
	}
	return &res, nil
}
