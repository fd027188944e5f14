package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/service"
)

// opKind is what one serving operation does.
type opKind byte

const (
	opPredict opKind = iota
	opIngest
	opMalformed
)

// op is one client operation as the client saw it.
type op struct {
	kind   opKind
	idx    int        // request-pool index of a predict; -1 for a graph sent once
	a      *acfg.ACFG // the graph a serve-mixed predict or upload sent
	label  int        // its ground-truth family
	lat    time.Duration
	status int
	body   []byte
	cache  string
	err    error
	traced bool
	span   uint64    // client span ID when traced
	done   time.Time // when the reply had been read
}

// client is one closed-loop caller: it sends its next request only after
// the previous reply arrived.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
}

func (c *client) send(path string, body []byte, traced bool) op {
	var s span
	header := ""
	if traced {
		s = span{ID: c.tr.newID(), Name: "client", Start: c.tr.now()}
		s.Req = s.ID
		header = formatTraceHeader(traceCtx{req: s.ID, span: s.ID})
	}
	t0 := time.Now()
	status, reply, cache, err := post(c.hc, c.url+path, body, header)
	done := time.Now()
	o := op{lat: done.Sub(t0), done: done, status: status, body: reply, cache: cache, err: err, traced: traced}
	if traced {
		s.End = c.tr.now()
		c.tr.record(s)
		o.span = s.ID
	}
	return o
}

// phase is the outcome of one closed-loop measurement phase.
type phase struct {
	ops      []op
	start    time.Time
	deadline time.Time
	elapsed  time.Duration // until the last round ended
	allocB   uint64
}

// throughput is the median over the phase's whole one-second windows of
// the operations completed in each. A median, unlike ops / elapsed, does
// not move when a few seconds of the run lose the CPU to something else.
func (p phase) throughput() float64 {
	windows := int(p.deadline.Sub(p.start) / time.Second)
	if windows < 1 {
		return float64(len(p.ops)) / p.elapsed.Seconds()
	}
	counts := make([]float64, windows)
	for _, o := range p.ops {
		if w := int(o.done.Sub(p.start) / time.Second); w < windows {
			counts[w]++
		}
	}
	return median(counts)
}

// runPhase starts one goroutine per client; each runs at least one round
// and then whole rounds until the deadline has passed, so every run
// attempts whole rounds of the same operation mix. round(c, n) performs
// client c's n-th round.
func runPhase(clients int, d time.Duration, round func(c, n int) []op) phase {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				per[c] = append(per[c], round(c, n)...)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var ops []op
	for _, p := range per {
		ops = append(ops, p...)
	}
	return phase{ops: ops, start: start, deadline: deadline, elapsed: elapsed, allocB: after.TotalAlloc - before.TotalAlloc}
}

// probTolerance bounds how far a served probability may sit from the
// benchmark's own serial Model.Predict on the same input.
const probTolerance = 1e-9

// checkPrediction verifies one 200 reply: a probability distribution
// (non-negative, summing to 1, sorted, top family first) equal to want,
// the benchmark's own serial prediction. It returns the top family.
func checkPrediction(body []byte, famIndex map[string]int, want []float64) (string, error) {
	var res service.PredictResult
	if err := json.Unmarshal(body, &res); err != nil {
		return "", fmt.Errorf("decode reply: %v", err)
	}
	if len(res.Predictions) != len(want) {
		return "", fmt.Errorf("%d predictions, want %d", len(res.Predictions), len(want))
	}
	sum := 0.0
	seen := make([]bool, len(want))
	for i, p := range res.Predictions {
		if !(p.Probability >= 0) {
			return "", fmt.Errorf("probability %v for %s", p.Probability, p.Family)
		}
		if i > 0 && p.Probability > res.Predictions[i-1].Probability {
			return "", fmt.Errorf("predictions not sorted at %d", i)
		}
		j, ok := famIndex[p.Family]
		if !ok || seen[j] {
			return "", fmt.Errorf("unknown or repeated family %q", p.Family)
		}
		seen[j] = true
		if math.Abs(p.Probability-want[j]) > probTolerance {
			return "", fmt.Errorf("%s: served %v, serial Predict %v", p.Family, p.Probability, want[j])
		}
		sum += p.Probability
	}
	if math.Abs(sum-1) > probTolerance {
		return "", fmt.Errorf("probabilities sum to %v", sum)
	}
	if res.Family != res.Predictions[0].Family {
		return "", fmt.Errorf("family %q is not the top prediction %q", res.Family, res.Predictions[0].Family)
	}
	best := 0.0
	for _, p := range want {
		best = math.Max(best, p)
	}
	if want[famIndex[res.Family]] < best-probTolerance {
		return "", fmt.Errorf("top family %q is not the argmax", res.Family)
	}
	return res.Family, nil
}

func indexOf(families []string) map[string]int {
	m := make(map[string]int, len(families))
	for i, f := range families {
		m[f] = i
	}
	return m
}

// latencies returns the latencies in ms of the ops keep accepts.
func latencies(ops []op, keep func(op) bool) []float64 {
	var out []float64
	for _, o := range ops {
		if keep(o) {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// okPredict accepts predicts answered with 200.
func okPredict(o op) bool { return o.kind == opPredict && o.err == nil && o.status == http.StatusOK }

// tracingOverhead is the traced minus the untraced median predict latency
// of a traced run, whose rounds alternate between the two.
func tracingOverhead(ops []op) float64 {
	traced := latencies(ops, func(o op) bool { return okPredict(o) && o.traced })
	untraced := latencies(ops, func(o op) bool { return okPredict(o) && !o.traced })
	return median(traced) - median(untraced)
}

// spanStats holds the HTTP layer figures of a traced phase: gateway self
// time on predicts, the gateway → backend hop minus the backend span,
// backend handler spans, and the share of client latency the server-side
// spans account for on predicts that reached a backend.
type spanStats struct {
	gatewaySelf, hop, predict, ingest []float64 // ms
	share                             []float64
	backendPredict                    map[uint64]span // client span ID → backend predict span
}

func analyseSpans(spans []span) *spanStats {
	tree := newSpanTree(spans)
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	st := &spanStats{backendPredict: map[uint64]span{}}
	for _, s := range spans {
		switch s.Name {
		case "gateway.predict":
			st.gatewaySelf = append(st.gatewaySelf, ms(tree.selfTime(s)))
			client, ok := byID[s.Parent]
			if !ok || len(tree.children[s.ID]) == 0 {
				continue
			}
			sum := tree.selfTime(s)
			for _, hop := range tree.children[s.ID] {
				sum += hop.dur() // hop self + backend span
			}
			st.share = append(st.share, float64(sum)/float64(client.dur()))
		case "gateway.hop":
			st.hop = append(st.hop, ms(tree.selfTime(s)))
		case "service.predict":
			st.predict = append(st.predict, ms(s.dur()))
			st.backendPredict[s.Req] = s
		case "service.ingest":
			st.ingest = append(st.ingest, ms(s.dur()))
		}
	}
	return st
}

// requestBody is the backend's sample wire form, as the benchmark decodes
// it when re-timing a request's decode stage.
type requestBody struct {
	Family string     `json:"family,omitempty"`
	ASM    string     `json:"asm,omitempty"`
	ACFG   *acfg.ACFG `json:"acfg,omitempty"`
	Name   string     `json:"name,omitempty"`
}

// queueWait derives each traced backend predict's admission-queue wait:
// its span minus the decode, extract and inference work of the same
// payload, re-timed here one request at a time at the serving worker
// count. At most limit requests are re-timed.
func queueWait(ops []op, body func(op) []byte, st *spanStats, m *core.Model, limit int) ([]float64, error) {
	var out []float64
	for _, o := range ops {
		s, ok := st.backendPredict[o.span]
		if !o.traced || o.kind != opPredict || !ok {
			continue
		}
		if len(out) == limit {
			break
		}
		t0 := time.Now()
		var rb requestBody
		if err := json.Unmarshal(body(o), &rb); err != nil {
			return nil, err
		}
		a := rb.ACFG
		if rb.ASM != "" {
			var err error
			if a, err = extractASM(rb.ASM); err != nil {
				return nil, err
			}
		}
		if _, err := m.PredictBatch([]*acfg.ACFG{a}, servingWorkers); err != nil {
			return nil, err
		}
		out = append(out, ms(s.dur()-time.Since(t0)))
	}
	return out, nil
}

// fleetBatchMean is the mean admission-queue batch size over the fleet.
func fleetBatchMean(hc *http.Client, f *fleet) (float64, error) {
	var sum, count float64
	for _, b := range f.backends {
		s, c, err := batchSizeMean(hc, b.http.url)
		if err != nil {
			return 0, err
		}
		sum, count = sum+s, count+c
	}
	if count == 0 {
		return 0, nil
	}
	return sum / count, nil
}

// checkHealth asks the gateway and every backend for /healthz and returns
// the fleet's corpus compaction count.
func checkHealth(hc *http.Client, f *fleet) (int, error) {
	var g healthz
	if err := getJSON(hc, f.gw.url+"/healthz", &g); err != nil {
		return 0, fmt.Errorf("gateway: %w", err)
	}
	compactions := 0
	for i, b := range f.backends {
		var h healthz
		if err := getJSON(hc, b.http.url+"/healthz", &h); err != nil {
			return 0, fmt.Errorf("backend %d: %w", i, err)
		}
		if h.Status != "ok" {
			return 0, fmt.Errorf("backend %d status %q", i, h.Status)
		}
		compactions += h.CorpusCompactions
	}
	return compactions, nil
}

// timedSetups runs setup n times, closing all but the last,
// and returns the last with the median wall time.
func timedSetups[T any](n int, setup func(i int) (T, error), closeFn func(T) error) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := setup(i)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			if err := closeFn(s); err != nil {
				return last, 0, err
			}
		} else {
			last = s
		}
	}
	logf("set-up times (s): %v", times)
	return last, median(times), nil
}

// seededPerm is a seeded permutation of 0..n-1.
func seededPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are encoded here
	}
	return b
}

// sameBodies checks that every 200 reply for the same pool graph is byte
// for byte the same: a cache hit must replay the miss it stored.
func sameBodies(ops []op, o *outcome) {
	first := map[int][]byte{}
	for _, x := range ops {
		if x.kind != opPredict || x.idx < 0 || x.err != nil || x.status != http.StatusOK {
			continue
		}
		if b, ok := first[x.idx]; ok {
			if !bytes.Equal(b, x.body) {
				o.problem("pool graph %d: reply (cache %s) differs from an earlier reply", x.idx, x.cache)
			}
			continue
		}
		first[x.idx] = x.body
	}
}
