package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/service"
)

// serve-mixed: two closed-loop clients send YANCFG-style pre-built ACFGs —
// Zipf-skewed cached predicts, predicts of new graphs, uploads of new
// labelled graphs and a fixed share of malformed payloads — to backends
// booted from state directories that already hold a seed corpus.
const (
	mixedModelSeed   = 11  // fixed: the seed corpus and model do not depend on --seed
	mixedSeedSamples = 390 // seed corpus in each backend's state dir = the model's training corpus
	mixedModelEpochs = 8
	// Hot predicts draw from a set of mixedHotSize graphs, sent once each
	// before measuring, by Zipf(s, v) over ranks: P(rank k) ∝ (v+k)^-s.
	mixedHotSize = 300
	mixedZipfS   = 1.1
	mixedZipfV   = 30
	mixedClients = 2
	// WAL size that triggers background compaction.
	mixedCompactBytes  = 128 << 10
	mixedAccuracyFloor = 0.5
)

// mixedRound is one client round of 20 operations: 14 hot predicts (H,
// gateway cache hits), 4 predicts of graphs never sent before (C, misses
// that reach a backend), 1 upload of a new labelled graph (U) and 1
// malformed payload (M). Fixing the hit and miss counts per round keeps
// the hit ratio at 14/18 however many rounds a run completes: with hits
// drawn from a pool, a faster run would reach further into its draws, hit
// more often and run faster still. One upload per round keeps the WAL
// growing past the compaction threshold while the fsync behind each
// upload, whose latency the shared disk varies most, weighs little in a
// round. Should the cold graphs outgrow the gateway cache
// (DefaultCacheSize 4096), LRU eviction takes the oldest cold entries,
// which the often-touched hot ones outlive.
const mixedRound = "HHCHHHHCHUHHHCHMHHHC"

// malformedBody declares a negative vertex count. The gateway decodes it
// before routing; the correct outcome is a 4xx with a JSON error body.
var malformedBody = []byte(`{"acfg":{"n":-1,"edges":[],"attrs":[]}}`)

type mixedSetup struct {
	fleet    *fleet
	checker  *core.Model
	families []string
	seed     *dataset.Dataset
	dirs     []string
	config   core.Config
}

// seedStateDir writes a state directory holding the seed corpus (two
// thirds compacted into a segment, the rest in the WAL) and the model
// checkpoint, as a server that ran before would have left it.
func seedStateDir(dir string, d *dataset.Dataset, c core.Config, raw []byte) error {
	st, err := service.OpenStore(dir)
	if err != nil {
		return err
	}
	srv, err := newBackendServer(d.Families, c)
	if err != nil {
		_ = st.Close()
		return err
	}
	if _, _, err := srv.AttachStore(st); err != nil {
		_ = st.Close()
		return err
	}
	head := make([]int, d.Len()*2/3)
	for i := range head {
		head[i] = i
	}
	err = srv.ImportCorpus(d.Subset(head))
	if err == nil {
		err = st.Compact()
	}
	if err == nil {
		err = srv.ImportCorpus(d)
	}
	if err == nil {
		var m *core.Model
		if m, err = cloneModel(raw); err == nil {
			err = srv.LoadModel(m)
		}
	}
	if closeErr := srv.Close(); err == nil {
		err = closeErr
	}
	return err
}

// bootFromStateDir starts a backend the way magic-server -state-dir does:
// open the store, replay segments and WAL, install the checkpoint (which
// must exist when needModel is set).
func bootFromStateDir(dir string, families []string, c core.Config, needModel bool) (*service.Server, int, error) {
	st, err := service.OpenStore(dir)
	if err != nil {
		return nil, 0, err
	}
	srv, err := newBackendServer(families, c)
	if err != nil {
		_ = st.Close()
		return nil, 0, err
	}
	replayed, loaded, err := srv.AttachStore(st)
	if err == nil && needModel && !loaded {
		err = fmt.Errorf("no model checkpoint in %s", dir)
	}
	if err != nil {
		_ = srv.Close()
		_ = st.Close()
		return nil, 0, err
	}
	return srv, replayed, nil
}

func setupServeMixed(e *env, i int, tr *tracer) (*mixedSetup, error) {
	d, err := malgen.YANCFG(malgen.Options{TotalSamples: mixedSeedSamples, Seed: mixedModelSeed})
	if err != nil {
		return nil, err
	}
	c := wvConfig(d.NumClasses(), true)
	c.Epochs = mixedModelEpochs
	m, err := trainModel(c, d)
	if err != nil {
		return nil, err
	}
	raw, err := saveModel(m)
	if err != nil {
		return nil, err
	}
	s := &mixedSetup{families: d.Families, seed: d, config: c}
	var servers []*service.Server
	fail := func(err error) (*mixedSetup, error) {
		for _, srv := range servers {
			_ = srv.Close()
		}
		return nil, err
	}
	for j := 0; j < numBackends; j++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup%d-backend%d", i, j))
		if err := seedStateDir(dir, d, c, raw); err != nil {
			return fail(err)
		}
		srv, replayed, err := bootFromStateDir(dir, d.Families, c, true)
		if err != nil {
			return fail(err)
		}
		servers = append(servers, srv)
		if replayed != d.Len() {
			return fail(fmt.Errorf("backend %d replayed %d samples, seeded %d", j, replayed, d.Len()))
		}
		srv.EnableCompaction(mixedCompactBytes, logf)
		s.dirs = append(s.dirs, dir)
	}
	if s.fleet, err = startFleet(servers, tr); err != nil {
		return fail(err)
	}
	if s.checker, err = cloneModel(raw); err != nil {
		_ = s.fleet.close()
		return nil, err
	}
	return s, nil
}

func runServeMixed(e *env) (*outcome, error) {
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	st, setupS, err := timedSetups(serveSetups, func(i int) (*mixedSetup, error) { return setupServeMixed(e, i, tr) },
		func(s *mixedSetup) error { return s.fleet.close() })
	if err != nil {
		return nil, err
	}
	fleetOpen := true
	defer func() {
		if fleetOpen {
			_ = st.fleet.close()
		}
	}()

	hot, err := malgen.YANCFG(malgen.Options{TotalSamples: mixedHotSize, Seed: 2_000_003 + e.seed})
	if err != nil {
		return nil, err
	}
	hotBodies := make([][]byte, hot.Len())
	for i, s := range hot.Samples {
		hotBodies[i] = mustJSON(requestBody{ACFG: s.ACFG})
	}
	rank := seededPerm(e.seed, hot.Len()) // Zipf rank → hot graph
	hc := httpClient()
	clients := make([]*client, mixedClients)
	rngs := make([]*rand.Rand, mixedClients)
	zipfs := make([]*rand.Zipf, mixedClients)
	for c := range clients {
		clients[c] = &client{hc: httpClient(), url: st.fleet.gw.url, tr: tr}
		rngs[c] = rand.New(rand.NewSource(e.seed*7919 + int64(c)))
		zipfs[c] = rand.NewZipf(rngs[c], mixedZipfS, mixedZipfV, uint64(hot.Len()-1))
	}
	// Warm-up: the clients split the hot set and send each graph once, so
	// every hot predict of the measured phase is a cache hit.
	warm := runPhase(mixedClients, 0, func(c, _ int) []op {
		var ops []op
		for i := c; i < hot.Len(); i += mixedClients {
			o := clients[c].send("/v1/predict", hotBodies[i], false)
			o.kind, o.idx, o.a, o.label = opPredict, i, hot.Samples[i].ACFG, hot.Samples[i].Label
			ops = append(ops, o)
		}
		return ops
	})
	for _, o := range warm.ops {
		if o.err != nil || o.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request: status %d, %v", o.status, o.err)
		}
	}
	// The boot replay may already have compacted the seed WAL; count only
	// the compactions the run's own uploads cause.
	compactionsBefore, err := checkHealth(hc, st.fleet)
	if err != nil {
		return nil, err
	}
	uploads := make([]int, mixedClients)
	// newGraph draws a fresh labelled YANCFG-style graph from client c's
	// stream: a cold predict or an upload, never sent before.
	newGraph := func(c int) (*acfg.ACFG, int) {
		label := rngs[c].Intn(len(st.families))
		return malgen.GenerateACFG(rand.New(rand.NewSource(rngs[c].Int63())), malgen.YanProfileFor(label)), label
	}
	ph := runPhase(mixedClients, e.seconds, func(c, n int) []op {
		cl := clients[c]
		traced := tr != nil && n%2 == 1
		ops := make([]op, 0, len(mixedRound))
		for _, slot := range mixedRound {
			var o op
			switch slot {
			case 'H':
				i := rank[zipfs[c].Uint64()]
				o = cl.send("/v1/predict", hotBodies[i], traced)
				o.kind, o.idx, o.a, o.label = opPredict, i, hot.Samples[i].ACFG, hot.Samples[i].Label
			case 'C':
				a, label := newGraph(c)
				o = cl.send("/v1/predict", mustJSON(requestBody{ACFG: a}), traced)
				o.kind, o.idx, o.a, o.label = opPredict, -1, a, label
			case 'U':
				a, label := newGraph(c)
				uploads[c]++
				body := mustJSON(requestBody{Family: st.families[label], Name: fmt.Sprintf("upload-%d-%d", c, uploads[c]), ACFG: a})
				o = cl.send("/v1/samples", body, traced)
				o.kind, o.label = opIngest, label
			case 'M':
				o = cl.send("/v1/predict", malformedBody, traced)
				o.kind = opMalformed
			}
			ops = append(ops, o)
		}
		return ops
	})

	out := newOutcome()
	out.attempted = int64(len(ph.ops))
	famIndex := indexOf(st.families)
	want := map[int][]float64{} // by hot index
	acked := make([]int, len(st.families))
	hits, cacheHits := 0, 0
	var tried, failedBy [3]int // by opKind
	for _, o := range ph.ops {
		tried[o.kind]++
		fail := func() { out.failed++; failedBy[o.kind]++ }
		switch o.kind {
		case opPredict:
			if o.err != nil || o.status != http.StatusOK {
				fail()
				out.problem("predict of graph %d (-1: cold): status %d, %v", o.idx, o.status, o.err)
				continue
			}
			if o.cache == "hit" {
				cacheHits++
			}
			w := want[o.idx]
			if w == nil {
				w = st.checker.Predict(o.a)
				if o.idx >= 0 {
					want[o.idx] = w
				}
			}
			top, err := checkPrediction(o.body, famIndex, w)
			if err != nil {
				out.problem("predict of graph %d (-1: cold): %v", o.idx, err)
				continue
			}
			if top == st.families[o.label] {
				hits++
			}
		case opIngest:
			var reply struct {
				Deduplicated bool `json:"deduplicated"`
			}
			if o.err != nil || o.status != http.StatusCreated {
				fail()
				out.problem("upload: status %d, %v", o.status, o.err)
				continue
			}
			if err := json.Unmarshal(o.body, &reply); err != nil || reply.Deduplicated {
				out.problem("upload reply %q: not stored as a new sample", o.body)
				continue
			}
			acked[o.label]++
		case opMalformed:
			switch {
			case o.err != nil:
				fail() // the connection dropped: the decoder panicked
			case o.status < 400 || o.status >= 500:
				out.problem("malformed payload answered with status %d", o.status)
			default:
				var reply struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(o.body, &reply); err != nil || reply.Error == "" {
					out.problem("malformed payload: %d reply without a JSON error body", o.status)
				}
			}
		}
	}
	sameBodies(append(warm.ops, ph.ops...), out)
	acc := float64(hits) / float64(tried[opPredict])
	logf("serve-mixed: %d ops in %v; attempted/failed: predict %d/%d (%d cache hits), upload %d/%d, malformed %d/%d; accuracy %.3f, %d handler panics; p50 ms: hit %.3f miss %.3f upload %.3f",
		len(ph.ops), ph.elapsed, tried[opPredict], failedBy[opPredict], cacheHits, tried[opIngest], failedBy[opIngest],
		tried[opMalformed], failedBy[opMalformed], acc, st.fleet.panics.n.Load(),
		median(latencies(ph.ops, cached("hit"))), median(latencies(ph.ops, cached("miss"))), median(latencies(ph.ops, okIngest)))
	if acc < mixedAccuracyFloor {
		out.problem("accuracy %.3f below the floor %.2f", acc, mixedAccuracyFloor)
	}
	compactions, err := checkHealth(hc, st.fleet)
	if err != nil {
		out.problem("health after the run: %v", err)
	}
	compactions -= compactionsBefore
	if compactions <= 0 {
		out.problem("no background compaction ran during the run")
	}

	layer := map[string]float64{}
	if e.trace {
		ss := analyseSpans(tr.snapshot())
		qw, err := queueWait(ph.ops, func(o op) []byte { return mustJSON(requestBody{ACFG: o.a}) }, ss, st.checker, 300)
		if err != nil {
			return nil, err
		}
		batch, err := fleetBatchMean(hc, st.fleet)
		if err != nil {
			return nil, err
		}
		ingest := latencies(ph.ops, okIngest)
		layer = map[string]float64{
			"client.p99_ms":           percentile(latencies(ph.ops, okPredict), 99),
			"client.ingest_p50_ms":    median(ingest),
			"client.ingest_p99_ms":    percentile(ingest, 99),
			"trace.overhead_ms":       tracingOverhead(ph.ops),
			"trace.serve_span_share":  median(ss.share),
			"gateway.self_ms":         median(ss.gatewaySelf),
			"gateway.hop_ms":          median(ss.hop),
			"gateway.cache_hit_ratio": float64(cacheHits) / float64(tried[opPredict]),
			"service.predict_ms":      median(ss.predict),
			"service.ingest_ms":       median(ss.ingest),
			"service.queue_wait_ms":   median(qw),
			"service.batch_size_mean": batch,
			"corpus.compactions":      float64(compactions),
		}
		checkServeShare(out, ss.share)
	}

	// Restart every backend from its state directory: the replayed corpus
	// must hold the seed plus every acknowledged upload, family by family.
	fleetOpen = false
	if err := st.fleet.close(); err != nil {
		return nil, err
	}
	checkReplay(st, acked, out)

	if !e.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["p50_ms"] = median(latencies(ph.ops, okPredict))
		out.metrics["throughput_per_s"] = ph.throughput()
		out.metrics["alloc_kb_per_op"] = float64(ph.allocB) / 1024 / float64(len(ph.ops))
		return out, nil
	}
	for k, v := range layer {
		out.metrics[k] = v
	}
	if err := measureLayers(out, layerInput{data: hot, serving: st.checker, dir: e.dir}); err != nil {
		return nil, err
	}
	return out, tr.write("serve-mixed", e.seed)
}

// checkReplay reboots each backend from its state directory and compares
// the replayed corpus, in total and per family through /v1/stats, with
// the seed corpus plus the acknowledged uploads.
func checkReplay(st *mixedSetup, acked []int, out *outcome) {
	got := map[string]int{}
	total := 0
	for j, dir := range st.dirs {
		srv, replayed, err := bootFromStateDir(dir, st.families, st.config, true)
		if err != nil {
			out.problem("restart of backend %d: %v", j, err)
			return
		}
		total += replayed
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var stats struct {
			Families map[string]int `json:"families"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			out.problem("backend %d /v1/stats: %v", j, err)
		}
		for f, n := range stats.Families {
			got[f] += n
		}
		if err := srv.Close(); err != nil {
			out.problem("close of restarted backend %d: %v", j, err)
		}
	}
	seedCounts := st.seed.CountByClass()
	wantTotal := 0
	for i, f := range st.families {
		want := numBackends*seedCounts[i] + acked[i]
		wantTotal += want
		if got[f] != want {
			out.problem("family %s: %d samples after restart, want %d", f, got[f], want)
		}
	}
	if total != wantTotal {
		out.problem("replayed %d samples after restart, want %d", total, wantTotal)
	}
}

func okIngest(o op) bool { return o.kind == opIngest && o.err == nil && o.status == http.StatusCreated }

// cached accepts 200 predicts whose X-Magic-Cache header reads want.
func cached(want string) func(op) bool {
	return func(o op) bool { return okPredict(o) && o.cache == want }
}
