package main

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/service"
)

// serve-asm: one closed-loop client POSTs MSKCFG-style asm listings to the
// gateway. asm is never cacheable, so every request crosses the whole
// path: parse, CFG build, annotate, admission queue, inference, JSON.
const (
	asmModelSeed     = 7   // fixed: the served model does not depend on --seed
	asmModelSamples  = 240 // MSKCFG-style training corpus of the served model
	asmModelEpochs   = 8
	asmPoolSize      = 200 // distinct listings per run, drawn from --seed
	asmRound         = 10  // requests per round
	asmWarmup        = 10
	asmAccuracyFloor = 0.8
)

type asmSetup struct {
	fleet    *fleet
	checker  *core.Model // the benchmark's own copy of the served model
	families []string
}

func setupServeASM(tr *tracer) (*asmSetup, error) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: asmModelSamples, Seed: asmModelSeed, Workers: servingWorkers})
	if err != nil {
		return nil, err
	}
	c := wvConfig(d.NumClasses(), false)
	c.Epochs = asmModelEpochs
	m, err := trainModel(c, d)
	if err != nil {
		return nil, err
	}
	raw, err := saveModel(m)
	if err != nil {
		return nil, err
	}
	var servers []*service.Server
	for i := 0; i < numBackends; i++ {
		srv, err := newBackendServer(d.Families, c)
		if err == nil {
			var copyM *core.Model
			if copyM, err = cloneModel(raw); err == nil {
				err = srv.LoadModel(copyM)
			}
		}
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
	}
	f, err := startFleet(servers, tr)
	if err != nil {
		return nil, err
	}
	checker, err := cloneModel(raw)
	if err != nil {
		_ = f.close()
		return nil, err
	}
	return &asmSetup{fleet: f, checker: checker, families: d.Families}, nil
}

// asmPool is the run's request pool: listings, their encoded bodies, the
// ground-truth family and the benchmark's own serial prediction of each.
type asmPool struct {
	texts  []string
	bodies [][]byte
	labels []string
	want   [][]float64
	data   *dataset.Dataset
}

func newASMPool(seed int64, checker *core.Model) (*asmPool, error) {
	d, texts, err := malgen.MSKCFGTexts(malgen.Options{TotalSamples: asmPoolSize, Seed: 1_000_003 + seed, Workers: servingWorkers})
	if err != nil {
		return nil, err
	}
	p := &asmPool{texts: texts, data: d}
	for i, text := range texts {
		a, err := extractASM(text)
		if err != nil {
			return nil, fmt.Errorf("pool listing %d: %w", i, err)
		}
		p.bodies = append(p.bodies, mustJSON(requestBody{ASM: text}))
		p.labels = append(p.labels, d.Families[d.Samples[i].Label])
		p.want = append(p.want, checker.Predict(a))
	}
	return p, nil
}

func runServeASM(e *env) (*outcome, error) {
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	st, setupS, err := timedSetups(serveSetups, func(int) (*asmSetup, error) { return setupServeASM(tr) },
		func(s *asmSetup) error { return s.fleet.close() })
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.fleet.close() }()
	pool, err := newASMPool(e.seed, st.checker)
	if err != nil {
		return nil, err
	}
	order := seededPerm(e.seed, len(pool.bodies))
	cl := &client{hc: httpClient(), url: st.fleet.gw.url, tr: tr}
	for i := 0; i < asmWarmup; i++ {
		if o := cl.send("/v1/predict", pool.bodies[order[i]], false); o.err != nil || o.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request: status %d, %v", o.status, o.err)
		}
	}

	// In a traced run every other round is traced, so the traced and the
	// untraced latencies come from the same stretch of time.
	pos := asmWarmup
	ph := runPhase(1, e.seconds, func(_, n int) []op {
		ops := make([]op, 0, asmRound)
		for k := 0; k < asmRound; k++ {
			idx := order[pos%len(order)]
			pos++
			o := cl.send("/v1/predict", pool.bodies[idx], tr != nil && n%2 == 1)
			o.kind, o.idx = opPredict, idx
			ops = append(ops, o)
		}
		return ops
	})

	out := newOutcome()
	out.attempted = int64(len(ph.ops))
	famIndex := indexOf(st.families)
	hits := 0
	for _, o := range ph.ops {
		if o.err != nil || o.status != http.StatusOK {
			out.failed++
			out.problem("predict of listing %d: status %d, %v", o.idx, o.status, o.err)
			continue
		}
		top, err := checkPrediction(o.body, famIndex, pool.want[o.idx])
		if err != nil {
			out.problem("predict of listing %d: %v", o.idx, err)
			continue
		}
		if top == pool.labels[o.idx] {
			hits++
		}
	}
	sameBodies(ph.ops, out)
	acc := float64(hits) / float64(len(ph.ops))
	logf("serve-asm: %d requests in %v, accuracy %.3f", len(ph.ops), ph.elapsed, acc)
	if acc < asmAccuracyFloor {
		out.problem("accuracy %.3f below the floor %.2f", acc, asmAccuracyFloor)
	}
	if _, err := checkHealth(cl.hc, st.fleet); err != nil {
		out.problem("health after the run: %v", err)
	}

	if !e.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["p50_ms"] = median(latencies(ph.ops, okPredict))
		out.metrics["throughput_per_s"] = ph.throughput()
		out.metrics["alloc_kb_per_op"] = float64(ph.allocB) / 1024 / float64(len(ph.ops))
		return out, nil
	}

	spans := tr.snapshot()
	ss := analyseSpans(spans)
	qw, err := queueWait(ph.ops, func(o op) []byte { return pool.bodies[o.idx] }, ss, st.checker, 300)
	if err != nil {
		return nil, err
	}
	batch, err := fleetBatchMean(cl.hc, st.fleet)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["client.p99_ms"] = percentile(latencies(ph.ops, okPredict), 99)
	m["client.ingest_p50_ms"] = 0
	m["client.ingest_p99_ms"] = 0
	m["trace.overhead_ms"] = tracingOverhead(ph.ops)
	m["trace.serve_span_share"] = median(ss.share)
	m["gateway.self_ms"] = median(ss.gatewaySelf)
	m["gateway.hop_ms"] = median(ss.hop)
	m["gateway.cache_hit_ratio"] = 0 // asm bodies are never cacheable
	m["service.predict_ms"] = median(ss.predict)
	m["service.ingest_ms"] = 0
	m["service.queue_wait_ms"] = median(qw)
	m["service.batch_size_mean"] = batch
	m["corpus.compactions"] = 0
	checkServeShare(out, ss.share)
	if err := measureLayers(out, layerInput{data: pool.data, texts: pool.texts, serving: st.checker, dir: e.dir}); err != nil {
		return nil, err
	}
	return out, tr.write("serve-asm", e.seed)
}

// Server-side spans must account for most of what the client waits for;
// a share outside these bounds means a span is missing or misplaced.
const (
	serveShareMin = 0.5
	serveShareMax = 1.0
)

func checkServeShare(out *outcome, share []float64) {
	if s := median(share); len(share) == 0 || s < serveShareMin || s > serveShareMax {
		out.problem("gateway + hop + backend spans cover %.3f of client latency over %d requests, want [%.2f, %.2f]",
			s, len(share), serveShareMin, serveShareMax)
	}
}
