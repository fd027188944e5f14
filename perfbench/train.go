package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/malgen"
)

// train-wv / train-amp: core.Train at two workers with a validation split,
// as magic-train runs it, over an MSKCFG-style corpus drawn from --seed.
// A round is one whole core.Train call on a fresh model. The latency figure
// is the median epoch after each call's first, which also pays the one-time
// growth of the workspaces; the throughput figure covers whole calls.
const (
	trainSamples = 240
	// Epochs per core.Train call: long enough that the loss falls and the
	// first, warm-up epoch does not dominate, short enough for several
	// calls per run.
	trainEpochsWV  = 6
	trainEpochsAMP = 4
	// Held-out accuracy floors after one call: chance is 1/9 and always
	// answering the largest family scores 0.29.
	trainAccuracyFloorWV  = 0.7
	trainAccuracyFloorAMP = 0.45
)

type trainCall struct {
	wall   time.Duration
	epochs []time.Duration
	hist   *core.History
	acc    float64
}

func trainConfig(classes int, amp bool) (core.Config, int, float64) {
	if amp {
		c := ampConfig(classes)
		c.Epochs = trainEpochsAMP
		return c, trainEpochsAMP, trainAccuracyFloorAMP
	}
	c := wvConfig(classes, false)
	c.Epochs = trainEpochsWV
	return c, trainEpochsWV, trainAccuracyFloorWV
}

// trainOnce runs one core.Train call on a fresh model, timing the call and
// each of its epochs, and scores the result on the validation split.
func trainOnce(c core.Config, train, val *dataset.Dataset, tr *tracer) (*trainCall, *core.Model, error) {
	m, err := core.NewModel(c, train.Sizes())
	if err != nil {
		return nil, nil, err
	}
	call := &trainCall{}
	var root span
	if tr != nil {
		root = span{ID: tr.newID(), Name: "core.Train", Start: tr.now()}
		root.Req = root.ID
	}
	opts := core.TrainOptions{Workers: servingWorkers, Observer: core.EpochObserverFunc(func(s core.EpochStats) {
		call.epochs = append(call.epochs, s.Duration)
		if tr != nil {
			end := tr.now()
			tr.record(span{ID: tr.newID(), Parent: root.ID, Req: root.ID, Name: "core.epoch", Start: end - int64(s.Duration), End: end})
		}
	})}
	t0 := time.Now()
	call.hist, err = core.Train(m, train, val, opts)
	call.wall = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		root.End = tr.now()
		tr.record(root)
	}
	hits := 0
	for _, s := range val.Samples {
		if m.PredictClass(s.ACFG) == s.Label {
			hits++
		}
	}
	call.acc = float64(hits) / float64(val.Len())
	return call, m, nil
}

func runTrain(e *env, amp bool) (*outcome, error) {
	name := "train-wv"
	if amp {
		name = "train-amp"
	}
	type corpus struct {
		all, train, val *dataset.Dataset
		texts           []string
	}
	cp, setupS, err := timedSetups(trainSetups, func(int) (*corpus, error) {
		d, texts, err := malgen.MSKCFGTexts(malgen.Options{TotalSamples: trainSamples, Seed: 3_000_003 + e.seed, Workers: servingWorkers})
		if err != nil {
			return nil, err
		}
		train, val, err := d.TrainValSplit(valFraction, e.seed)
		if err != nil {
			return nil, err
		}
		return &corpus{all: d, train: train, val: val, texts: texts}, nil
	}, func(*corpus) error { return nil })
	if err != nil {
		return nil, err
	}
	c, epochs, floor := trainConfig(cp.all.NumClasses(), amp)

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var calls []*trainCall
	var traced []bool
	var last *core.Model
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(e.seconds)
	for n := 0; time.Now().Before(deadline); n++ {
		// A traced run records spans on every other call.
		var callTracer *tracer
		if tr != nil && n%2 == 1 {
			callTracer = tr
		}
		call, m, err := trainOnce(c, cp.train, cp.val, callTracer)
		if err != nil {
			return nil, err
		}
		calls = append(calls, call)
		traced = append(traced, callTracer != nil)
		last = m
	}
	runtime.ReadMemStats(&after)

	out := newOutcome()
	out.attempted = int64(len(calls))
	first := calls[0].hist.TrainLoss
	var epochMS, rates []float64
	totalEpochs := 0
	for i, call := range calls {
		loss := call.hist.TrainLoss
		if len(loss) != epochs || !(loss[len(loss)-1] < loss[0]) {
			out.problem("call %d: training loss %v did not fall over %d epochs", i, loss, epochs)
		}
		if call.acc < floor {
			out.problem("call %d: held-out accuracy %.3f below the floor %.2f", i, call.acc, floor)
		}
		// Training is bit-deterministic for a fixed seed, so every call
		// must retrace the first call's loss curve exactly.
		for j := range loss {
			if j < len(first) && math.Float64bits(loss[j]) != math.Float64bits(first[j]) {
				out.problem("call %d: epoch %d loss %v differs from the first call's %v", i, j, loss[j], first[j])
				break
			}
		}
		if !traced[i] {
			epochMS = append(epochMS, durationsMS(call.epochs[1:])...)
			rates = append(rates, float64(cp.train.Len()*len(loss))/call.wall.Seconds())
		}
		totalEpochs += len(call.epochs)
	}
	vertices := 0
	for _, n := range cp.train.Sizes() {
		vertices += n
	}
	logf("%s: %d calls of %d epochs, %.1f samples/s median, %.1f mean vertices, held-out accuracy %.3f",
		name, len(calls), epochs, median(rates), float64(vertices)/float64(cp.train.Len()), calls[len(calls)-1].acc)

	if !e.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["p50_ms"] = median(epochMS)
		out.metrics["throughput_per_s"] = median(rates)
		out.metrics["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(totalEpochs)
		return out, nil
	}

	var tracedEpochs []float64
	for i, call := range calls {
		if traced[i] {
			tracedEpochs = append(tracedEpochs, durationsMS(call.epochs[1:])...)
		}
	}
	m := out.metrics
	m["trace.overhead_ms"] = median(tracedEpochs) - median(epochMS)
	for _, k := range []string{"client.p99_ms", "client.ingest_p50_ms", "client.ingest_p99_ms", "trace.serve_span_share",
		"gateway.self_ms", "gateway.hop_ms", "gateway.cache_hit_ratio", "service.predict_ms", "service.ingest_ms",
		"service.queue_wait_ms", "service.batch_size_mean", "corpus.compactions"} {
		m[k] = 0 // no HTTP on the training path
	}
	if err := measureLayers(out, layerInput{data: cp.all, texts: cp.texts, serving: last, dir: e.dir}); err != nil {
		return nil, err
	}
	return out, tr.write(name, e.seed)
}
