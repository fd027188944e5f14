package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/service"
	"repro/internal/tensor"
)

// The per-layer half of a traced run times calls into each module's public
// functions, from the benchmark's own code, on the workload's own samples.
// Every figure is a median per call (per training sample for the heads).

// layerInput is what a workload hands to measureLayers.
type layerInput struct {
	data    *dataset.Dataset // the workload's own samples
	texts   []string         // their asm listings, or nil when the workload sends none
	serving *core.Model      // the model the workload serves or trained
	dir     string           // scratch directory for the corpus store
}

const (
	layerSamples = 64 // samples the module timings run over, spread over the corpus
	layerPasses  = 3  // passes over them; the first is a warm-up
	adamSteps    = 50
	corpusRounds = 3  // append/compact rounds on the scratch store
	corpusBatch  = 20 // appends per round
)

// A replica head's per-layer sum must come within this share of the
// model's own TrainStep on the same samples, or the replica has drifted
// from the model's shapes.
const (
	layerShareMin = 0.8
	layerShareMax = 1.25
)

func measureLayers(out *outcome, in layerInput) error {
	// Corpora list their samples family by family, so take evenly spaced
	// ones to cover every family's graph sizes.
	var samples []*dataset.Sample
	var texts []string
	n := in.data.Len()
	for j := 0; j < layerSamples && j < n; j++ {
		i := j * n / min(layerSamples, n)
		s := in.data.Samples[i]
		if s.ACFG.NumVertices() == 0 {
			continue
		}
		samples = append(samples, s)
		if in.texts != nil {
			texts = append(texts, in.texts[i])
		}
	}
	m := out.metrics
	t0 := time.Now()
	if err := measurePipeline(m, samples, texts); err != nil {
		return err
	}
	if err := measureInference(m, samples, in.serving); err != nil {
		return err
	}
	for _, amp := range []bool{false, true} {
		if err := measureHead(out, in, samples, amp); err != nil {
			return err
		}
	}
	measureMatMul(m, samples)
	if err := measureCorpus(out, in, samples); err != nil {
		return err
	}
	logf("per-layer timings took %v", time.Since(t0))
	return nil
}

// timeCall returns f's wall time in microseconds.
func timeCall(f func()) float64 {
	t := time.Now()
	f()
	return us(time.Since(t))
}

// measurePipeline times the extraction and decode stages: asm.ParseString,
// cfg.Build, acfg.FromCFG, ACFG JSON decoding and ContentHash.
func measurePipeline(m map[string]float64, samples []*dataset.Sample, texts []string) error {
	var parse, build, annotate, decode, hash []float64
	for pass := 0; pass < layerPasses; pass++ {
		for _, text := range texts {
			var p *asm.Program
			var c *cfg.CFG
			var err error
			tParse := timeCall(func() { p, err = asm.ParseString(text) })
			if err != nil {
				return err
			}
			tBuild := timeCall(func() { c = cfg.Build(p) })
			tAnnotate := timeCall(func() { _ = acfg.FromCFG(c) })
			if pass > 0 {
				parse, build, annotate = append(parse, tParse), append(build, tBuild), append(annotate, tAnnotate)
			}
		}
		for _, s := range samples {
			raw, err := json.Marshal(s.ACFG)
			if err != nil {
				return err
			}
			var a acfg.ACFG
			tDecode := timeCall(func() { err = json.Unmarshal(raw, &a) })
			if err != nil {
				return err
			}
			tHash := timeCall(func() { _ = s.ACFG.ContentHash() })
			if pass > 0 {
				decode, hash = append(decode, tDecode), append(hash, tHash)
			}
		}
	}
	m["asm.parse_us"] = median(parse) // 0 when the workload sends no asm
	m["cfg.build_us"] = median(build)
	m["acfg.annotate_us"] = median(annotate)
	m["acfg.decode_us"] = median(decode)
	m["acfg.hash_us"] = median(hash)
	return nil
}

// measureInference times graph propagation (Propagator.Rebuild, CSR SpMM
// at the conv width) and Model.PredictBatch on one sample at the serving
// worker count.
func measureInference(m map[string]float64, samples []*dataset.Sample, model *core.Model) error {
	rng := rand.New(rand.NewSource(1))
	prop := graph.NewPropagator(graph.NewDirected(1))
	var rebuild, spmm, predict []float64
	for pass := 0; pass < layerPasses; pass++ {
		for _, s := range samples {
			n := s.ACFG.NumVertices()
			x := tensor.Normal(rng, n, 32, 0, 1)
			dst := tensor.New(n, 32)
			tRebuild := timeCall(func() { prop.Rebuild(s.ACFG.Graph) })
			tSpMM := timeCall(func() { prop.CSR().SpMMInto(dst, x) })
			var err error
			tPredict := timeCall(func() { _, err = model.PredictBatch([]*acfg.ACFG{s.ACFG}, servingWorkers) })
			if err != nil {
				return err
			}
			if pass > 0 {
				rebuild, spmm, predict = append(rebuild, tRebuild), append(spmm, tSpMM), append(predict, tPredict)
			}
		}
	}
	m["graph.rebuild_us"] = median(rebuild)
	m["graph.spmm_us"] = median(spmm)
	m["core.predict_us"] = median(predict)
	return nil
}

// replica rebuilds a model's layer stack from the public constructors with
// the shapes its Config implies, so each layer can be timed on its own.
type replica struct {
	conv           *core.GraphConvStack
	sort           *core.SortPool // nil for adaptive pooling
	head           *nn.Sequential
	scaler         *core.Scaler
	ws             *nn.Workspace
	prop           *graph.Propagator
	probs, dlogits []float64
}

func newReplica(c core.Config, k int, scaler *core.Scaler) *replica {
	rng := rand.New(rand.NewSource(c.Seed))
	d := c.TotalConvWidth()
	r := &replica{
		conv:    core.NewGraphConvStack(rng, c.AttrDim, c.ConvSizes),
		scaler:  scaler,
		ws:      nn.NewWorkspace(),
		prop:    graph.NewPropagator(graph.NewDirected(1)),
		probs:   make([]float64, c.Classes),
		dlogits: make([]float64, c.Classes),
	}
	if c.Pooling == core.SortPooling {
		r.sort = core.NewSortPool(k)
		r.sort.SetWorkspace(r.ws)
		r.head = nn.NewSequential(
			core.NewWeightedVertices(rng, k),
			nn.NewLinear(rng, d, c.HiddenUnits),
			nn.NewReLU(),
			nn.NewDropout(rng, c.DropoutRate),
			nn.NewLinear(rng, c.HiddenUnits, c.Classes),
		)
	} else {
		ch := c.Conv2DChannels
		gh, gw := c.AMPGrid()
		post := nn.NewMaxPool2D(2, 2, 2)
		ph, pw := post.OutDims(gh, gw)
		r.head = nn.NewSequential(
			nn.NewConv2D(rng, 1, ch, 3, 3, 1, 1),
			nn.NewReLU(),
			nn.NewAdaptiveMaxPool2D(gh, gw),
			nn.NewConv2D(rng, ch, 2*ch, 3, 3, 1, 1),
			nn.NewReLU(),
			post,
			nn.NewLinear(rng, 2*ch*ph*pw, c.HiddenUnits),
			nn.NewReLU(),
			nn.NewDropout(rng, c.DropoutRate),
			nn.NewLinear(rng, c.HiddenUnits, c.Classes),
		)
	}
	r.conv.SetWorkspace(r.ws)
	r.head.SetWorkspace(r.ws)
	return r
}

func (r *replica) numParameters() int {
	n := 0
	for _, p := range append(r.conv.Params(), r.head.Params()...) {
		n += len(p.Value.Data)
	}
	return n
}

func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *core.WeightedVertices:
		return "core.wv"
	case *nn.Linear:
		return "nn.linear"
	case *nn.ReLU:
		return "nn.relu"
	case *nn.Conv2D:
		return "nn.conv2d"
	case *nn.AdaptiveMaxPool2D:
		return "nn.amp"
	case *nn.MaxPool2D:
		return "nn.maxpool"
	}
	return "misc" // dropout
}

// step runs one training sample through the replica — the same sequence
// Model.TrainStep runs — and adds each layer's time to acc (microseconds,
// summed over the layer's calls). Scaling, copies and the loss go to
// "misc".
func (r *replica) step(a *acfg.ACFG, label int, acc map[string]float64) {
	r.prop.Rebuild(a.Graph) // the trainer builds propagators before the epoch
	t := time.Now()
	lap := func(key string) {
		now := time.Now()
		acc[key] += us(now.Sub(t))
		t = now
	}
	r.ws.Reset()
	x := r.ws.Matrix(a.Attrs.Rows, a.Attrs.Cols)
	r.scaler.TransformInto(x, a.Attrs)
	lap("misc")
	z := r.conv.Forward(r.prop, x)
	lap("core.graphconv_fwd")
	var vol *nn.Volume
	if r.sort != nil {
		zsp := r.sort.Forward(z)
		lap("core.sortpool_fwd")
		vol = r.ws.Volume(1, zsp.Rows, zsp.Cols)
		copy(vol.Data, zsp.Data)
	} else {
		vol = r.ws.Volume(1, z.Rows, z.Cols)
		copy(vol.Data, z.Data)
	}
	lap("misc")
	for _, l := range r.head.Layers {
		vol = l.Forward(vol, true)
		lap(layerKind(l) + "_fwd")
	}
	nn.SoftmaxNLLInto(vol.Data, label, r.probs, r.dlogits)
	dvol := r.ws.Volume(1, 1, len(r.dlogits))
	copy(dvol.Data, r.dlogits)
	lap("misc")
	for i := len(r.head.Layers) - 1; i >= 0; i-- {
		l := r.head.Layers[i]
		dvol = l.Backward(dvol)
		lap(layerKind(l) + "_bwd")
	}
	var dz *tensor.Matrix
	if r.sort != nil {
		dm := r.ws.Matrix(r.sort.K, dvol.Len()/r.sort.K)
		copy(dm.Data, dvol.Data)
		lap("misc")
		dz = r.sort.Backward(dm)
		lap("core.sortpool_bwd")
	} else {
		dz = r.ws.Matrix(dvol.H, dvol.W)
		copy(dz.Data, dvol.Data)
		lap("misc")
	}
	r.conv.Backward(dz)
	lap("core.graphconv_bwd")
}

// measureHead times one configuration: the model's own TrainStep per
// sample, and, interleaved with it on the same samples, the replica's
// layers. It checks the replica's parameter count and layer sum against
// the model.
func measureHead(out *outcome, in layerInput, samples []*dataset.Sample, amp bool) error {
	c := wvConfig(in.data.NumClasses(), false)
	name, keys := "wv", []string{"core.graphconv_fwd", "core.graphconv_bwd", "core.sortpool_fwd", "core.sortpool_bwd",
		"core.wv_fwd", "core.wv_bwd", "nn.linear_fwd", "nn.linear_bwd"}
	if amp {
		c = ampConfig(in.data.NumClasses())
		name, keys = "amp", []string{"nn.conv2d_fwd", "nn.conv2d_bwd", "nn.amp_fwd", "nn.amp_bwd",
			"nn.relu_fwd", "nn.relu_bwd", "nn.maxpool_fwd", "nn.maxpool_bwd"}
	}
	own := (in.serving.Config.Pooling == core.AdaptivePooling) == amp
	if own {
		c = in.serving.Config // the workload's own configuration
	}
	acfgs := make([]*acfg.ACFG, len(samples))
	for i, s := range samples {
		acfgs[i] = s.ACFG
	}
	model, err := core.NewModel(c, in.data.Sizes())
	if err != nil {
		return err
	}
	scaler := core.FitScaler(acfgs)
	model.SetScaler(scaler)
	rep := newReplica(c, model.K, scaler)
	if got, want := rep.numParameters(), model.NumParameters(); got != want {
		out.problem("%s replica has %d parameters, the model %d", name, got, want)
	}
	props := make([]*graph.Propagator, len(samples))
	for i, a := range acfgs {
		props[i] = graph.NewPropagator(a.Graph)
	}
	layers := map[string][]float64{}
	var real, sum []float64
	for pass := 0; pass < layerPasses; pass++ {
		for i, s := range samples {
			acc := map[string]float64{}
			rep.step(s.ACFG, s.Label, acc)
			tStep := timeCall(func() { model.TrainStep(props[i], s.ACFG, s.Label, int64(i)) })
			if pass == 0 {
				continue
			}
			total := 0.0
			for k, v := range acc {
				layers[k] = append(layers[k], v)
				total += v
			}
			real, sum = append(real, tStep), append(sum, total)
		}
	}
	m := out.metrics
	for _, k := range keys {
		m[k+"_us"] = median(layers[k])
	}
	m["core.train_step_"+name+"_us"] = median(real)
	share := median(sum) / median(real)
	m["trace.layer_sum_share_"+name] = share
	if share < layerShareMin || share > layerShareMax {
		out.problem("%s replica layers sum to %.3f of TrainStep, want [%.2f, %.2f]", name, share, layerShareMin, layerShareMax)
	}
	if !own {
		return nil
	}
	// The workload's own configuration also gives the workspace size after
	// training steps and the optimizer step over the model's parameters.
	m["core.workspace_mb"] = float64(model.WorkspaceStats().Bytes) / (1 << 20)
	opt := nn.NewAdam(model.Params(), c.LearningRate, c.WeightDecay)
	var steps []float64
	for i := 0; i < adamSteps; i++ {
		steps = append(steps, timeCall(func() { opt.Step(c.BatchSize) }))
	}
	m["nn.adam_step_us"] = median(steps)
	return nil
}

// measureMatMul times the dense kernels at graph-conv backward shapes: the
// weight gradient Z_tᵀ·dF (MatMulTAInto) and the input gradient dF·W_tᵀ
// (MatMulTBInto) of every layer of the 32-32-32-32 stack, and counts the
// flops both take per training sample.
func measureMatMul(m map[string]float64, samples []*dataset.Sample) {
	rng := rand.New(rand.NewSource(2))
	sizes := []int{acfg.NumAttributes, 32, 32, 32, 32}
	var ta, tb, flops []float64
	for pass := 0; pass < layerPasses; pass++ {
		for _, s := range samples {
			n := s.ACFG.NumVertices()
			f := 0.0
			for l := 0; l+1 < len(sizes); l++ {
				in, outW := sizes[l], sizes[l+1]
				z := tensor.Normal(rng, n, in, 0, 1)
				df := tensor.Normal(rng, n, outW, 0, 1)
				w := tensor.Normal(rng, in, outW, 0, 1)
				gw := tensor.New(in, outW)
				dz := tensor.New(n, in)
				tTA := timeCall(func() { tensor.MatMulTAInto(gw, z, df) })
				tTB := timeCall(func() { tensor.MatMulTBInto(dz, df, w) })
				if pass > 0 {
					ta, tb = append(ta, tTA), append(tb, tTB)
				}
				f += 2 * 2 * float64(n*in*outW)
			}
			if pass > 0 {
				flops = append(flops, f)
			}
		}
	}
	m["tensor.matmul_ta_us"] = median(ta)
	m["tensor.matmul_tb_us"] = median(tb)
	m["tensor.matmul_flops_per_step"] = median(flops)
}

// measureCorpus times the durable corpus on a scratch state directory:
// Store.AppendSample (one fsync each), Store.Compact, and a restart's
// OpenStore + AttachStore replay.
func measureCorpus(out *outcome, in layerInput, samples []*dataset.Sample) error {
	dir := filepath.Join(in.dir, "corpus-scratch")
	families := in.data.Families
	c := wvConfig(len(families), false)
	st, err := service.OpenStore(dir)
	if err != nil {
		return err
	}
	srv, err := newBackendServer(families, c)
	if err == nil {
		_, _, err = srv.AttachStore(st)
	}
	if err != nil {
		_ = st.Close()
		return err
	}
	var appends, compacts []float64
	stored := map[[32]byte]bool{}
	for round := 0; round < corpusRounds && err == nil; round++ {
		for i := 0; i < corpusBatch && err == nil; i++ {
			s := samples[(round*corpusBatch+i)%len(samples)]
			hash := s.ACFG.ContentHash()
			stored[hash] = true
			name := fmt.Sprintf("scratch-%d-%d", round, i)
			appends = append(appends, timeCall(func() { err = st.AppendSample(families[s.Label], name, hash, s.ACFG) })/1000)
		}
		if err == nil {
			compacts = append(compacts, timeCall(func() { err = st.Compact() })/1000)
		}
	}
	if closeErr := srv.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return err
	}
	var replays []float64
	for i := 0; i < corpusRounds; i++ {
		var replayed int
		var srv *service.Server
		tReplay := timeCall(func() { srv, replayed, err = bootFromStateDir(dir, families, c, false) })
		if err != nil {
			return err
		}
		if replayed != len(stored) {
			out.problem("scratch store replayed %d samples, stored %d distinct", replayed, len(stored))
		}
		if err := srv.Close(); err != nil {
			return err
		}
		replays = append(replays, tReplay/1000)
	}
	m := out.metrics
	m["corpus.append_ms"] = median(appends)
	m["corpus.compact_ms"] = median(compacts)
	m["corpus.replay_ms"] = median(replays)
	return nil
}
