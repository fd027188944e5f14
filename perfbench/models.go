package main

import (
	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataset"
)

// The two configurations that ship. wvConfig is the model the Table II
// sweep selects at this reproduction's scale (EXPERIMENTS.md): sort pooling
// into the WeightedVertices head. ampConfig is the paper default that
// magic-train and magic-server build when given no flags.

// wvConfig mirrors the experiments' MSKCFG (ratio 0.64, dropout 0.1, decay
// 1e-4) and YANCFG (ratio 0.2, dropout 0.2, decay 5e-4) selections.
func wvConfig(classes int, yancfg bool) core.Config {
	c := core.DefaultConfig(classes, acfg.NumAttributes)
	c.Pooling = core.SortPooling
	c.Head = core.WeightedVerticesHead
	c.PoolingRatio = 0.64
	c.ConvSizes = []int{32, 32, 32, 32}
	c.Conv2DChannels = 16
	c.DropoutRate = 0.1
	c.BatchSize = 10
	c.WeightDecay = 1e-4
	if yancfg {
		c.PoolingRatio = 0.2
		c.DropoutRate = 0.2
		c.WeightDecay = 5e-4
	}
	return c
}

func ampConfig(classes int) core.Config {
	return core.DefaultConfig(classes, acfg.NumAttributes)
}

// valFraction is magic-train's default validation split.
const valFraction = 0.2

// trainModel trains a fresh model on d the way magic-train does: a
// stratified validation split for model selection, two workers.
func trainModel(c core.Config, d *dataset.Dataset) (*core.Model, error) {
	train, val, err := d.TrainValSplit(valFraction, c.Seed)
	if err != nil {
		return nil, err
	}
	m, err := core.NewModel(c, train.Sizes())
	if err != nil {
		return nil, err
	}
	if _, err := core.Train(m, train, val, core.TrainOptions{Workers: servingWorkers}); err != nil {
		return nil, err
	}
	return m, nil
}

// extractASM runs the serving path's extraction: parse, CFG, Table I
// attributes.
func extractASM(text string) (*acfg.ACFG, error) {
	p, err := asm.ParseString(text)
	if err != nil {
		return nil, err
	}
	c := cfg.Build(p)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return acfg.FromCFG(c), nil
}
