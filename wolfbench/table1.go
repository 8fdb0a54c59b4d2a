package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"wolf/internal/core"
	"wolf/internal/obs"
	"wolf/internal/workloads"
)

// table1Skip are Table 1 rows left out of the table1 workload: one
// Jigsaw row takes about 18 seconds of replay across both tools, more
// than a whole measured run.
var table1Skip = map[string]bool{"Jigsaw": true}

// table1WarmOps is the table1 workload's warm-up: each operation
// regenerates the table once, so this checks every row that often
// before the measured window.
const table1WarmOps = 20

// replayAttempts is the per-cycle reproduction budget of the paper
// campaign (cmd/paper's default).
const replayAttempts = 5

type table1Row struct {
	wl   workloads.Workload
	seed int64
}

// table1Rows finds each row's detection seed the way the paper
// campaign does: the smallest seed whose recorded run terminates. It
// is part of the campaign's set-up.
func table1Rows() ([]table1Row, error) {
	var rows []table1Row
	for _, wl := range workloads.All() {
		if table1Skip[wl.Name] {
			continue
		}
		seed, ok := workloads.FindTerminatingSeed(wl.New, 300)
		if !ok {
			return nil, fmt.Errorf("%s: no terminating detection seed", wl.Name)
		}
		rows = append(rows, table1Row{wl: wl, seed: seed})
	}
	return rows, nil
}

// table1Env regenerates Table 1: every row through WOLF and
// DeadlockFuzzer, with each row's counts checked against the paper's.
type table1Env struct {
	cfg  *Config
	rows []table1Row
	rng  *rand.Rand
}

func (e *table1Env) Verify() error { return nil }
func (e *table1Env) Close()        {}
func (e *table1Env) Down()         {}

// Up redoes the campaign's set-up, the seed search.
func (e *table1Env) Up() error {
	rows, err := table1Rows()
	if err == nil {
		e.rows = rows
	}
	return err
}

func (e *table1Env) Op(c, i int) (Sample, error) {
	var s Sample
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	start := time.Now()
	for _, k := range e.rng.Perm(len(e.rows)) {
		row := e.rows[k]
		ccfg := core.Config{DetectSeeds: []int64{row.seed}, ReplayAttempts: replayAttempts}
		wolf := core.AnalyzeCtx(ctx, row.wl.New, ccfg)
		df := core.AnalyzeDFCtx(ctx, row.wl.New, ccfg)
		if !matchesPaper(row.wl.Paper, wolf, df) {
			s.Wrong = true
		}
		s.Cycles += len(wolf.Cycles)
		s.Bare += wolf.Timings.Uninstrumented + df.Timings.Uninstrumented
	}
	s.Latency = time.Since(start)
	if !e.cfg.Trace {
		return s, nil
	}
	// Layers from the pipelines' own spans. The hand-off is the gap
	// between a recorded execution and the cycle search on its trace.
	var recordEnd time.Time
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case "record":
			s.Layers[LRecord] += sp.Dur
			s.Tuples += int(sp.Attr("tuples"))
			recordEnd = sp.Start.Add(sp.Dur)
		case "cycle-detect":
			s.Layers[LDeliver] += sp.Start.Sub(recordEnd)
		case "detect.reduce":
			s.Layers[LReduce] += sp.Dur
		case "detect.search":
			s.Layers[LSearch] += sp.Dur
		case "prune":
			s.Layers[LPrune] += sp.Dur
		case "generate":
			s.Layers[LGsBuild] += sp.Dur
		case "replay":
			s.Layers[LSettle] += sp.Dur
		}
	}
	return s, nil
}

// matchesPaper compares one row's defect-level counts with Table 1.
func matchesPaper(p workloads.PaperRow, wolf, df *core.Report) bool {
	pr, gen, tp, unk := wolf.CountDefects()
	_, _, tpDF, unkDF := df.CountDefects()
	return len(wolf.Defects) == p.Defects && pr == p.FPPruner && gen == p.FPGen &&
		tp == p.TPWolf && unk == p.UnkWolf && tpDF == p.TPDF && unkDF == p.UnkDF
}

func table1Workload() Workload {
	return Workload{
		Name:    "table1",
		Clients: 1,
		WarmOps: table1WarmOps,
		Setup: func(cfg *Config, _ any) (Env, error) {
			rows, err := table1Rows()
			if err != nil {
				return nil, err
			}
			return &table1Env{cfg: cfg, rows: rows, rng: rand.New(rand.NewPCG(uint64(cfg.Seed), 0))}, nil
		},
	}
}
