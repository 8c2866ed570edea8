package emu_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/emu"
)

// runAsGroups is emu.Run spelled as the distributed runtime spells it, minus
// the transport: one DistLocal per engine group, one DistMerge, and the
// coordinator's window loop over them with direct calls.
func runAsGroups(cfg emu.Config, groups [][]int) (*emu.Result, error) {
	merge, err := emu.NewDistMerge(cfg)
	if err != nil {
		return nil, err
	}
	locals := make([]*emu.DistLocal, len(groups))
	groupOf := make([]int, cfg.NumEngines)
	for g, engines := range groups {
		if locals[g], err = emu.NewDistLocal(cfg, engines, nil); err != nil {
			return nil, err
		}
		defer locals[g].Close()
		for _, e := range engines {
			groupOf[e] = g
		}
	}
	grid := des.Grid{Lookahead: merge.Lookahead(), EndTime: cfg.EndTime}
	var outbox []emu.WireEvent // globally sorted, from the last barrier
	shares := make([][]emu.WireEvent, len(groups))
	reports := make([]*emu.WindowReport, len(groups))
	start := time.Now()
	for {
		for g := range shares {
			shares[g] = shares[g][:0]
		}
		for _, ev := range outbox {
			shares[groupOf[ev.Dst]] = append(shares[groupOf[ev.Dst]], ev)
		}
		outbox = outbox[:0]
		minT, has := 0.0, false
		for g, l := range locals {
			if err := l.Inject(shares[g]); err != nil {
				return nil, err
			}
			if t, ok := l.Vote(); ok && (!has || t < minT) {
				minT, has = t, true
			}
		}
		T, end, skipped, ok := grid.Next(minT, has)
		if !ok {
			break
		}
		for g, l := range locals {
			if reports[g], err = l.Step(T, end); err != nil {
				return nil, err
			}
			outbox = append(outbox, reports[g].Outbox...)
		}
		emu.SortWire(outbox)
		if _, err := merge.CommitWindow(T, end, skipped, reports); err != nil {
			return nil, err
		}
	}
	finals := make([]*emu.ElasticExport, len(locals))
	for g, l := range locals {
		if finals[g], err = l.Export(0, false); err != nil {
			return nil, err
		}
	}
	return merge.Finalize(finals, time.Since(start))
}

// BenchmarkRunAsDistGroups answers ROADMAP's "could emu.Run be N DistLocal
// groups and a DistMerge, so that commit is the only barrier code?" with a
// number anyone can reproduce: the bench's replay_teragrid_seq inputs
// (TeraGrid, 600 s, seed 42, 5 engines) through emu.Run, through
// one group of all five engines, and through one group per engine — exported
// API only, set-up included, canonical results required byte-equal. The bar
// was 1.1× emu.Run; see ROADMAP.md for what it measured.
func BenchmarkRunAsDistGroups(b *testing.B) {
	cfg := topConfig(b, "TeraGrid", 600)
	all, each := make([]int, cfg.NumEngines), make([][]int, cfg.NumEngines)
	for e := range all {
		all[e], each[e] = e, []int{e}
	}
	var want []byte
	for _, shape := range []struct {
		name   string
		groups [][]int // nil: emu.Run itself
	}{{"Run", nil}, {"OneGroup", [][]int{all}}, {"GroupPerEngine", each}} {
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var res *emu.Result
				var err error
				if shape.groups == nil {
					res, err = emu.Run(cfg)
				} else {
					res, err = runAsGroups(cfg, shape.groups)
				}
				if err != nil {
					b.Fatal(err)
				}
				got, err := dist.ResultJSON(res)
				if err != nil {
					b.Fatal(err)
				}
				if want == nil {
					want = got
				}
				if !bytes.Equal(got, want) {
					b.Fatalf("%s: canonical result diverges from emu.Run", shape.name)
				}
			}
		})
	}
}
