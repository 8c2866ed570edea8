// Command experiments regenerates the paper's evaluation: every table and
// figure of §4, printed as text tables and optionally written out as a
// complete EXPERIMENTS.md report.
//
// Usage:
//
//	experiments                     # run everything at the default scale
//	experiments -exp fig4           # one experiment only
//	experiments -full               # the paper's 600/900s durations
//	experiments -md EXPERIMENTS.md  # also write the markdown report
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "all | table1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10 | table2 | baselines | traffic | dynamic")
		duration = flag.Float64("duration", 120, "virtual duration per emulation (seconds)")
		full     = flag.Bool("full", false, "use the paper's durations (ScaLapack 600s, GridNPB 900s)")
		seed     = flag.Int64("seed", 42, "experiment seed")
		mdPath   = flag.String("md", "", "write the full markdown report to this file (implies -exp all)")
		csvDir   = flag.String("csv", "", "write plot-ready CSV files for every figure to this directory (implies -exp all)")
	)
	flag.Parse()

	cfg := experiments.Config{Duration: *duration, Full: *full, Seed: *seed}

	if *mdPath != "" || *csvDir != "" {
		*exp = "all"
	}

	switch *exp {
	case "all":
		start := time.Now()
		report, err := experiments.All(cfg)
		if err != nil {
			fatal(err)
		}
		// On stderr, so two runs print the same report bytes.
		fmt.Fprintf(os.Stderr, "generated in %s\n", time.Since(start).Round(time.Millisecond))
		md := report.Markdown()
		fmt.Print(md)
		if *mdPath != "" {
			if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *mdPath)
		}
		if *csvDir != "" {
			if err := experiments.WriteCSV(*csvDir, report); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote CSV files to %s\n", *csvDir)
		}
	case "table1":
		out, err := experiments.Table1(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "fig2":
		s, err := experiments.Fig2(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Load variation over the lifetime of the emulation (per-engine kernel events per bucket):")
		fmt.Print(s.String())
	case "fig4", "fig6", "fig9":
		s, err := experiments.RunSuite("ScaLapack", cfg)
		if err != nil {
			fatal(err)
		}
		printFig(*exp, s)
	case "fig5", "fig7", "fig10":
		s, err := experiments.RunSuite("GridNPB", cfg)
		if err != nil {
			fatal(err)
		}
		printFig(*exp, s)
	case "fig3":
		fmt.Print(experiments.Fig3())
	case "fig8":
		s, err := experiments.RunSuite("GridNPB", cfg)
		if err != nil {
			fatal(err)
		}
		f, err := experiments.Fig8(s)
		if err != nil {
			fatal(err)
		}
		fmt.Print(f.Render())
	case "traffic":
		s, err := experiments.RunSuite("GridNPB", cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FigCrossTraffic(s))
		fmt.Println()
		tl, err := experiments.FigTrafficTimeline(s, "Campus")
		if err != nil {
			fatal(err)
		}
		fmt.Print(tl)
	case "table2":
		rows, err := experiments.Table2(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderTable2(rows))
	case "baselines":
		rows, err := experiments.Baselines(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderBaselines(rows))
	case "dynamic":
		rows, err := experiments.DynamicStudy(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderDynamicStudy(rows))
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func printFig(exp string, s *experiments.Suite) {
	switch exp {
	case "fig4", "fig5":
		fmt.Print(experiments.FigImbalance(s))
		fmt.Println()
		fmt.Print(experiments.SuiteBars(s, "load imbalance", func(c experiments.Cell) float64 { return c.Imbalance }))
	case "fig6", "fig7":
		fmt.Print(experiments.FigAppTime(s))
		fmt.Println()
		fmt.Print(experiments.SuiteBars(s, "application emulation time (s)", func(c experiments.Cell) float64 { return c.AppTime }))
	case "fig9", "fig10":
		fmt.Print(experiments.FigNetTime(s))
		fmt.Println()
		fmt.Print(experiments.SuiteBars(s, "isolated network emulation time (s)", func(c experiments.Cell) float64 { return c.NetTime }))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
