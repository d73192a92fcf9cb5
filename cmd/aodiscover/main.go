// Command aodiscover discovers (approximate) order dependencies in a CSV
// file.
//
// Usage:
//
//	aodiscover [-threshold 0.1] [-algorithm optimal|exact|iterative]
//	           [-max-level N] [-ofds] [-removals] [-max-rows N]
//	           [-columns a,b,c] [-top N] [-json] [-trace] file.csv
//
// Example:
//
//	aodiscover -threshold 0.10 -ofds employees.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aod"
	"aod/internal/telemetry"
)

func main() {
	threshold := flag.Float64("threshold", 0.10, "approximation threshold ε in [0,1]")
	algorithm := flag.String("algorithm", "optimal", "validator: optimal, exact, iterative")
	maxLevel := flag.Int("max-level", 0, "bound on the lattice level (0 = unbounded)")
	ofds := flag.Bool("ofds", false, "also report order functional dependencies")
	removals := flag.Bool("removals", false, "print removal-set row indexes (error repair candidates)")
	maxRows := flag.Int("max-rows", 0, "limit the number of CSV rows read (0 = all)")
	columns := flag.String("columns", "", "comma-separated column subset to profile")
	top := flag.Int("top", 0, "print only the N most interesting dependencies (0 = all)")
	timeLimit := flag.Duration("time-limit", 0, "abort discovery after this duration")
	bidirectional := flag.Bool("bidirectional", false, "also search mixed-direction OCs (A ∼ B↓)")
	parallelism := flag.Int("parallelism", 0, "validate each lattice level across N workers (0 = sequential)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (the same stable schema the aodserver API returns)")
	traceOut := flag.Bool("trace", false, "print a per-stage timing breakdown (partition build, each lattice level) to stderr after discovery")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aodiscover [flags] file.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var alg aod.Algorithm
	if err := alg.UnmarshalText([]byte(strings.ToLower(*algorithm))); err != nil {
		fmt.Fprintln(os.Stderr, "aodiscover:", err)
		os.Exit(2)
	}

	opts := aod.CSVOptions{MaxRows: *maxRows}
	if *columns != "" {
		opts.Columns = strings.Split(*columns, ",")
	}
	ds, err := aod.ReadCSVFile(flag.Arg(0), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aodiscover:", err)
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("loaded %s\n", ds)
	}

	// -trace records the discovery stages (partition build, each lattice
	// level) as spans and prints the tree once the run finishes. The trace
	// rides the context, so the plain Discover path stays untouched.
	ctx := context.Background()
	var tr *telemetry.Trace
	var rootSpan *telemetry.ActiveSpan
	if *traceOut {
		tr = telemetry.NewTrace("aodiscover")
		rootSpan = tr.Start(0, "discover")
		ctx = telemetry.NewContext(ctx, tr, rootSpan.ID())
	}

	rep, err := aod.DiscoverContext(ctx, ds, aod.Options{
		Threshold:          *threshold,
		Algorithm:          alg,
		MaxLevel:           *maxLevel,
		IncludeOFDs:        *ofds,
		CollectRemovalSets: *removals,
		TimeLimit:          *timeLimit,
		Bidirectional:      *bidirectional,
		Parallelism:        *parallelism,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aodiscover:", err)
		os.Exit(1)
	}
	if *traceOut {
		rootSpan.End()
		tr.WriteText(os.Stderr)
	}

	// -top truncation is shared by both output formats.
	totalOCs, totalOFDs := len(rep.OCs), len(rep.OFDs)
	if *top > 0 {
		if len(rep.OCs) > *top {
			rep.OCs = rep.OCs[:*top]
		}
		if len(rep.OFDs) > *top {
			rep.OFDs = rep.OFDs[:*top]
		}
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aodiscover:", err)
			os.Exit(1)
		}
		return
	}

	st := rep.Stats
	fmt.Printf("discovery: %s total (%.1f%% validation), %d nodes, %d OC / %d OFD candidates (%d / %d skipped: exact FD in context)",
		st.TotalTime.Round(time.Millisecond), st.ValidationShare()*100,
		st.NodesProcessed, st.OCCandidates, st.OFDCandidates, st.OCSkippedFD, st.OFDSkippedFD)
	if st.TimedOut {
		fmt.Print(" [TIMED OUT — partial results]")
	}
	fmt.Println()

	ocs := rep.OCs
	fmt.Printf("\n%d order compatibilities (showing %d):\n", totalOCs, len(ocs))
	for _, oc := range ocs {
		fmt.Printf("  %-60s score=%.3f level=%d\n", oc.String(), oc.Score, oc.Level)
		if *removals && len(oc.RemovalRows) > 0 {
			fmt.Printf("    removal rows: %v\n", truncateInts(oc.RemovalRows, 20))
		}
	}
	if *ofds {
		ofdList := rep.OFDs
		fmt.Printf("\n%d order functional dependencies (showing %d):\n", totalOFDs, len(ofdList))
		for _, ofd := range ofdList {
			fmt.Printf("  %-60s score=%.3f level=%d\n", ofd.String(), ofd.Score, ofd.Level)
			if *removals && len(ofd.RemovalRows) > 0 {
				fmt.Printf("    removal rows: %v\n", truncateInts(ofd.RemovalRows, 20))
			}
		}
	}
}

func truncateInts(v []int, n int) []int {
	if len(v) <= n {
		return v
	}
	return v[:n]
}
