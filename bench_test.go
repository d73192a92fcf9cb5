// Benchmarks regenerating the paper's evaluation, one target per table or
// figure (scaled workloads — run cmd/aodbench for the full harness with
// paper-sized grids):
//
//	BenchmarkFigure2TupleScaling    — Exp-1, runtime vs |r| per algorithm
//	BenchmarkFigure3AttrScaling     — Exp-2, runtime vs |R| per algorithm
//	BenchmarkFigure4Threshold       — Exp-3, runtime vs ε per algorithm
//	BenchmarkFigure5LatticeLevels   — Exp-5, exact vs approximate full runs
//	BenchmarkValidateAOC*           — the isolated validators (the paper's
//	                                  O(n log n) vs O(n log n + εn²) claim)
//	BenchmarkLNDS / BenchmarkInversionCounts / BenchmarkPartitionProduct /
//	BenchmarkApproxOFD              — substrate micro-benchmarks
package aod

import (
	"context"
	"fmt"
	"testing"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/lis"
	"aod/internal/partition"
	"aod/internal/validate"
)

func benchDiscover(b *testing.B, tbl *dataset.Table, vk core.ValidatorKind, eps float64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Discover(tbl, core.Config{Threshold: eps, Validator: vk})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFigure2TupleScaling measures full discovery runtime as the number
// of tuples grows (Exp-1 / Figure 2), for all three algorithm configurations.
func BenchmarkFigure2TupleScaling(b *testing.B) {
	for _, ds := range []string{"flight", "ncvoter"} {
		for _, n := range []int{1000, 2000, 4000} {
			var tbl *dataset.Table
			if ds == "flight" {
				tbl = gen.Flight(gen.FlightConfig{Rows: n, Attrs: 10, Seed: 42})
			} else {
				tbl = gen.NCVoter(gen.NCVoterConfig{Rows: n, Attrs: 10, Seed: 42})
			}
			b.Run(fmt.Sprintf("%s/OD/n=%d", ds, n), func(b *testing.B) {
				benchDiscover(b, tbl, core.ValidatorExact, 0)
			})
			b.Run(fmt.Sprintf("%s/AODOptimal/n=%d", ds, n), func(b *testing.B) {
				benchDiscover(b, tbl, core.ValidatorOptimal, 0.10)
			})
			b.Run(fmt.Sprintf("%s/AODIterative/n=%d", ds, n), func(b *testing.B) {
				benchDiscover(b, tbl, core.ValidatorIterative, 0.10)
			})
		}
	}
}

// BenchmarkFigure3AttrScaling measures discovery runtime as the number of
// attributes grows at a fixed 500 tuples (Exp-2 / Figure 3; the paper uses
// 1K tuples and up to 35 attributes).
func BenchmarkFigure3AttrScaling(b *testing.B) {
	for _, ds := range []string{"flight", "ncvoter"} {
		for _, attrs := range []int{4, 6, 8, 10} {
			var tbl *dataset.Table
			if ds == "flight" {
				tbl = gen.Flight(gen.FlightConfig{Rows: 500, Attrs: attrs, Seed: 42})
			} else {
				tbl = gen.NCVoter(gen.NCVoterConfig{Rows: 500, Attrs: attrs, Seed: 42})
			}
			b.Run(fmt.Sprintf("%s/OD/attrs=%d", ds, attrs), func(b *testing.B) {
				benchDiscover(b, tbl, core.ValidatorExact, 0)
			})
			b.Run(fmt.Sprintf("%s/AODOptimal/attrs=%d", ds, attrs), func(b *testing.B) {
				benchDiscover(b, tbl, core.ValidatorOptimal, 0.10)
			})
			b.Run(fmt.Sprintf("%s/AODIterative/attrs=%d", ds, attrs), func(b *testing.B) {
				benchDiscover(b, tbl, core.ValidatorIterative, 0.10)
			})
		}
	}
}

// BenchmarkFigure4Threshold measures discovery runtime as the approximation
// threshold grows (Exp-3 / Figure 4): the optimal validator should stay flat
// while the iterative one grows roughly linearly in ε.
func BenchmarkFigure4Threshold(b *testing.B) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 2000, Attrs: 10, Seed: 42})
	for _, eps := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25} {
		b.Run(fmt.Sprintf("AODOptimal/eps=%.0f%%", eps*100), func(b *testing.B) {
			benchDiscover(b, tbl, core.ValidatorOptimal, eps)
		})
		b.Run(fmt.Sprintf("AODIterative/eps=%.0f%%", eps*100), func(b *testing.B) {
			benchDiscover(b, tbl, core.ValidatorIterative, eps)
		})
	}
}

// BenchmarkFigure5LatticeLevels measures the exact-vs-approximate runtime
// effect of finding dependencies at lower lattice levels (Exp-5 / Figure 5).
func BenchmarkFigure5LatticeLevels(b *testing.B) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 5000, Attrs: 10, Seed: 42})
	b.Run("OD", func(b *testing.B) { benchDiscover(b, tbl, core.ValidatorExact, 0) })
	b.Run("AODOptimal", func(b *testing.B) { benchDiscover(b, tbl, core.ValidatorOptimal, 0.10) })
}

// --- Isolated validators (Exp-3's complexity claim) -------------------------

func validatorWorkload(n int) (*partition.Stripped, *dataset.Column, *dataset.Column) {
	tbl := gen.CorrelatedPair(n, 0.10, 42)
	return partition.Universe(n), tbl.Column(0), tbl.Column(1)
}

// BenchmarkValidateAOCOptimal isolates Algorithm 2 on both sides of the
// threshold. n=… times a candidate that holds (ε 0.15), the swap-matching
// bound's worst case: it scans every row, then the O(n log n) count runs
// anyway. reject/n=… times independent uniform columns at ε 0.10, which the
// bound rejects before any sort.
func BenchmarkValidateAOCOptimal(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000} {
		ctx, ca, cb := validatorWorkload(n)
		v := validate.New()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.OptimalAOC(ctx, ca, cb, validate.Options{Threshold: 0.15})
			}
		})
		uni := gen.Uniform(n, 2, n, 42)
		b.Run(fmt.Sprintf("reject/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.OptimalAOC(ctx, uni.Column(0), uni.Column(1), validate.Options{Threshold: 0.10})
			}
		})
	}
}

// BenchmarkValidateAOCIterative isolates Algorithm 1: the εn² term dominates
// as n grows (the 100K case removes ~10K tuples at O(n) each).
func BenchmarkValidateAOCIterative(b *testing.B) {
	for _, n := range []int{1000, 10_000, 30_000} {
		ctx, ca, cb := validatorWorkload(n)
		v := validate.New()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.IterativeAOC(ctx, ca, cb, validate.Options{Threshold: 0.15})
			}
		})
	}
}

// BenchmarkValidateOCExact isolates the exact check (linear after sorting).
// BenchmarkValidateOCExact times exact OC validation. n=… sorts the universe
// context's one class for a candidate that fails. The other cases time a
// candidate that holds, so each route does its full work, on both sides of
// the engine's class-size cut (core's scanMinClassRows): sort/n=… and
// scan/n=… validate it in the universe context, small/n=… and
// small/scan/n=… in a context of 8-row classes. The scan cases leave out
// the context's class ids, which discovery builds once per context.
func BenchmarkValidateOCExact(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000} {
		ctx, ca, cb := validatorWorkload(n)
		v := validate.New()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.ExactOC(ctx, ca, cb)
			}
		})
		hold := gen.CorrelatedPair(n, 0, 42)
		ha, hb := hold.Column(0), hold.Column(1)
		order := validate.NewTableOrders(hold).Order(0)
		eights := make([]int64, n)
		for i := range eights {
			eights[i] = int64(i / 8)
		}
		smallTbl, err := dataset.NewBuilder().AddInts("c", eights).Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			sort, scan string
			ctx        *partition.Stripped
		}{
			{"sort/n=%d", "scan/n=%d", ctx},
			{"small/n=%d", "small/scan/n=%d", partition.Single(smallTbl.Column(0))},
		} {
			b.Run(fmt.Sprintf(c.sort, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.ExactOC(c.ctx, ha, hb)
				}
			})
			ids := c.ctx.ClassIDs()
			b.Run(fmt.Sprintf(c.scan, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.ExactOCScan(ids, c.ctx.NumClasses(), order, ha, hb)
				}
			})
		}
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkLNDS(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000} {
		tbl := gen.CorrelatedPair(n, 0.10, 42)
		seq := tbl.Column(1).Ranks()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lis.LNDS(seq)
			}
		})
	}
}

func BenchmarkInversionCounts(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000} {
		tbl := gen.CorrelatedPair(n, 0.10, 42)
		seq := tbl.Column(1).Ranks()
		maxRank := int32(tbl.Column(1).NumDistinct())
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lis.InversionCounts(seq, maxRank)
			}
		})
	}
}

func BenchmarkPartitionProduct(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		tbl := gen.NCVoter(gen.NCVoterConfig{Rows: n, Attrs: 4, Seed: 42})
		p0 := partition.Single(tbl.Column(3)) // municipality (moderate domain)
		p1 := partition.Single(tbl.Column(1)) // age
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p0.Product(p1)
			}
		})
	}
}

// BenchmarkPartitionSplit times the split the partition memo builds every
// context partition with (Arena.Split) on ncvoter columns. "noop" splits
// Π_municipality by zip, which municipality determines, so the split divides
// no class; "divide" splits it by age. Either way the split is a fresh
// partition, never its base, and every output goes back to the arena, as
// the memo's dropped generations do.
func BenchmarkPartitionSplit(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		tbl := gen.NCVoter(gen.NCVoterConfig{Rows: n, Attrs: 8, Seed: 42})
		base := partition.Single(tbl.Column(3)) // municipality
		for _, c := range []struct {
			name string
			col  int
		}{{"noop", 7}, {"divide", 1}} { // zip, age
			col := tbl.Column(c.col)
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				var a partition.Arena
				p := a.Split(base, col)
				if p == base {
					b.Fatalf("split by column %d returned its base", c.col)
				}
				a.Recycle(p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Recycle(a.Split(base, col))
				}
			})
		}
	}
}

func BenchmarkApproxOFD(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		tbl := gen.NCVoter(gen.NCVoterConfig{Rows: n, Attrs: 4, Seed: 42})
		ctx := partition.Single(tbl.Column(3))
		col := tbl.Column(1)
		v := validate.New()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.ApproxOFD(ctx, col, validate.Options{Threshold: 0.1})
			}
		})
	}
}

// --- Ablations (DESIGN.md design choices) ------------------------------------

// BenchmarkAblationPruning measures the benefit of the minimality/constancy
// candidate pruning (Exp-5's mechanism): identical output, strictly more
// validations when disabled.
func BenchmarkAblationPruning(b *testing.B) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 2000, Attrs: 8, Seed: 42})
	b.Run("pruning=on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Discover(tbl, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruning=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Discover(tbl, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, DisablePruning: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSampling times default approximate discovery (ε 0.10) on
// the table the retired hybrid-sampling pre-filter was measured on; "off" is
// the configuration its strides were compared against.
func BenchmarkAblationSampling(b *testing.B) {
	tbl := gen.Flight(gen.FlightConfig{Rows: 8000, Attrs: 8, Seed: 42})
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Discover(tbl, core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSortedScan times exact discovery, which picks the
// sorted-partition scan or the per-class sort for each OC candidate from its
// context, on a wide-context shape (Flight 20000×8, where contexts cover most
// rows and the scan wins) and a deep one (ncvoter 7000×14, 13 levels of
// contexts that cover few rows, where sorting the classes wins).
func BenchmarkAblationSortedScan(b *testing.B) {
	for _, w := range []struct {
		name string
		tbl  *dataset.Table
	}{
		{"flight-20000x8", gen.Flight(gen.FlightConfig{Rows: 20000, Attrs: 8, Seed: 42})},
		{"ncvoter-7000x14", gen.NCVoter(gen.NCVoterConfig{Rows: 7000, Attrs: 14, Seed: 42})},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Discover(w.tbl, core.Config{Validator: core.ValidatorExact}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelWorkers measures the level-parallel engine (the
// distributed-discovery extension after [8]).
func BenchmarkParallelWorkers(b *testing.B) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 5000, Attrs: 10, Seed: 42})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal}
				if _, err := (core.Pipeline{Executor: core.Pool(workers)}).Run(context.Background(), tbl, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicDiscover exercises the public API end to end.
func BenchmarkPublicDiscover(b *testing.B) {
	ds := Flight(2000, 10, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(ds, Options{Threshold: 0.10}); err != nil {
			b.Fatal(err)
		}
	}
}
