package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
	"aod/internal/lattice"
	"aod/internal/shard"
)

// The exact-FD rule skips every candidate whose context X holds an exact FD
// X∖{c} → c. These tests pin it on a table with one derived column: x takes
// six values, c = f(x) for a fixed non-monotone f (except at the rows listed
// as exceptions), and y, z, w are independent uniform draws. The only exact
// FD among them is x → c, so the contexts that hold one are exactly the
// supersets of {x, c}.
const (
	colX = iota
	colC
	colY
	colZ
	colW
)

func derivedTable(t *testing.T, rows int, seed int64, exceptions ...int) *dataset.Table {
	t.Helper()
	f := [6]int64{2, 0, 1, 1, 0, 2}
	rng := rand.New(rand.NewSource(seed))
	x, c, y, z, w := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range x {
		x[i] = int64(rng.Intn(6))
		c[i] = f[x[i]]
		y[i], z[i], w[i] = int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(4))
	}
	for _, r := range exceptions {
		c[r] = (c[r] + 1) % 3
	}
	tbl, err := dataset.NewBuilder().AddInts("x", x).AddInts("c", c).
		AddInts("y", y).AddInts("z", z).AddInts("w", w).Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// fdContextCandidates counts the candidates of a numAttrs-wide lattice whose
// context holds all of ctx, less the OFDs on attributes in skipOFD (which
// minimality prunes first): OFDs X: [] ↦ d and OCs X: A ∼ B (times dirs)
// with X ⊇ ctx.
func fdContextCandidates(numAttrs int, ctx, skipOFD lattice.AttrSet, dirs int) (ofds, ocs int) {
	for s := uint64(1); s < 1<<uint(numAttrs); s++ {
		set := lattice.AttrSet(s)
		set.ForEach(func(a int) {
			if set.Remove(a).Union(ctx) == set.Remove(a) && !skipOFD.Has(a) {
				ofds++
			}
			set.ForEach(func(b int) {
				if a < b && set.Remove(a).Remove(b).Union(ctx) == set.Remove(a).Remove(b) {
					ocs += dirs
				}
			})
		})
	}
	return ofds, ocs
}

// runExecutors runs the configuration under Serial, Pool(2) and Sharded over
// a two-worker loopback, requires identical dependencies and non-timing
// stats, skip counters included, and returns the serial result.
func runExecutors(t *testing.T, tbl *dataset.Table, cfg core.Config) *core.Result {
	t.Helper()
	run := func(exec core.Executor) *core.Result {
		res, err := core.Pipeline{Executor: exec}.Run(context.Background(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.ValidationTime, res.Stats.PartitionTime, res.Stats.TotalTime = 0, 0, 0
		return res
	}
	want := run(core.Serial())
	for name, exec := range map[string]core.Executor{
		"pool-2":      core.Pool(2),
		"sharded-lb2": core.Sharded(shard.Loopback(2)),
	} {
		if got := run(exec); !reflect.DeepEqual(want, got) {
			t.Errorf("%s differs from serial:\nserial %+v\n%s %+v", name, want, name, got)
		}
	}
	return want
}

// levelCounts runs the exhaustive walk (DisablePruning) and returns, per
// level, the candidates pruning would validate and those it would validate
// without the exact-FD rule. The walk validates every candidate but keeps
// the pruned run's state and skip counters, so these are the pruned run's
// per-level numbers.
func levelCounts(t *testing.T, tbl *dataset.Table, cfg core.Config) (withRule, withoutRule []int) {
	t.Helper()
	cfg.DisablePruning = true
	var prev core.Stats
	sink := func(s core.Snapshot) {
		d := func(f func(core.Stats) int) int { return f(s.Stats) - f(prev) }
		validated := d(func(st core.Stats) int { return st.OCCandidates + st.OFDCandidates })
		older := d(func(st core.Stats) int {
			return st.OCSkippedMinimality + st.OCSkippedConstancy + st.OFDSkipped
		})
		fd := d(func(st core.Stats) int { return st.OCSkippedFD + st.OFDSkippedFD })
		withRule = append(withRule, validated-older-fd)
		withoutRule = append(withoutRule, validated-older)
		prev = s.Stats
	}
	if _, err := (core.Pipeline{Sink: sink}).Run(context.Background(), tbl, cfg); err != nil {
		t.Fatal(err)
	}
	return withRule, withoutRule
}

// firstFree returns the 1-based level of the first zero, or len+1.
func firstFree(counts []int) int {
	for i, c := range counts {
		if c == 0 {
			return i + 1
		}
	}
	return len(counts) + 1
}

// checkStop asserts the early stop the rule's argument predicts: the run
// ends at the first level where pruning validates nothing, and every deeper
// level of the exhaustive walk validates nothing either (holding an exact
// internal FD is upward-closed). It returns the level the run would stop
// at without the rule.
func checkStop(t *testing.T, label string, tbl *dataset.Table, cfg core.Config, res *core.Result) int {
	t.Helper()
	withRule, withoutRule := levelCounts(t, tbl, cfg)
	stop := firstFree(withRule)
	for l := stop; l <= len(withRule); l++ {
		if withRule[l-1] != 0 {
			t.Errorf("%s: level %d validates %d candidates after the free level %d", label, l, withRule[l-1], stop)
		}
	}
	wantLevels := min(stop, len(withRule))
	if res.Stats.LevelsProcessed != wantLevels || res.Stats.EarlyStopped != (stop < len(withRule)) {
		t.Errorf("%s: ran %d levels (early stop %v), the exhaustive walk predicts %d of %d",
			label, res.Stats.LevelsProcessed, res.Stats.EarlyStopped, wantLevels, len(withRule))
	}
	return firstFree(withoutRule)
}

// requireSameDependencies asserts the pruned run reports what the
// exhaustive walk reports.
func requireSameDependencies(t *testing.T, label string, tbl *dataset.Table, cfg core.Config, res *core.Result) {
	t.Helper()
	abl := cfg
	abl.DisablePruning = true
	walk, err := core.Discover(tbl, abl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.OCs, walk.OCs) || !reflect.DeepEqual(res.OFDs, walk.OFDs) {
		t.Errorf("%s: dependencies differ from the exhaustive walk:\npruned %v %v\nwalk   %v %v",
			label, res.OCs, res.OFDs, walk.OCs, walk.OFDs)
	}
}

// TestFDSkipDerivedColumnExact: under the exact validator every candidate
// whose context holds {x, c} is skipped and counted (the OFD on c is pruned
// by minimality first, x → c being valid at level 2), the reports equal the
// exhaustive walk and the brute-force reference, and the run stops where
// the argument predicts, under every executor.
func TestFDSkipDerivedColumnExact(t *testing.T) {
	tbl := derivedTable(t, 600, 1)
	for _, bidi := range []bool{false, true} {
		cfg := core.Config{Validator: core.ValidatorExact, IncludeOFDs: true, Bidirectional: bidi}
		res := runExecutors(t, tbl, cfg)
		dirs := 1
		if bidi {
			dirs = 2
		}
		ofds, ocs := fdContextCandidates(5, lattice.NewAttrSet(colX, colC), lattice.NewAttrSet(colC), dirs)
		if res.Stats.OFDSkippedFD != ofds || res.Stats.OCSkippedFD != ocs {
			t.Errorf("bidirectional=%v: skipped %d OFDs and %d OCs for their exact FD, want %d and %d",
				bidi, res.Stats.OFDSkippedFD, res.Stats.OCSkippedFD, ofds, ocs)
		}
		t.Logf("bidirectional=%v: skipped %d OFDs and %d OCs; %d levels", bidi, ofds, ocs, res.Stats.LevelsProcessed)
		requireSameDependencies(t, "exact", tbl, cfg, res)
		requireReference(t, tbl, cfg, res)
		checkStop(t, "exact", tbl, cfg, res)
	}
}

// TestFDSkipZeroRemovalOFDOptimal: under the optimal validator the OFD
// x → c, verified with zero removals, makes the same skips as under the
// exact validator.
func TestFDSkipZeroRemovalOFDOptimal(t *testing.T) {
	tbl := derivedTable(t, 600, 1)
	cfg := core.Config{Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true}
	res := runExecutors(t, tbl, cfg)
	ofds, ocs := fdContextCandidates(5, lattice.NewAttrSet(colX, colC), lattice.NewAttrSet(colC), 1)
	if res.Stats.OFDSkippedFD != ofds || res.Stats.OCSkippedFD != ocs {
		t.Errorf("skipped %d OFDs and %d OCs for their exact FD, want %d and %d",
			res.Stats.OFDSkippedFD, res.Stats.OCSkippedFD, ofds, ocs)
	}
	requireSameDependencies(t, "optimal", tbl, cfg, res)
	requireReference(t, tbl, cfg, res)
	checkStop(t, "optimal", tbl, cfg, res)
}

// TestFDSkipIgnoresApproximateFD: with one row breaking c = f(x), x → c is
// valid at ε 0.10 but not exact, so Π_X ≠ Π_{X∖{c}} and the rule must skip
// nothing. A rule reading ConstValid (the approximate OFDs) instead of the
// exact ones would skip here.
func TestFDSkipIgnoresApproximateFD(t *testing.T) {
	tbl := derivedTable(t, 600, 1, 17)
	for _, v := range []core.ValidatorKind{core.ValidatorOptimal, core.ValidatorIterative} {
		cfg := core.Config{Threshold: 0.10, Validator: v, IncludeOFDs: true}
		res := runExecutors(t, tbl, cfg)
		if res.Stats.OFDSkippedFD != 0 || res.Stats.OCSkippedFD != 0 {
			t.Errorf("%v: skipped %d OFDs and %d OCs for an approximate FD",
				v, res.Stats.OFDSkippedFD, res.Stats.OCSkippedFD)
		}
		found := false
		for _, d := range res.OFDs {
			found = found || (d.Context == lattice.NewAttrSet(colX) && d.A == colC && d.Removals == 1)
		}
		if !found {
			t.Fatalf("%v: x → c with one removal not reported: %v", v, res.OFDs)
		}
		requireSameDependencies(t, v.String(), tbl, cfg, res)
		if v == core.ValidatorOptimal {
			requireReference(t, tbl, cfg, res)
		}
	}
}

// TestFDSkipMovesTheEarlyStop: on a deep exact lattice the rule leaves whole
// levels without a candidate to validate, so the run stops levels earlier
// than it would without the rule, at the level the exhaustive walk
// predicts.
func TestFDSkipMovesTheEarlyStop(t *testing.T) {
	tbl := gen.NCVoter(gen.NCVoterConfig{Rows: 1000, Attrs: 10, Seed: 5})
	cfg := core.Config{Validator: core.ValidatorExact, IncludeOFDs: true}
	res := runExecutors(t, tbl, cfg)
	without := checkStop(t, "ncvoter", tbl, cfg, res)
	t.Logf("%d levels, %d without the rule; skipped %d OCs and %d OFDs for their exact FD",
		res.Stats.LevelsProcessed, without, res.Stats.OCSkippedFD, res.Stats.OFDSkippedFD)
	if res.Stats.LevelsProcessed >= without {
		t.Errorf("stopped after %d levels, no earlier than the %d the rule-free pruning reaches",
			res.Stats.LevelsProcessed, without)
	}
	if res.Stats.OCSkippedFD == 0 || res.Stats.OFDSkippedFD == 0 {
		t.Errorf("no skips on a deep exact lattice: %+v", res.Stats)
	}
	requireSameDependencies(t, "ncvoter", tbl, cfg, res)
}

// requireReference asserts the dependencies and their removal counts equal
// the brute-force reference's.
func requireReference(t *testing.T, tbl *dataset.Table, cfg core.Config, res *core.Result) {
	t.Helper()
	want, err := core.ReferenceDiscover(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		ctx     lattice.AttrSet
		a, b    int
		desc    bool
		removal int
	}
	set := func(r *core.Result) map[key]bool {
		m := map[key]bool{}
		for _, d := range r.OCs {
			m[key{d.Context, d.A, d.B, d.Descending, d.Removals}] = true
		}
		for _, d := range r.OFDs {
			m[key{d.Context, d.A, -1, false, d.Removals}] = true
		}
		return m
	}
	if got, ref := set(res), set(want); !reflect.DeepEqual(got, ref) {
		t.Errorf("dependencies differ from the reference:\ngot %v\nref %v", got, ref)
	}
}
