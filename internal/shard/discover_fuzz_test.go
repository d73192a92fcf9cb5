package shard

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/tane"
)

// fuzzDiscoverInput decodes fuzz bytes into a table of at most 8 columns and
// 64 rows plus a discovery configuration. The first bytes pick the
// configuration (validator, bidirectional search, removal sets, ε), the
// width and the height, then one spec byte per column; the rest are cell
// values, read in a cycle. A column is either independent, over a domain
// of 2–6 values, or a function of an earlier column, exactly or with one
// row changed, or of two earlier ones, so the tables hold exact FDs,
// approximate ones, and the contexts the exact-FD rule skips.
func fuzzDiscoverInput(data []byte) (*dataset.Table, core.Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	mode := next()
	cfg := core.Config{
		Validator:          core.ValidatorKind(mode % 3),
		Bidirectional:      mode&4 != 0,
		CollectRemovalSets: mode&8 != 0,
		IncludeOFDs:        true,
		Threshold:          float64(next()%41) / 200,
	}
	cols := 1 + int(next()%8)
	rows := int(next() % 65)
	specs := make([]byte, cols)
	for j := range specs {
		specs[j] = next()
	}
	vals, at := data, 0
	val := func() int64 {
		if len(vals) == 0 {
			return 0
		}
		v := vals[at%len(vals)]
		at++
		return int64(v)
	}
	columns := make([][]int64, cols)
	b := dataset.NewBuilder()
	for j, spec := range specs {
		col := make([]int64, rows)
		dom := 2 + int64(spec>>5)%5
		src := columns[0]
		if j > 0 {
			src = columns[int(spec>>2)%j]
		}
		// f maps a source value into dom values, rarely monotonically.
		m := 1 + int64(spec>>3)%(dom-1)
		f := func(v int64) int64 { return (v*m + int64(spec>>6)) % dom }
		switch kind := spec % 4; {
		case j == 0 || kind == 0:
			for i := range col {
				col[i] = val() % dom
			}
		case kind == 3 && j > 1:
			other := columns[(int(spec>>2)+1)%j]
			for i := range col {
				col[i] = f(src[i]*7 + other[i])
			}
		default:
			for i := range col {
				col[i] = f(src[i])
			}
			if kind == 2 && rows > 0 {
				r := int(val()) % rows
				col[r] = (col[r] + 1) % dom
			}
		}
		columns[j] = col
		b.AddInts(fmt.Sprintf("c%d", j), col)
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err) // equal-length integer columns always build
	}
	return tbl, cfg
}

// FuzzDiscover checks discovery end to end on small tables:
//   - the pruned run reports the OCs and OFDs of the exhaustive walk
//     (DisablePruning), removal rows included;
//   - Serial ≡ Pool(2) ≡ Sharded over a two-worker loopback, on whole
//     results with every non-timing stat;
//   - under the exact and optimal validators, the dependencies and their
//     removal counts equal the brute-force core.ReferenceDiscover's;
//   - the OFDs equal TANE's minimal FDs, errors included.
//
// Its seeds (discoverSeeds) hold tables on which the exact-FD rule fires and
// one whose FD holds only approximately.
func FuzzDiscover(f *testing.F) {
	for _, seed := range discoverSeeds {
		f.Add(seed.data)
	}
	pool := Loopback(2)
	defer pool.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, cfg := fuzzDiscoverInput(data)
		run := func(exec core.Executor, c core.Config) *core.Result {
			res, err := core.Pipeline{Executor: exec}.Run(context.Background(), tbl, c)
			if err != nil {
				t.Fatal(err)
			}
			res.Stats.ValidationTime, res.Stats.PartitionTime, res.Stats.TotalTime = 0, 0, 0
			normalizeRemovals(res)
			return res
		}
		serial := run(core.Serial(), cfg)
		for name, exec := range map[string]core.Executor{
			"pool-2":      core.Pool(2),
			"sharded-lb2": core.Sharded(pool),
		} {
			if got := run(exec, cfg); !reflect.DeepEqual(serial, got) {
				t.Fatalf("%+v: %s differs from serial:\nserial %+v\n%s %+v", cfg, name, serial, name, got)
			}
		}

		abl := cfg
		abl.DisablePruning = true
		walk := run(core.Serial(), abl)
		if !reflect.DeepEqual(serial.OCs, walk.OCs) || !reflect.DeepEqual(serial.OFDs, walk.OFDs) {
			t.Fatalf("%+v: pruned run differs from the exhaustive walk:\npruned %v %v\nwalk   %v %v",
				cfg, serial.OCs, serial.OFDs, walk.OCs, walk.OFDs)
		}

		if cfg.Validator != core.ValidatorIterative {
			ref, err := core.ReferenceDiscover(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := depKeys(serial), depKeys(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: dependencies differ from the reference:\ngot  %v\nwant %v", cfg, got, want)
			}
		}

		eps := cfg.Threshold
		if cfg.Validator == core.ValidatorExact {
			eps = 0
		}
		fds, err := tane.Discover(tbl, tane.Config{Threshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]float64, len(fds.FDs))
		for _, fd := range fds.FDs {
			want[fmt.Sprintf("%d->%d", uint64(fd.LHS), fd.RHS)] = fd.Error
		}
		if len(want) != len(serial.OFDs) {
			t.Fatalf("%+v: %d OFDs, TANE finds %d FDs\nofds %v\ntane %v", cfg, len(serial.OFDs), len(want), serial.OFDs, fds.FDs)
		}
		for _, d := range serial.OFDs {
			e, ok := want[fmt.Sprintf("%d->%d", uint64(d.Context), d.A)]
			if !ok || math.Abs(e-d.Error) > 1e-9 {
				t.Fatalf("%+v: OFD %v not among TANE's FDs %v", cfg, d, fds.FDs)
			}
		}
	})
}

// discoverSeeds are FuzzDiscover's inline seeds, with the exact-FD skips
// each makes (TestDiscoverSeedsExerciseTheRule holds them to it).
var discoverSeeds = []struct {
	name string
	data []byte
	// skips says whether the exact-FD rule fires on the seed.
	skips bool
}{
	// Column 1 is an exact function of column 0, columns 2 and 3 are
	// independent: the rule skips every candidate over a context holding
	// columns 0 and 1.
	{"exact-fd", []byte{0, 20, 4, 40, 0x80, 0x29, 0x60, 0x40, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8, 4, 1, 9, 7, 1, 6, 9, 3, 9, 9, 3, 7, 5, 1}, true},
	// The same under the optimal validator at ε 0.10, bidirectional and
	// with removal sets: the zero-removal OFD makes the same skips.
	{"exact-fd-optimal", []byte{13, 20, 4, 40, 0x80, 0x29, 0x60, 0x40, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8, 4, 1, 9, 7, 1, 6, 9, 3, 9, 9, 3, 7, 5, 1}, true},
	// Column 1 with one row changed, under the optimal validator at
	// ε 0.10: the FD holds only approximately, so nothing is skipped.
	{"approximate-fd", []byte{1, 20, 4, 40, 0x80, 0x2a, 0x60, 0x40, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8, 4, 1, 9, 7, 1, 6, 9, 3, 9, 9, 3, 7, 5, 1}, false},
}

// TestDiscoverSeedsExerciseTheRule keeps FuzzDiscover's seeds meaningful:
// the rule fires on the seeds meant to show it and on no other.
func TestDiscoverSeedsExerciseTheRule(t *testing.T) {
	for _, seed := range discoverSeeds {
		tbl, cfg := fuzzDiscoverInput(seed.data)
		res, err := core.Discover(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		t.Logf("%s: %d×%d %v, %d OC / %d OFD candidates, %d / %d skipped for an exact FD, %d OFDs",
			seed.name, tbl.NumRows(), tbl.NumCols(), cfg.Validator, st.OCCandidates, st.OFDCandidates,
			st.OCSkippedFD, st.OFDSkippedFD, len(res.OFDs))
		if fired := st.OCSkippedFD+st.OFDSkippedFD > 0; fired != seed.skips {
			t.Errorf("%s: exact-FD skips %d / %d, want skips: %v", seed.name, st.OCSkippedFD, st.OFDSkippedFD, seed.skips)
		}
	}
}

// depKey identifies a dependency with its removal count; B is -1 for OFDs.
type depKey struct {
	ctx      uint64
	a, b     int
	desc     bool
	removals int
}

func depKeys(r *core.Result) map[depKey]bool {
	m := make(map[depKey]bool, len(r.OCs)+len(r.OFDs))
	for _, d := range r.OCs {
		m[depKey{uint64(d.Context), d.A, d.B, d.Descending, d.Removals}] = true
	}
	for _, d := range r.OFDs {
		m[depKey{uint64(d.Context), d.A, -1, false, d.Removals}] = true
	}
	return m
}
