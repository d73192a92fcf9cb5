package core

import (
	"context"
	"testing"

	"aod/internal/gen"
)

// TestDiscoverAllocBudget pins the end-to-end allocation budget of a small
// discovery run under the serial and the pool executor. The partition arena,
// CSR layout, radix sort, validator scratch and reused tasks and results put
// the steady-state per-candidate cost at zero, so what remains is per-run
// setup (table partitions, lattice levels, result assembly, the pool's
// per-level goroutines) — this pin keeps future changes from silently
// reintroducing per-node or per-candidate garbage (the pre-CSR engine
// allocated ~30× more here).
func TestDiscoverAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful with -short")
	}
	tbl := gen.Flight(gen.FlightConfig{Rows: 500, Attrs: 6, Seed: 42})
	cfg := Config{Threshold: 0.10, Validator: ValidatorOptimal}
	for _, exec := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", Serial},
		{"pool", func() Executor { return Pool(2) }},
	} {
		run := func() {
			if _, err := (Pipeline{Executor: exec.mk()}).Run(context.Background(), tbl, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		got := testing.AllocsPerRun(5, run)
		t.Logf("%s allocations per run: %.0f", exec.name, got)
		// Measured ~466 serial on the CSR engine (was >12000 pre-CSR); the
		// slack absorbs runtime-version noise without letting per-node
		// garbage back in.
		const budget = 600
		if got > budget {
			t.Errorf("%s discovery allocates %.0f times per run, budget %d", exec.name, got, budget)
		}
	}
}
