package core

import (
	"fmt"
	"sort"
	"time"

	"aod/internal/lattice"
)

// OC is a discovered (approximate) canonical order compatibility
// X: A ∼ B (Def. 2.10).
type OC struct {
	// Context is the attribute set X.
	Context lattice.AttrSet
	// A and B are the order-compatible attribute indexes (A < B).
	A, B int
	// Descending marks a mixed-direction OC (A ascending, B descending),
	// discovered only under Config.Bidirectional.
	Descending bool
	// Error is the approximation factor e = |minimal removal set| / |r|
	// (as estimated by the configured validator).
	Error float64
	// Removals is the removal-set size behind Error.
	Removals int
	// Level is the lattice level at which the OC was found: |X| + 2.
	Level int
	// Score is the interestingness score (higher is more interesting); see
	// Score for the formula.
	Score float64
	// RemovalRows holds the removal set when Config.CollectRemovalSets.
	RemovalRows []int32
}

// String renders the OC in the canonical notation, e.g. "{pos}: exp ∼ sal";
// mixed-direction OCs carry a "↓" on the descending side.
func (d OC) String() string {
	return fmt.Sprintf("%s: %d ∼ %d%s (e=%.4f)", d.Context, d.A, d.B, d.descMark(), d.Error)
}

// Format renders the OC with column names.
func (d OC) Format(names []string) string {
	return fmt.Sprintf("%s: %s ∼ %s%s (e=%.4f)",
		d.Context.Format(names), names[d.A], names[d.B], d.descMark(), d.Error)
}

func (d OC) descMark() string {
	if d.Descending {
		return "↓"
	}
	return ""
}

// OFD is a discovered (approximate) order functional dependency
// X: [] ↦ A (Def. 2.11).
type OFD struct {
	// Context is the attribute set X.
	Context lattice.AttrSet
	// A is the attribute constant within each context class.
	A int
	// Error is the approximation factor (TANE g3).
	Error float64
	// Removals is the removal-set size behind Error.
	Removals int
	// Level is the lattice level at which the OFD was found: |X| + 1.
	Level int
	// Score is the interestingness score.
	Score float64
	// RemovalRows holds the removal set when Config.CollectRemovalSets.
	RemovalRows []int32
}

// String renders the OFD in canonical notation.
func (d OFD) String() string {
	return fmt.Sprintf("%s: [] ↦ %d (e=%.4f)", d.Context, d.A, d.Error)
}

// Format renders the OFD with column names.
func (d OFD) Format(names []string) string {
	return fmt.Sprintf("%s: [] ↦ %s (e=%.4f)", d.Context.Format(names), names[d.A], d.Error)
}

// Score computes the interestingness surrogate used for ranking discovered
// dependencies: (1 − e) / (1 + |context|). Dependencies with small contexts
// (low lattice levels) and low approximation factors rank higher, matching
// the qualitative use of the measure in [9, 10] (lower-level dependencies
// are more interesting — Exp-5). The exact formula of [10] is not specified
// in the reproduced paper; see DESIGN.md §4.
func Score(contextSize int, e float64) float64 {
	return (1 - e) / float64(1+contextSize)
}

// Stats instruments a discovery run.
type Stats struct {
	// Rows and Attrs describe the input.
	Rows, Attrs int
	// LevelsProcessed is the number of lattice levels examined.
	LevelsProcessed int
	// NodesProcessed counts lattice nodes whose candidates were examined.
	NodesProcessed int
	// OCCandidates / OFDCandidates count validated candidates.
	OCCandidates, OFDCandidates int
	// OCSkippedMinimality counts OC pairs skipped because the pair was
	// already valid in a sub-context; OCSkippedConstancy counts pairs
	// skipped because one side was constancy-trivialized.
	OCSkippedMinimality, OCSkippedConstancy int
	// OFDSkipped counts OFD candidates skipped by minimality propagation.
	OFDSkipped int
	// OCSkippedFD and OFDSkippedFD count candidates skipped because their
	// context X holds an exact FD X\{c} → c, so that the same candidate
	// over X\{c} already decided them (checked after minimality and
	// constancy, so no candidate counts twice).
	OCSkippedFD, OFDSkippedFD int
	// OCsFound / OFDsFound per lattice level (index = level).
	OCsFoundPerLevel, OFDsFoundPerLevel []int
	// ValidationTime is the wall-clock time of each node task from its
	// first validated candidate to its end, less the partition time it
	// charged: the validators, the pruning checks and context lookups
	// between them, and removal-set collection. Its share of TotalTime is
	// the quantity the paper reports as up to 99.6% for the iterative
	// algorithm (Exp-3).
	ValidationTime time.Duration
	// PartitionTime is the wall-clock time spent materializing partitions.
	PartitionTime time.Duration
	// TotalTime is the end-to-end discovery time.
	TotalTime time.Duration
	// TimedOut reports that Config.TimeLimit aborted the run.
	TimedOut bool
	// Canceled reports that the context passed to Pipeline.Run was
	// canceled mid-run (results are partial, like TimedOut).
	Canceled bool
	// EarlyStopped reports that the run ended below its last level: a
	// level validated no candidate (the pruning behind Exp-5's speedups),
	// or node deletion left no set to build at the next.
	EarlyStopped bool
}

// sortCanonical orders dependencies in the engine's sequential discovery
// order (level, context bitmask, attrs); used by tests to compare parallel
// and sequential results.
func (r *Result) sortCanonical() {
	sort.Slice(r.OCs, func(i, j int) bool {
		if r.OCs[i].Level != r.OCs[j].Level {
			return r.OCs[i].Level < r.OCs[j].Level
		}
		si := r.OCs[i].Context.Add(r.OCs[i].A).Add(r.OCs[i].B)
		sj := r.OCs[j].Context.Add(r.OCs[j].A).Add(r.OCs[j].B)
		if si != sj {
			return si < sj
		}
		if r.OCs[i].A != r.OCs[j].A {
			return r.OCs[i].A < r.OCs[j].A
		}
		if r.OCs[i].B != r.OCs[j].B {
			return r.OCs[i].B < r.OCs[j].B
		}
		return !r.OCs[i].Descending && r.OCs[j].Descending
	})
	sort.Slice(r.OFDs, func(i, j int) bool {
		if r.OFDs[i].Level != r.OFDs[j].Level {
			return r.OFDs[i].Level < r.OFDs[j].Level
		}
		si := r.OFDs[i].Context.Add(r.OFDs[i].A)
		sj := r.OFDs[j].Context.Add(r.OFDs[j].A)
		if si != sj {
			return si < sj
		}
		return r.OFDs[i].A < r.OFDs[j].A
	})
}

// SortCanonical exposes the canonical (level, node, attrs) ordering.
func (r *Result) SortCanonical() { r.sortCanonical() }

// OCsFound returns the total number of discovered OCs per the stats.
func (s *Stats) OCsFound() int {
	t := 0
	for _, c := range s.OCsFoundPerLevel {
		t += c
	}
	return t
}

// OFDsFound returns the total number of discovered OFDs per the stats.
func (s *Stats) OFDsFound() int {
	t := 0
	for _, c := range s.OFDsFoundPerLevel {
		t += c
	}
	return t
}

// ValidationShare returns ValidationTime / TotalTime in [0,1].
func (s *Stats) ValidationShare() float64 {
	if s.TotalTime <= 0 {
		return 0
	}
	return float64(s.ValidationTime) / float64(s.TotalTime)
}

// AvgOCLevel returns the mean lattice level of discovered OCs (Exp-5's
// "average lattice level" metric), or 0 when none were found.
func (s *Stats) AvgOCLevel() float64 {
	n, sum := 0, 0
	for lvl, c := range s.OCsFoundPerLevel {
		n += c
		sum += lvl * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Result is the outcome of a discovery run.
type Result struct {
	// OCs are the discovered order compatibilities in discovery order
	// (deterministic: by level, then node bitmask, then pair index).
	OCs []OC
	// OFDs are the discovered order functional dependencies (empty unless
	// Config.IncludeOFDs).
	OFDs []OFD
	// Stats instruments the run.
	Stats Stats
}

// SortByScore orders OCs and OFDs by descending interestingness score,
// breaking ties by level then context then attributes (deterministic).
func (r *Result) SortByScore() {
	sort.SliceStable(r.OCs, func(i, j int) bool {
		if r.OCs[i].Score != r.OCs[j].Score {
			return r.OCs[i].Score > r.OCs[j].Score
		}
		if r.OCs[i].Level != r.OCs[j].Level {
			return r.OCs[i].Level < r.OCs[j].Level
		}
		if r.OCs[i].Context != r.OCs[j].Context {
			return r.OCs[i].Context < r.OCs[j].Context
		}
		if r.OCs[i].A != r.OCs[j].A {
			return r.OCs[i].A < r.OCs[j].A
		}
		if r.OCs[i].B != r.OCs[j].B {
			return r.OCs[i].B < r.OCs[j].B
		}
		return !r.OCs[i].Descending && r.OCs[j].Descending
	})
	sort.SliceStable(r.OFDs, func(i, j int) bool {
		if r.OFDs[i].Score != r.OFDs[j].Score {
			return r.OFDs[i].Score > r.OFDs[j].Score
		}
		if r.OFDs[i].Level != r.OFDs[j].Level {
			return r.OFDs[i].Level < r.OFDs[j].Level
		}
		if r.OFDs[i].Context != r.OFDs[j].Context {
			return r.OFDs[i].Context < r.OFDs[j].Context
		}
		return r.OFDs[i].A < r.OFDs[j].A
	})
}
