// Package tane implements TANE (Huhtala, Kärkkäinen, Porkka, Toivonen 1999)
// — level-wise discovery of exact and approximate functional dependencies
// with stripped partitions and g3 errors. It is reference [3] of the
// reproduced paper: the source of the linear-time approximate-OFD validation
// used inside the AOD framework, and an independent baseline profiler.
//
// The implementation discovers the complete set of minimal approximate FDs
// X → A under the plain minimality semantics: X → A is reported iff
// g3(X → A) ≤ ε and no Y ⊂ X has g3(Y → A) ≤ ε. (TANE's original C+
// candidate machinery encodes additional exact-FD inferences that do not
// carry over soundly to approximate FDs; like the host repository's OD
// engine, this implementation propagates *validity* exactly instead. The
// result is the same set for ε = 0 and a well-defined superset-free set for
// ε > 0, verified against brute force in tests.)
package tane

import (
	"fmt"
	"sort"
	"time"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// FD is a discovered (approximate) functional dependency LHS → RHS.
type FD struct {
	// LHS is the determinant attribute set.
	LHS lattice.AttrSet
	// RHS is the determined attribute.
	RHS int
	// Error is the g3 approximation factor.
	Error float64
	// Removals is the removal count behind Error.
	Removals int
}

// String renders the FD as "{0,2} -> 1 (e=0.01)".
func (f FD) String() string {
	return fmt.Sprintf("%s -> %d (e=%.4f)", f.LHS, f.RHS, f.Error)
}

// Format renders the FD with column names.
func (f FD) Format(names []string) string {
	return fmt.Sprintf("%s -> %s (e=%.4f)", f.LHS.Format(names), names[f.RHS], f.Error)
}

// Config controls a TANE run.
type Config struct {
	// Threshold is the g3 threshold ε ∈ [0,1]; 0 discovers exact FDs.
	Threshold float64
	// MaxLevel bounds the size of the LHS plus one (the lattice level);
	// 0 means unbounded.
	MaxLevel int
	// TimeLimit aborts discovery, returning partial results. 0 disables.
	TimeLimit time.Duration
}

// Result is the outcome of a TANE run.
type Result struct {
	// FDs are the minimal (approximate) functional dependencies, in
	// deterministic order (by level, LHS bitmask, RHS).
	FDs []FD
	// LevelsProcessed, NodesProcessed and Candidates instrument the run.
	LevelsProcessed, NodesProcessed, Candidates int
	// TimedOut reports a TimeLimit abort.
	TimedOut bool
	// TotalTime is the end-to-end runtime.
	TotalTime time.Duration
}

// Discover runs level-wise AFD discovery over the table.
func Discover(tbl *dataset.Table, cfg Config) (*Result, error) {
	numAttrs := tbl.NumCols()
	if numAttrs < 1 {
		return nil, fmt.Errorf("tane: table must have at least one attribute")
	}
	if numAttrs > lattice.MaxAttrs {
		return nil, fmt.Errorf("tane: at most %d attributes supported, got %d", lattice.MaxAttrs, numAttrs)
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("tane: threshold must be in [0,1], got %g", cfg.Threshold)
	}
	start := time.Now()
	var deadline time.Time
	if cfg.TimeLimit > 0 {
		deadline = start.Add(cfg.TimeLimit)
	}

	memo := partition.NewMemo(tbl, nil, nil)
	res := &Result{}
	v := validate.New()
	// Level 1's only parent, the empty set, carries no validity state.
	var prev *lattice.Level
	cur := lattice.Level1(numAttrs)
	maxLevel := numAttrs
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxLevel {
		maxLevel = cfg.MaxLevel
	}

	for cur.Number <= maxLevel && len(cur.Nodes) > 0 {
		res.LevelsProcessed++
		memo.Rotate()
		candidates := 0
		for _, node := range cur.Nodes {
			if !deadline.IsZero() && time.Now().After(deadline) {
				res.TimedOut = true
				res.TotalTime = time.Since(start)
				return res, nil
			}
			res.NodesProcessed++
			// Propagate validity: A ∈ ConstValid(node) iff node.Set\{A} → A
			// is valid for some subset of node.Set\{A}.
			var propagated lattice.AttrSet
			node.Set.ForEach(func(c int) {
				if p := prev.Lookup(node.Set.Remove(c)); p != nil {
					propagated = propagated.Union(p.ConstValid)
				}
			})
			node.ConstValid = propagated
			attrs := node.Set.Attrs()
			for _, a := range attrs {
				if propagated.Has(a) {
					continue // valid with a smaller LHS: non-minimal
				}
				ctx := memo.Get(uint64(node.Set.Remove(a)), nil)
				candidates++
				res.Candidates++
				r := v.ApproxOFD(ctx, tbl.Column(a), validate.Options{Threshold: cfg.Threshold})
				if r.Valid {
					node.ConstValid = node.ConstValid.Add(a)
					res.FDs = append(res.FDs, FD{
						LHS:      node.Set.Remove(a),
						RHS:      a,
						Error:    r.Error,
						Removals: r.Removals,
					})
				}
			}
		}
		if candidates == 0 {
			break
		}
		if cur.Number == maxLevel {
			break
		}
		prev, cur = cur, lattice.NextLevel(cur, numAttrs)
	}
	res.TotalTime = time.Since(start)
	sortFDs(res.FDs)
	return res, nil
}

func sortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].LHS.Card() != fds[j].LHS.Card() {
			return fds[i].LHS.Card() < fds[j].LHS.Card()
		}
		if fds[i].LHS != fds[j].LHS {
			return fds[i].LHS < fds[j].LHS
		}
		return fds[i].RHS < fds[j].RHS
	})
}

// ReferenceDiscover is the brute-force oracle used by tests: it enumerates
// every LHS subset and applies the minimality definition literally.
func ReferenceDiscover(tbl *dataset.Table, cfg Config) (*Result, error) {
	numAttrs := tbl.NumCols()
	if numAttrs > 20 {
		return nil, fmt.Errorf("tane: reference implementation supports <= 20 attributes")
	}
	n := tbl.NumRows()
	maxLevel := numAttrs
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxLevel {
		maxLevel = cfg.MaxLevel
	}
	g3 := func(lhs uint64, a int) int {
		groups := make(map[string]map[int32]int)
		sizes := make(map[string]int)
		key := make([]byte, 0, numAttrs*4)
		ra := tbl.Column(a).Ranks()
		for row := 0; row < n; row++ {
			key = key[:0]
			for c := 0; c < numAttrs; c++ {
				if lhs&(1<<uint(c)) == 0 {
					continue
				}
				r := tbl.Column(c).Rank(row)
				key = append(key, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
			}
			k := string(key)
			if groups[k] == nil {
				groups[k] = make(map[int32]int)
			}
			groups[k][ra[row]]++
			sizes[k]++
		}
		total := 0
		for k, freq := range groups {
			best := 0
			for _, f := range freq {
				if f > best {
					best = f
				}
			}
			total += sizes[k] - best
		}
		return total
	}
	// g3 of a 0-row table is 0, as in validate: there is nothing to remove.
	errOf := func(rem int) float64 {
		if n == 0 {
			return 0
		}
		return float64(rem) / float64(n)
	}
	valid := func(rem int) bool { return errOf(rem) <= cfg.Threshold+1e-12 }

	res := &Result{}
	full := uint64(1)<<uint(numAttrs) - 1
	validAt := make(map[uint64]map[int]int)
	for lhs := uint64(0); lhs <= full; lhs++ {
		validAt[lhs] = make(map[int]int)
		for a := 0; a < numAttrs; a++ {
			if lhs&(1<<uint(a)) != 0 {
				continue
			}
			if rem := g3(lhs, a); valid(rem) {
				validAt[lhs][a] = rem
			}
		}
	}
	for lhs := uint64(0); lhs <= full; lhs++ {
		if popcount(lhs)+1 > maxLevel {
			continue
		}
		for a, rem := range validAt[lhs] {
			minimal := true
			if lhs != 0 {
				for sub := (lhs - 1) & lhs; ; sub = (sub - 1) & lhs {
					if _, ok := validAt[sub][a]; ok {
						minimal = false
						break
					}
					if sub == 0 {
						break
					}
				}
			}
			if minimal {
				res.FDs = append(res.FDs, FD{
					LHS:      lattice.AttrSet(lhs),
					RHS:      a,
					Error:    errOf(rem),
					Removals: rem,
				})
			}
		}
	}
	sortFDs(res.FDs)
	return res, nil
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
