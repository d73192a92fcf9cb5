package core

import (
	"sort"

	"aod/internal/dataset"
	"aod/internal/lattice"
)

// ReferenceDiscover is an independent, exponential brute-force implementation
// of the discovery semantics, used by differential tests to pin Discover's
// behaviour (and available for debugging small instances). It enumerates all
// 2^|R| contexts, computes exact approximation factors with quadratic
// dynamic programming (not the patience/Fredman structure used by the
// engine), and applies the minimality definitions literally.
//
// It supports ValidatorExact and ValidatorOptimal semantics (true errors);
// the iterative validator's overestimation behaviour is engine-specific and
// has no reference counterpart.
func ReferenceDiscover(tbl *dataset.Table, cfg Config) (*Result, error) {
	numAttrs := tbl.NumCols()
	if err := cfg.Validate(numAttrs); err != nil {
		return nil, err
	}
	eps := cfg.effectiveThreshold()
	n := tbl.NumRows()
	maxLevel := numAttrs
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxLevel {
		maxLevel = cfg.MaxLevel
	}

	// classesFor groups rows by their projection onto the context bitmask.
	classesFor := func(ctx uint64) [][]int32 {
		groups := make(map[string][]int32)
		var order []string
		key := make([]byte, 0, numAttrs*4)
		for row := 0; row < n; row++ {
			key = key[:0]
			for a := 0; a < numAttrs; a++ {
				if ctx&(1<<uint(a)) == 0 {
					continue
				}
				r := tbl.Column(a).Rank(row)
				key = append(key, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
			}
			k := string(key)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], int32(row))
		}
		out := make([][]int32, 0, len(order))
		for _, k := range order {
			out = append(out, groups[k])
		}
		return out
	}

	// The error of a 0-row table is 0, as in validate: there is nothing to
	// remove.
	errOf := func(removals int) float64 {
		if n == 0 {
			return 0
		}
		return float64(removals) / float64(n)
	}
	valid := func(removals int) bool {
		return errOf(removals) <= eps+1e-12
	}

	// ofdRemovals: g3 with naive per-class counting.
	ofdRemovals := func(classes [][]int32, a int) int {
		ra := tbl.Column(a).Ranks()
		total := 0
		for _, cls := range classes {
			freq := make(map[int32]int)
			best := 0
			for _, row := range cls {
				freq[ra[row]]++
				if freq[ra[row]] > best {
					best = freq[ra[row]]
				}
			}
			total += len(cls) - best
		}
		return total
	}

	// ocRemovals: per class, sort by (A asc, B asc) and run the quadratic
	// LNDS dynamic program on the B projection. desc flips B (the
	// bidirectional variant A ∼ B↓).
	ocRemovals := func(classes [][]int32, a, b int, desc bool) int {
		ra := tbl.Column(a).Ranks()
		cb := tbl.Column(b)
		if desc {
			cb = cb.Reversed()
		}
		rb := cb.Ranks()
		total := 0
		for _, cls := range classes {
			rows := append([]int32{}, cls...)
			sort.Slice(rows, func(i, j int) bool {
				if ra[rows[i]] != ra[rows[j]] {
					return ra[rows[i]] < ra[rows[j]]
				}
				return rb[rows[i]] < rb[rows[j]]
			})
			m := len(rows)
			dp := make([]int, m)
			best := 0
			for i := 0; i < m; i++ {
				dp[i] = 1
				for j := 0; j < i; j++ {
					if rb[rows[j]] <= rb[rows[i]] && dp[j]+1 > dp[i] {
						dp[i] = dp[j] + 1
					}
				}
				if dp[i] > best {
					best = dp[i]
				}
			}
			total += m - best
		}
		return total
	}

	type pairKey struct {
		a, b int
		desc bool
	}
	validOFD := make(map[uint64]map[int]int)    // ctx -> attr -> removals (valid only)
	validOC := make(map[uint64]map[pairKey]int) // ctx -> directed pair -> removals (valid only)
	classesCache := make(map[uint64][][]int32, 1<<uint(numAttrs))
	full := uint64(1)<<uint(numAttrs) - 1
	directions := []bool{false}
	if cfg.Bidirectional {
		directions = []bool{false, true}
	}
	for ctx := uint64(0); ctx <= full; ctx++ {
		classesCache[ctx] = classesFor(ctx)
		validOFD[ctx] = make(map[int]int)
		validOC[ctx] = make(map[pairKey]int)
		for a := 0; a < numAttrs; a++ {
			if ctx&(1<<uint(a)) != 0 {
				continue
			}
			if rem := ofdRemovals(classesCache[ctx], a); valid(rem) {
				validOFD[ctx][a] = rem
			}
			for b := a + 1; b < numAttrs; b++ {
				if ctx&(1<<uint(b)) != 0 {
					continue
				}
				for _, desc := range directions {
					if rem := ocRemovals(classesCache[ctx], a, b, desc); valid(rem) {
						validOC[ctx][pairKey{a, b, desc}] = rem
					}
				}
			}
		}
	}

	// strictSubsets iterates proper submasks of ctx.
	anyStrictSubset := func(ctx uint64, pred func(sub uint64) bool) bool {
		for sub := (ctx - 1) & ctx; ; sub = (sub - 1) & ctx {
			if pred(sub) {
				return true
			}
			if sub == 0 {
				return false
			}
		}
	}
	anySubsetIncl := func(ctx uint64, pred func(sub uint64) bool) bool {
		if pred(ctx) {
			return true
		}
		if ctx == 0 {
			return false
		}
		return anyStrictSubset(ctx, pred)
	}

	res := &Result{}
	res.Stats.OCsFoundPerLevel = make([]int, numAttrs+1)
	res.Stats.OFDsFoundPerLevel = make([]int, numAttrs+1)
	for ctx := uint64(0); ctx <= full; ctx++ {
		level := popcount64(ctx)
		// Minimal OFDs at lattice level |ctx|+1.
		if level+1 <= maxLevel {
			attrs := make([]int, 0, len(validOFD[ctx]))
			for a := range validOFD[ctx] {
				attrs = append(attrs, a)
			}
			sort.Ints(attrs)
			for _, a := range attrs {
				minimal := !(ctx != 0 && anyStrictSubset(ctx, func(sub uint64) bool {
					_, ok := validOFD[sub][a]
					return ok
				}))
				if minimal {
					rem := validOFD[ctx][a]
					res.Stats.OFDsFoundPerLevel[level+1]++
					if cfg.IncludeOFDs {
						res.OFDs = append(res.OFDs, OFD{
							Context:  lattice.AttrSet(ctx),
							A:        a,
							Error:    errOf(rem),
							Removals: rem,
							Level:    level + 1,
							Score:    Score(level, errOf(rem)),
						})
					}
				}
			}
		}
		// Minimal OCs at lattice level |ctx|+2.
		if level+2 > maxLevel {
			continue
		}
		pairs := make([]pairKey, 0, len(validOC[ctx]))
		for p := range validOC[ctx] {
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].a != pairs[j].a {
				return pairs[i].a < pairs[j].a
			}
			if pairs[i].b != pairs[j].b {
				return pairs[i].b < pairs[j].b
			}
			return !pairs[i].desc && pairs[j].desc
		})
		for _, p := range pairs {
			if ctx != 0 && anyStrictSubset(ctx, func(sub uint64) bool {
				_, ok := validOC[sub][p]
				return ok
			}) {
				continue // valid in a sub-context: non-minimal
			}
			if anySubsetIncl(ctx, func(sub uint64) bool {
				_, okA := validOFD[sub][p.a]
				_, okB := validOFD[sub][p.b]
				return okA || okB
			}) {
				continue // constancy-trivialized
			}
			rem := validOC[ctx][p]
			res.Stats.OCsFoundPerLevel[level+2]++
			res.OCs = append(res.OCs, OC{
				Context:    lattice.AttrSet(ctx),
				A:          p.a,
				B:          p.b,
				Descending: p.desc,
				Error:      errOf(rem),
				Removals:   rem,
				Level:      level + 2,
				Score:      Score(level, errOf(rem)),
			})
		}
	}
	res.Stats.Rows = n
	res.Stats.Attrs = numAttrs
	return res, nil
}

func popcount64(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
