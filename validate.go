package aod

import (
	"fmt"

	"aod/internal/partition"
	"aod/internal/validate"
)

// Validation is the outcome of validating a single dependency candidate.
type Validation struct {
	// Valid is whether the approximation factor is within the threshold.
	Valid bool
	// Error is the approximation factor e = |minimal removal set| / |rows|.
	Error float64
	// Removals is the removal-set size behind Error.
	Removals int
	// RemovalRows holds the minimal removal set's row indexes (always
	// collected by the validation entry points of this package).
	RemovalRows []int
}

// ValidateOC validates the approximate canonical order compatibility
// "context: a ∼ b" using the paper's optimal Algorithm 2: the reported
// Error is exact, the removal set is minimal, and the candidate is Valid iff
// Error ≤ threshold. Columns are addressed by name; context may be empty.
func ValidateOC(d *Dataset, context []string, a, b string, threshold float64) (Validation, error) {
	ca, cb, ctx, err := resolve(d, context, a, b)
	if err != nil {
		return Validation{}, err
	}
	v := validate.New()
	r := v.OptimalAOC(ctx, d.table().Column(ca), d.table().Column(cb),
		validate.Options{Threshold: threshold, CollectRemovals: true, ComputeFullError: true})
	return fromResult(r), nil
}

// ValidateOCIterative validates an AOC candidate with the legacy greedy
// validator (Algorithm 1). Its Error can overestimate the true approximation
// factor; it is exposed for comparison and reproduction purposes.
func ValidateOCIterative(d *Dataset, context []string, a, b string, threshold float64) (Validation, error) {
	ca, cb, ctx, err := resolve(d, context, a, b)
	if err != nil {
		return Validation{}, err
	}
	v := validate.New()
	r := v.IterativeAOC(ctx, d.table().Column(ca), d.table().Column(cb),
		validate.Options{Threshold: threshold, CollectRemovals: true, ComputeFullError: true})
	return fromResult(r), nil
}

// ValidateOD validates the approximate canonical order dependency
// "context: a ↦ b" (order compatibility plus the functional dependency) via
// the Section 3.3 extension: ties on a are broken by descending b, so the
// minimal removal set eliminates both swaps and splits.
func ValidateOD(d *Dataset, context []string, a, b string, threshold float64) (Validation, error) {
	ca, cb, ctx, err := resolve(d, context, a, b)
	if err != nil {
		return Validation{}, err
	}
	v := validate.New()
	r := v.OptimalAOD(ctx, d.table().Column(ca), d.table().Column(cb),
		validate.Options{Threshold: threshold, CollectRemovals: true, ComputeFullError: true})
	return fromResult(r), nil
}

// ValidateOFD validates the approximate order functional dependency
// "context: [] ↦ a" (a constant within each context group) using the
// linear-time g3 measure.
func ValidateOFD(d *Dataset, context []string, a string, threshold float64) (Validation, error) {
	ca, _, ctx, err := resolve(d, context, a, a)
	if err != nil {
		return Validation{}, err
	}
	r := validate.ApproxOFD(ctx, d.table().Column(ca),
		validate.Options{Threshold: threshold, CollectRemovals: true})
	return fromResult(r), nil
}

// ValidateListOD validates the list-based approximate order dependency
// X ↦ Y, where X and Y are ordered column lists (footnote 1 of the paper).
func ValidateListOD(d *Dataset, x, y []string, threshold float64) (Validation, error) {
	xi, err := indexes(d, x)
	if err != nil {
		return Validation{}, err
	}
	yi, err := indexes(d, y)
	if err != nil {
		return Validation{}, err
	}
	r := validate.ListAOD(d.table(), xi, yi,
		validate.Options{Threshold: threshold, CollectRemovals: true})
	return fromResult(r), nil
}

func fromResult(r validate.Result) Validation {
	return Validation{
		Valid:       r.Valid,
		Error:       r.Error,
		Removals:    r.Removals,
		RemovalRows: toInts(r.RemovalRows),
	}
}

func indexes(d *Dataset, names []string) ([]int, error) {
	out := make([]int, 0, len(names))
	for _, n := range names {
		i := d.table().ColumnIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("aod: no column %q", n)
		}
		out = append(out, i)
	}
	return out, nil
}

func resolve(d *Dataset, context []string, a, b string) (ca, cb int, ctx *partition.Stripped, err error) {
	ca = d.table().ColumnIndex(a)
	if ca < 0 {
		return 0, 0, nil, fmt.Errorf("aod: no column %q", a)
	}
	cb = d.table().ColumnIndex(b)
	if cb < 0 {
		return 0, 0, nil, fmt.Errorf("aod: no column %q", b)
	}
	arena := partition.NewArena()
	ctx = partition.Universe(d.NumRows())
	for _, name := range context {
		i := d.table().ColumnIndex(name)
		if i < 0 {
			return 0, 0, nil, fmt.Errorf("aod: no context column %q", name)
		}
		next := arena.Split(ctx, d.table().Column(i))
		arena.Recycle(ctx) // intermediate context: reuse its buffers
		ctx = next
	}
	return ca, cb, ctx, nil
}
