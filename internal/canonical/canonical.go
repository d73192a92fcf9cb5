// Package canonical implements the polynomial mapping of Section 2.2: every
// list-based order dependency X ↦ Y is logically equivalent to a set of
// set-based canonical dependencies —
//
//	R |= X ↦ XY  iff  ∀A ∈ Y.  R |= X: [] ↦ A                  (OFDs)
//	R |= X ∼ Y   iff  ∀i,j.    R |= [X1..Xi−1][Y1..Yj−1]: Xi ∼ Yj  (OCs)
//
// and X ↦ Y holds iff X ↦ XY and X ∼ Y (Example 2.13 enumerates the mapping
// of [A,B] ↦ [C,D]). The mapping is what lets the discovery framework search
// the set lattice (exponential) instead of the list lattice (factorial).
package canonical

import (
	"fmt"
	"strings"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// OFD is a canonical order functional dependency X: [] ↦ A.
type OFD struct {
	Context lattice.AttrSet
	A       int
}

// String renders the OFD in canonical notation.
func (d OFD) String() string { return fmt.Sprintf("%s: [] ↦ %d", d.Context, d.A) }

// OC is a canonical order compatibility X: A ∼ B. A and B may coincide with
// attributes of the context when the source lists repeat attributes; such
// OCs are trivial and are filtered by Map.
type OC struct {
	Context lattice.AttrSet
	A, B    int
}

// String renders the OC in canonical notation.
func (d OC) String() string { return fmt.Sprintf("%s: %d ∼ %d", d.Context, d.A, d.B) }

// Mapping is the canonical equivalent of one list-based OD.
type Mapping struct {
	OFDs []OFD
	OCs  []OC
}

// String renders the mapping as in Example 2.13.
func (m Mapping) String() string {
	parts := make([]string, 0, len(m.OFDs)+len(m.OCs))
	for _, d := range m.OFDs {
		parts = append(parts, d.String())
	}
	for _, d := range m.OCs {
		parts = append(parts, d.String())
	}
	return strings.Join(parts, ", ")
}

// Map translates the list-based OD X ↦ Y into its equivalent set of
// canonical dependencies. Trivial dependencies (an OFD whose attribute is in
// its own context; an OC whose two sides are equal or either side is in the
// context) are omitted, as they hold vacuously.
func Map(x, y []int) Mapping {
	var m Mapping
	xSet := lattice.NewAttrSet(x...)
	for _, a := range y {
		if !xSet.Has(a) {
			m.OFDs = append(m.OFDs, OFD{Context: xSet, A: a})
		}
	}
	for i, xi := range x {
		for j, yj := range y {
			ctx := lattice.NewAttrSet(x[:i]...).Union(lattice.NewAttrSet(y[:j]...))
			if xi == yj || ctx.Has(xi) || ctx.Has(yj) {
				continue // trivially order compatible
			}
			m.OCs = append(m.OCs, OC{Context: ctx, A: xi, B: yj})
		}
	}
	return m
}

// Holds checks the full mapping against a table: the exact list-based OD
// X ↦ Y holds iff every canonical dependency of Map(x, y) holds. It is the
// set-based route to list-OD validation and the consistency oracle used in
// tests against validate.ExactListOD.
func Holds(tbl *dataset.Table, x, y []int) bool {
	m := Map(x, y)
	v := validate.New()
	memo := partition.NewMemo(tbl, nil, nil)
	ctxOf := func(s lattice.AttrSet) *partition.Stripped { return memo.Get(uint64(s), nil) }
	for _, d := range m.OFDs {
		if !validate.ExactOFD(ctxOf(d.Context), tbl.Column(d.A)) {
			return false
		}
	}
	for _, d := range m.OCs {
		if ok, _ := v.ExactOC(ctxOf(d.Context), tbl.Column(d.A), tbl.Column(d.B)); !ok {
			return false
		}
	}
	return true
}
