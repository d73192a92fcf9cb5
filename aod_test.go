package aod

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	ds := Table1()
	if ds.NumRows() != 9 || ds.NumCols() != 7 {
		t.Fatalf("Table1 shape = %d×%d", ds.NumRows(), ds.NumCols())
	}
	rep, err := Discover(ds, Options{Threshold: 0.12, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, oc := range rep.OCs {
		if len(oc.Context) == 1 && oc.Context[0] == "pos" &&
			((oc.A == "exp" && oc.B == "sal") || (oc.A == "sal" && oc.B == "exp")) {
			found = true
			if oc.Removals != 1 {
				t.Errorf("removals = %d, want 1", oc.Removals)
			}
		}
	}
	if !found {
		t.Errorf("{pos}: exp ∼ sal not found in %v", rep.OCs)
	}
	// Report is sorted by descending score.
	for i := 1; i < len(rep.OCs); i++ {
		if rep.OCs[i].Score > rep.OCs[i-1].Score {
			t.Fatal("OCs not sorted by score")
		}
	}
}

func TestPublicValidateOCMatchesPaperExamples(t *testing.T) {
	ds := Table1()
	// Example 2.15 / 3.2: e(sal ∼ tax) = 4/9 with removal {t1,t2,t4,t6}.
	v, err := ValidateOC(ds, nil, "sal", "tax", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Removals != 4 || !v.Valid {
		t.Errorf("optimal: %+v, want 4 removals valid", v)
	}
	rows := append([]int{}, v.RemovalRows...)
	sort.Ints(rows)
	if len(rows) != 4 || rows[0] != 0 || rows[1] != 1 || rows[2] != 3 || rows[3] != 5 {
		t.Errorf("removal rows = %v, want [0 1 3 5]", rows)
	}
	// Example 3.1: the iterative validator overestimates (5 removals).
	it, err := ValidateOCIterative(ds, nil, "sal", "tax", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if it.Removals != 5 {
		t.Errorf("iterative removals = %d, want 5", it.Removals)
	}
	if it.Valid {
		t.Error("iterative should reject at ε=0.5 due to overestimation")
	}
}

func TestPublicValidateODAndOFD(t *testing.T) {
	ds := Table1()
	od, err := ValidateOD(ds, []string{"pos"}, "sal", "bonus", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !od.Valid || od.Removals != 0 {
		t.Errorf("{pos}: sal ↦ bonus should hold exactly: %+v", od)
	}
	ofd, err := ValidateOFD(ds, []string{"pos", "exp"}, "sal", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !ofd.Valid || ofd.Removals != 1 {
		t.Errorf("{pos,exp}: []↦sal: %+v, want 1 removal valid", ofd)
	}
}

func TestPublicValidateListOD(t *testing.T) {
	ds := Table1()
	v, err := ValidateListOD(ds, []string{"sal"}, []string{"taxGrp"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid {
		t.Errorf("[sal] ↦ [taxGrp] should hold: %+v", v)
	}
	// The OD (unlike the OC, e = 1/9) needs the t6/t7 split removed as well
	// as the t8 swap: e = 2/9 ≈ 0.222.
	v, err = ValidateListOD(ds, []string{"pos", "exp"}, []string{"pos", "sal"}, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	if v.Valid || v.Removals != 2 {
		t.Errorf("[pos,exp] ↦ [pos,sal] at ε=0.12: %+v, want invalid with 2 removals", v)
	}
	v, err = ValidateListOD(ds, []string{"pos", "exp"}, []string{"pos", "sal"}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid {
		t.Errorf("[pos,exp] ↦ [pos,sal] should hold at ε=0.25: %+v", v)
	}
}

func TestPublicValidateErrors(t *testing.T) {
	ds := Table1()
	if _, err := ValidateOC(ds, nil, "nope", "sal", 0.1); err == nil {
		t.Error("want error for unknown column a")
	}
	if _, err := ValidateOC(ds, nil, "sal", "nope", 0.1); err == nil {
		t.Error("want error for unknown column b")
	}
	if _, err := ValidateOC(ds, []string{"nope"}, "sal", "tax", 0.1); err == nil {
		t.Error("want error for unknown context column")
	}
	if _, err := ValidateListOD(ds, []string{"nope"}, []string{"sal"}, 0.1); err == nil {
		t.Error("want error for unknown list column")
	}
	if _, err := ValidateListOD(ds, []string{"sal"}, []string{"nope"}, 0.1); err == nil {
		t.Error("want error for unknown list column in Y")
	}
}

// TestPublicZeroRowDataset pins the empty table: nothing needs removing, so
// every validation holds with e = 0 (and marshals), and the default optimal
// validator at ε = 0 agrees with exact discovery.
func TestPublicZeroRowDataset(t *testing.T) {
	ds, err := NewBuilder().AddInts("a", nil).AddInts("b", nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := ValidateOC(ds, nil, "a", "b", 0)
	od, _ := ValidateOD(ds, nil, "a", "b", 0)
	ofd, _ := ValidateOFD(ds, nil, "a", 0)
	for name, v := range map[string]Validation{"OC": oc, "OD": od, "OFD": ofd} {
		if !v.Valid || v.Error != 0 || v.Removals != 0 {
			t.Errorf("Validate%s on 0 rows = %+v, want valid with e = 0", name, v)
		}
		if _, err := json.Marshal(v); err != nil {
			t.Errorf("Validate%s on 0 rows does not marshal: %v", name, err)
		}
	}
	exact, err := Discover(ds, Options{Algorithm: AlgorithmExact, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := Discover(ds, Options{IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.OFDs) == 0 || !reflect.DeepEqual(optimal.OFDs, exact.OFDs) || !reflect.DeepEqual(optimal.OCs, exact.OCs) {
		t.Errorf("optimal at ε = 0 found OCs %v OFDs %v, exact found OCs %v OFDs %v",
			optimal.OCs, optimal.OFDs, exact.OCs, exact.OFDs)
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	ds := Table1()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != ds.NumRows() || back.NumCols() != ds.NumCols() {
		t.Fatalf("round-trip shape mismatch: %v vs %v", back, ds)
	}
	rep1, err := Discover(ds, Options{Threshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Discover(back, Options{Threshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.OCs) != len(rep2.OCs) {
		t.Errorf("CSV round trip changed discovery: %d vs %d OCs", len(rep1.OCs), len(rep2.OCs))
	}
}

func TestPublicBuilderAndAccessors(t *testing.T) {
	ds, err := NewBuilder().
		AddInts("a", []int64{1, 2, 3}).
		AddFloats("f", []float64{0.5, 1.5, 2.5}).
		AddStrings("s", []string{"x", "y", "z"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.ColumnNames(); strings.Join(got, ",") != "a,f,s" {
		t.Errorf("names = %v", got)
	}
	val, err := ds.Value(1, "s")
	if err != nil || val != "y" {
		t.Errorf("Value = %q, %v", val, err)
	}
	if _, err := ds.Value(1, "zzz"); err == nil {
		t.Error("want error for unknown column")
	}
	if _, err := ds.Value(99, "a"); err == nil {
		t.Error("want error for bad row")
	}
	h := ds.Head(2)
	if h.NumRows() != 2 {
		t.Errorf("Head rows = %d", h.NumRows())
	}
	sel, err := ds.Select("s", "a")
	if err != nil || sel.NumCols() != 2 {
		t.Errorf("Select: %v, %v", sel, err)
	}
	if _, err := ds.Select("zzz"); err == nil {
		t.Error("want Select error")
	}
	if !strings.Contains(ds.String(), "3 rows") {
		t.Errorf("String = %q", ds.String())
	}
}

func TestPublicGenerators(t *testing.T) {
	f := Flight(200, 10, 1)
	if f.NumRows() != 200 || f.NumCols() != 10 {
		t.Errorf("Flight shape = %d×%d", f.NumRows(), f.NumCols())
	}
	n := NCVoter(200, 10, 1)
	if n.NumRows() != 200 || n.NumCols() != 10 {
		t.Errorf("NCVoter shape = %d×%d", n.NumRows(), n.NumCols())
	}
	c := CorrelatedPair(100, 0.1, 1)
	if c.NumCols() != 2 {
		t.Errorf("CorrelatedPair cols = %d", c.NumCols())
	}
}

func TestPublicDiscoverOnFlight(t *testing.T) {
	ds := Flight(800, 10, 3)
	rep, err := Discover(ds, Options{Threshold: 0.10, Algorithm: AlgorithmOptimal})
	if err != nil {
		t.Fatal(err)
	}
	// The planted ≈8% pair must be discovered at ε=10%.
	found := false
	for _, oc := range rep.OCs {
		if (oc.A == "origin" && oc.B == "originIATA") || (oc.A == "originIATA" && oc.B == "origin") {
			if len(oc.Context) == 0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("origin ∼ originIATA not discovered; got %d OCs", len(rep.OCs))
	}
	// Exact discovery must find strictly fewer or equal OCs at level 2, and
	// must include the exact planted pair distance ∼ airTime.
	exact, err := Discover(ds, Options{Algorithm: AlgorithmExact})
	if err != nil {
		t.Fatal(err)
	}
	foundExact := false
	for _, oc := range exact.OCs {
		if len(oc.Context) == 0 && ((oc.A == "distance" && oc.B == "airTime") || (oc.A == "airTime" && oc.B == "distance")) {
			foundExact = true
		}
	}
	if !foundExact {
		t.Error("distance ∼ airTime not discovered exactly")
	}
}

func TestPublicBidirectionalDiscovery(t *testing.T) {
	// birthYear = 100 − age in the generator: an exact descending partner.
	ds := NCVoter(1500, 10, 3)
	uni, err := Discover(ds, Options{Algorithm: AlgorithmExact})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range uni.OCs {
		if oc.A == "age" && oc.B == "birthYear" && !oc.Descending {
			t.Fatalf("age ∼ birthYear should not hold ascending: %v", oc)
		}
	}
	bi, err := Discover(ds, Options{Algorithm: AlgorithmExact, Bidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, oc := range bi.OCs {
		if ((oc.A == "age" && oc.B == "birthYear") || (oc.A == "birthYear" && oc.B == "age")) && oc.Descending {
			found = true
			if !strings.Contains(oc.String(), "↓") {
				t.Errorf("descending OC string missing ↓: %q", oc.String())
			}
		}
	}
	if !found {
		t.Errorf("age ∼ birthYear↓ not found; OCs: %v", bi.OCs)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if AlgorithmExact.String() != "OD" {
		t.Error("AlgorithmExact name")
	}
	if AlgorithmOptimal.String() != "AOD (optimal)" {
		t.Error("AlgorithmOptimal name")
	}
	if AlgorithmIterative.String() != "AOD (iterative)" {
		t.Error("AlgorithmIterative name")
	}
}

func TestOCAndOFDStrings(t *testing.T) {
	oc := OC{Context: []string{"pos"}, A: "exp", B: "sal", Error: 1.0 / 9}
	if got := oc.String(); !strings.Contains(got, "{pos}: exp ∼ sal") {
		t.Errorf("OC String = %q", got)
	}
	ofd := OFD{Context: []string{"pos", "sal"}, A: "bonus", Error: 0}
	if got := ofd.String(); !strings.Contains(got, "{pos,sal}: [] ↦ bonus") {
		t.Errorf("OFD String = %q", got)
	}
}

func TestStatsHelpers(t *testing.T) {
	ds := Table1()
	rep, err := Discover(ds, Options{Threshold: 0.1, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Rows != 9 || rep.Stats.Attrs != 7 {
		t.Errorf("stats rows/attrs = %d/%d", rep.Stats.Rows, rep.Stats.Attrs)
	}
	if share := rep.Stats.ValidationShare(); share < 0 || share > 1 {
		t.Errorf("ValidationShare = %g", share)
	}
	if len(rep.OCs) > 0 && rep.Stats.AvgOCLevel() < 2 {
		t.Errorf("AvgOCLevel = %g", rep.Stats.AvgOCLevel())
	}
	if (Stats{}).ValidationShare() != 0 || (Stats{}).AvgOCLevel() != 0 {
		t.Error("zero stats helpers should return 0")
	}
}
