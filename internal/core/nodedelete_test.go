package core_test

import (
	"reflect"
	"testing"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
)

// Node deletion marks a lattice node dead once no superset of it has a
// candidate left that pruning would not skip, and builds a set only when
// all of its subsets are live nodes. It is sound because each skip rule is
// upward-closed. These tests hold the pruned run to the exhaustive walk
// (DisablePruning), which visits every node.

// deletionTable is one table the deletion tests run on, with whether
// deletion drops any of its nodes.
type deletionTable struct {
	tbl     *dataset.Table
	deletes bool
}

// deletionTables are the tables the deletion tests run on: the derived
// column table of the exact-FD tests, whose only dependency x → c leaves
// every node of its five-attribute lattice a candidate to validate or to
// pass on, and two generated tables deep enough for deletion to cut whole
// subtrees under every configuration.
func deletionTables(t *testing.T) map[string]deletionTable {
	return map[string]deletionTable{
		"derived": {derivedTable(t, 600, 1), false},
		"ncvoter": {gen.NCVoter(gen.NCVoterConfig{Rows: 1000, Attrs: 10, Seed: 5}), true},
		"flight":  {gen.Flight(gen.FlightConfig{Rows: 1000, Attrs: 12, Seed: 7}), true},
	}
}

// deletionConfigs are the validators the deletion tests run, each
// ascending and bidirectional.
func deletionConfigs() map[string]core.Config {
	out := map[string]core.Config{}
	for name, cfg := range map[string]core.Config{
		"exact":     {Validator: core.ValidatorExact, IncludeOFDs: true},
		"optimal":   {Threshold: 0.10, Validator: core.ValidatorOptimal, IncludeOFDs: true},
		"iterative": {Threshold: 0.10, Validator: core.ValidatorIterative, IncludeOFDs: true},
	} {
		out[name] = cfg
		cfg.Bidirectional = true
		out[name+"-bidi"] = cfg
	}
	return out
}

// deletionCounts pins the nodes and levels the pruned run processes on each
// table and configuration. A rule that deletes too little shows here first:
// it still reports the walk's dependencies.
var deletionCounts = map[string][2]int{
	"derived/exact": {31, 5}, "derived/exact-bidi": {31, 5},
	"derived/optimal": {31, 5}, "derived/optimal-bidi": {31, 5},
	"derived/iterative": {31, 5}, "derived/iterative-bidi": {31, 5},
	"ncvoter/exact": {529, 5}, "ncvoter/exact-bidi": {551, 6},
	"ncvoter/optimal": {413, 6}, "ncvoter/optimal-bidi": {428, 6},
	"ncvoter/iterative": {413, 6}, "ncvoter/iterative-bidi": {428, 6},
	"flight/exact": {767, 5}, "flight/exact-bidi": {1039, 5},
	"flight/optimal": {492, 5}, "flight/optimal-bidi": {758, 5},
	"flight/iterative": {508, 5}, "flight/iterative-bidi": {758, 5},
}

// TestNodeDeletionMatchesTheWalk: under every validator, in both search
// directions and under Serial, Pool(2) and Sharded over loopback, the pruned
// run reports the walk's dependencies, validates exactly the candidates the
// walk leaves unskipped, processes fewer nodes than the walk visits
// wherever a node is dead, and processes the pinned nodes and levels. On the derived table, where the exact and
// optimal runs also meet the brute-force reference, nothing is dead and
// both visit every node. (The reference's quadratic per-class LNDS takes 2
// to 20 s per configuration on the two 1000-row tables on a 2-vCPU Xeon;
// FuzzDiscover and the exact-FD tests hold the walk to it.)
func TestNodeDeletionMatchesTheWalk(t *testing.T) {
	for tname, tc := range deletionTables(t) {
		for cname, cfg := range deletionConfigs() {
			label := tname + "/" + cname
			res := runExecutors(t, tc.tbl, cfg)
			abl := cfg
			abl.DisablePruning = true
			walk, err := core.Discover(tc.tbl, abl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.OCs, walk.OCs) || !reflect.DeepEqual(res.OFDs, walk.OFDs) {
				t.Errorf("%s: dependencies differ from the exhaustive walk:\npruned %v %v\nwalk   %v %v",
					label, res.OCs, res.OFDs, walk.OCs, walk.OFDs)
			}
			if tname == "derived" && cfg.Validator != core.ValidatorIterative {
				requireReference(t, tc.tbl, cfg, res)
			}
			st, ws := res.Stats, walk.Stats
			if want := ws.OCCandidates - ws.OCSkippedMinimality - ws.OCSkippedConstancy - ws.OCSkippedFD; st.OCCandidates != want {
				t.Errorf("%s: validated %d OC candidates, the walk leaves %d unskipped", label, st.OCCandidates, want)
			}
			if want := ws.OFDCandidates - ws.OFDSkipped - ws.OFDSkippedFD; st.OFDCandidates != want {
				t.Errorf("%s: validated %d OFD candidates, the walk leaves %d unskipped", label, st.OFDCandidates, want)
			}
			if deleted := st.NodesProcessed < ws.NodesProcessed; deleted != tc.deletes || st.NodesProcessed > ws.NodesProcessed {
				t.Errorf("%s: processed %d nodes, the walk %d; want deletion: %v",
					label, st.NodesProcessed, ws.NodesProcessed, tc.deletes)
			}
			if got := [2]int{st.NodesProcessed, st.LevelsProcessed}; got != deletionCounts[label] {
				t.Errorf("%s: processed %d nodes over %d levels, want %v", label, got[0], got[1], deletionCounts[label])
			}
			t.Logf("%s: %d of the walk's %d nodes, %d of %d levels", label,
				st.NodesProcessed, ws.NodesProcessed, st.LevelsProcessed, ws.LevelsProcessed)
		}
	}
}
