package aod

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aod/internal/core"
)

// Algorithm selects the validation algorithm used during discovery.
type Algorithm int

const (
	// AlgorithmOptimal is the paper's LNDS-based optimal validator
	// (Algorithm 2): O(n log n), guaranteed-minimal removal sets, complete
	// discovery. This is the default.
	AlgorithmOptimal Algorithm = iota
	// AlgorithmExact discovers exact order dependencies only (ε = 0), the
	// "OD" baseline of the paper's experiments.
	AlgorithmExact
	// AlgorithmIterative is the legacy greedy validator (Algorithm 1):
	// O(n log n + εn²), may overestimate approximation factors and thus
	// miss valid dependencies. Provided as the paper's comparison baseline.
	AlgorithmIterative
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string { return a.kind().String() }

// MarshalText encodes the algorithm as its stable lower-case name
// ("optimal", "exact", "iterative"), used by the JSON API and CLI flags.
func (a Algorithm) MarshalText() ([]byte, error) {
	switch a {
	case AlgorithmExact:
		return []byte("exact"), nil
	case AlgorithmIterative:
		return []byte("iterative"), nil
	default:
		return []byte("optimal"), nil
	}
}

// UnmarshalText parses an algorithm name accepted by MarshalText (the empty
// string selects the default optimal validator).
func (a *Algorithm) UnmarshalText(text []byte) error {
	switch string(text) {
	case "optimal", "":
		*a = AlgorithmOptimal
	case "exact":
		*a = AlgorithmExact
	case "iterative":
		*a = AlgorithmIterative
	default:
		return fmt.Errorf("aod: unknown algorithm %q (want optimal, exact, or iterative)", text)
	}
	return nil
}

func (a Algorithm) kind() core.ValidatorKind {
	switch a {
	case AlgorithmExact:
		return core.ValidatorExact
	case AlgorithmIterative:
		return core.ValidatorIterative
	default:
		return core.ValidatorOptimal
	}
}

// Options configures Discover. The zero value runs the optimal validator
// with threshold 0 (equivalent to exact discovery); set Threshold to the
// tolerated exception fraction (the paper's experiments default to 0.10) to
// discover approximate dependencies.
type Options struct {
	// Threshold is the approximation threshold ε ∈ [0,1]: a dependency is
	// reported when at most ε·|rows| tuples must be removed for it to hold.
	Threshold float64 `json:"threshold,omitempty"`
	// Algorithm selects the validator (default AlgorithmOptimal). In JSON it
	// is the string "optimal", "exact", or "iterative".
	Algorithm Algorithm `json:"algorithm,omitempty"`
	// MaxLevel bounds the attribute-lattice level explored (0 = unbounded).
	MaxLevel int `json:"maxLevel,omitempty"`
	// IncludeOFDs also reports order functional dependencies (constancy
	// dependencies); OCs are always reported.
	IncludeOFDs bool `json:"includeOFDs,omitempty"`
	// CollectRemovalSets attaches minimal removal sets to each dependency.
	CollectRemovalSets bool `json:"collectRemovalSets,omitempty"`
	// TimeLimit aborts discovery after this duration with partial results
	// (Stats.TimedOut set). 0 disables. JSON: integer nanoseconds.
	TimeLimit time.Duration `json:"timeLimitNs,omitempty"`
	// Parallelism > 1 validates each lattice level's candidates across that
	// many workers (0 or 1 = sequential) when ShardPool is nil. Results are
	// identical to the sequential run.
	Parallelism int `json:"parallelism,omitempty"`
	// Bidirectional additionally searches mixed-direction order
	// compatibilities "A ∼ B↓" (A ascending, B descending), after the
	// bidirectional OD framework the paper builds upon.
	Bidirectional bool `json:"bidirectional,omitempty"`

	// The handles below are run-time wiring, not options: they never change
	// a report and never serialize.

	// OnLevel, when non-nil, receives a progress event and the partial report
	// after every completed lattice level; the last event has Final set.
	OnLevel ProgressFunc `json:"-"`
	// ShardPool, when non-nil, slices each lattice level across the pool's
	// workers. Reports are byte-identical to local runs, and every worker
	// failure degrades to re-dispatch or local execution, so a dying pool
	// slows a run down rather than failing it.
	ShardPool *ShardPool `json:"-"`
	// Warm supplies cross-run state: prepared partitions and a shared arena.
	// The zero value is a cold run.
	Warm Warm `json:"-"`
}

func (o Options) config() core.Config {
	return core.Config{
		Threshold:          o.Threshold,
		Validator:          o.Algorithm.kind(),
		MaxLevel:           o.MaxLevel,
		IncludeOFDs:        o.IncludeOFDs,
		CollectRemovalSets: o.CollectRemovalSets,
		TimeLimit:          o.TimeLimit,
		Bidirectional:      o.Bidirectional,
	}
}

// Validate checks the options against a schema width (number of columns),
// applying exactly the checks Discover would perform before running. It lets
// services reject invalid submissions up front instead of queueing a job
// doomed to fail.
func (o Options) Validate(numAttrs int) error {
	return o.config().Validate(numAttrs)
}

// OC is a discovered (approximate) order compatibility: within each group of
// rows agreeing on Context, A and B can be sorted simultaneously after
// removing Removals rows table-wide.
//
// The JSON field names below are a stable serialization contract shared by
// the aodserver HTTP API and the aodiscover -json output.
type OC struct {
	// Context holds the context column names (possibly empty).
	Context []string `json:"context"`
	// A and B are the order-compatible columns.
	A string `json:"a"`
	B string `json:"b"`
	// Descending marks a mixed-direction OC (A ascending, B descending),
	// reported only under Options.Bidirectional.
	Descending bool `json:"descending,omitempty"`
	// Error is the approximation factor e ∈ [0,1] (0 = holds exactly).
	Error float64 `json:"error"`
	// Removals is the removal-set size behind Error.
	Removals int `json:"removals"`
	// Level is the lattice level at which the dependency was found.
	Level int `json:"level"`
	// Score is the interestingness score (higher = more interesting).
	Score float64 `json:"score"`
	// RemovalRows holds minimal-removal-set row indexes when requested.
	RemovalRows []int `json:"removalRows,omitempty"`
}

// String renders the OC in the paper's canonical notation; mixed-direction
// OCs carry a "↓" on the descending side.
func (d OC) String() string {
	mark := ""
	if d.Descending {
		mark = "↓"
	}
	return fmt.Sprintf("{%s}: %s ∼ %s%s (e=%.4f)", strings.Join(d.Context, ","), d.A, d.B, mark, d.Error)
}

// OFD is a discovered (approximate) order functional dependency: A is
// constant within each group of rows agreeing on Context, up to Removals
// exceptions.
type OFD struct {
	Context     []string `json:"context"`
	A           string   `json:"a"`
	Error       float64  `json:"error"`
	Removals    int      `json:"removals"`
	Level       int      `json:"level"`
	Score       float64  `json:"score"`
	RemovalRows []int    `json:"removalRows,omitempty"`
}

// String renders the OFD in the paper's canonical notation.
func (d OFD) String() string {
	return fmt.Sprintf("{%s}: [] ↦ %s (e=%.4f)", strings.Join(d.Context, ","), d.A, d.Error)
}

// Stats instruments a discovery run. Durations serialize to JSON as integer
// nanoseconds (Go's time.Duration encoding).
type Stats struct {
	// Rows and Attrs describe the input.
	Rows  int `json:"rows"`
	Attrs int `json:"attrs"`
	// LevelsProcessed is the number of lattice levels examined.
	LevelsProcessed int `json:"levelsProcessed"`
	// NodesProcessed counts attribute sets whose candidates were examined.
	NodesProcessed int `json:"nodesProcessed"`
	// OCCandidates and OFDCandidates count validated candidates.
	OCCandidates  int `json:"ocCandidates"`
	OFDCandidates int `json:"ofdCandidates"`
	// OCSkippedFD and OFDSkippedFD count the candidates skipped unvalidated
	// because their context X holds an exact FD X∖{c} → c: the same
	// candidate over X∖{c} decided them one level down.
	OCSkippedFD  int `json:"ocSkippedFD,omitempty"`
	OFDSkippedFD int `json:"ofdSkippedFD,omitempty"`
	// OCsFoundPerLevel / OFDsFoundPerLevel index discovered counts by level.
	OCsFoundPerLevel  []int `json:"ocsFoundPerLevel"`
	OFDsFoundPerLevel []int `json:"ofdsFoundPerLevel"`
	// ValidationTime is the wall-clock time of each lattice node from its
	// first validated candidate to its last verdict, less PartitionTime:
	// the validators, the pruning checks and context lookups between them,
	// and removal-set collection. PartitionTime is time spent building
	// partitions; TotalTime is end-to-end.
	ValidationTime time.Duration `json:"validationTimeNs"`
	PartitionTime  time.Duration `json:"partitionTimeNs"`
	TotalTime      time.Duration `json:"totalTimeNs"`
	// TimedOut reports a TimeLimit abort (results are partial).
	TimedOut bool `json:"timedOut,omitempty"`
	// Canceled reports a context cancellation mid-run (results are partial).
	Canceled bool `json:"canceled,omitempty"`
	// EarlyStopped reports that discovery ended before exhausting the
	// lattice because no candidates remained.
	EarlyStopped bool `json:"earlyStopped,omitempty"`
}

// ValidationShare returns ValidationTime/TotalTime — the fraction of runtime
// spent validating candidates (the paper reports up to 99.6% for the
// iterative algorithm).
func (s Stats) ValidationShare() float64 {
	if s.TotalTime <= 0 {
		return 0
	}
	return float64(s.ValidationTime) / float64(s.TotalTime)
}

// AvgOCLevel returns the mean lattice level of the discovered OCs.
func (s Stats) AvgOCLevel() float64 {
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

// Report is the result of a discovery run. Dependencies are ordered by
// descending interestingness score.
type Report struct {
	OCs   []OC  `json:"ocs"`
	OFDs  []OFD `json:"ofds"`
	Stats Stats `json:"stats"`
}

// Discover finds the complete set of minimal (approximate) order
// compatibilities — and, optionally, order functional dependencies — that
// hold on the dataset within the configured threshold.
func Discover(d *Dataset, opts Options) (*Report, error) {
	return DiscoverContext(context.Background(), d, opts)
}

// DiscoverContext is Discover with cooperative cancellation. The context is
// polled right before each candidate validation, so a canceled run validates
// no further candidate; when it is canceled mid-run the
// partial report is returned with Stats.Canceled set and a nil error, the
// same contract as a TimeLimit abort. Long-running callers (services, job
// queues) should prefer this entry point so canceled work stops consuming
// CPU promptly.
//
// It is the one place a run's executor is chosen: the sharded executor when
// Options.ShardPool is set, the worker pool when Parallelism > 1, the serial
// executor otherwise. All three produce byte-identical reports.
func DiscoverContext(ctx context.Context, d *Dataset, opts Options) (*Report, error) {
	var pipe core.Pipeline
	switch {
	case opts.ShardPool != nil:
		pipe.Executor = core.ShardedQuantum(opts.ShardPool.cluster, opts.ShardPool.quantum)
	case opts.Parallelism > 1:
		pipe.Executor = core.Pool(opts.Parallelism)
	}
	if opts.Warm.Prepared != nil {
		pipe.Prepared = opts.Warm.Prepared.prep
	}
	if opts.Warm.Arena != nil {
		pipe.Arena = opts.Warm.Arena.a
	}
	names := d.ColumnNames()
	if onLevel := opts.OnLevel; onLevel != nil {
		pipe.Sink = func(s core.Snapshot) {
			// Snapshot slices are copies, so the partial result can be
			// sorted and converted like a final one.
			partial := &core.Result{OCs: s.OCs, OFDs: s.OFDs, Stats: s.Stats}
			onLevel(Progress{
				Level:              s.Level,
				MaxLevel:           s.MaxLevel,
				Nodes:              s.Nodes,
				Candidates:         s.Candidates,
				OCsFound:           s.Stats.OCsFound(),
				OFDsFound:          s.Stats.OFDsFound(),
				NodesRemaining:     s.NodesRemaining,
				EstimatedRemaining: s.EstimatedRemaining,
				LevelTime:          s.LevelTime,
				LevelValidation:    s.LevelValidation,
				LevelPartition:     s.LevelPartition,
				Final:              s.Final,
			}, buildReport(names, partial))
		}
	}
	res, err := pipe.Run(ctx, d.table(), opts.config())
	if err != nil {
		return nil, err
	}
	return buildReport(names, res), nil
}

// Progress describes one completed lattice level of a running discovery.
// The level-wise framework produces results level by level, so each event is
// a coherent result prefix: every dependency of the completed levels, none
// of a torn mid-level state. The JSON field names are a stable contract
// shared with the aodserver streaming API.
type Progress struct {
	// Level is the lattice level that just completed; MaxLevel is the last
	// level this run can reach.
	Level    int `json:"level"`
	MaxLevel int `json:"maxLevel"`
	// Nodes is the number of attribute sets in the completed level;
	// Candidates the number of candidates validated there.
	Nodes      int `json:"nodes"`
	Candidates int `json:"candidates"`
	// OCsFound and OFDsFound count dependencies discovered so far.
	OCsFound  int `json:"ocsFound"`
	OFDsFound int `json:"ofdsFound"`
	// NodesRemaining bounds the lattice nodes not yet visited;
	// EstimatedRemaining estimates the remaining work as
	// rows × attrs × remaining levels (the job scheduler's cost currency).
	// Both can overestimate: early termination skips everything left.
	NodesRemaining     int64 `json:"nodesRemaining"`
	EstimatedRemaining int64 `json:"estimatedRemaining"`
	// LevelTime is the wall-clock time the completed level took;
	// LevelValidation and LevelPartition are the slices of it spent inside
	// validators and building partitions. JSON: integer nanoseconds.
	LevelTime       time.Duration `json:"levelTimeNs,omitempty"`
	LevelValidation time.Duration `json:"levelValidationNs,omitempty"`
	LevelPartition  time.Duration `json:"levelPartitionNs,omitempty"`
	// Final marks the run's last event.
	Final bool `json:"final,omitempty"`
}

// ProgressFunc (Options.OnLevel) receives, per completed lattice level, the
// progress event and the partial report of everything discovered so far.
// The report is a fresh copy — safe to retain, serve, or mutate. Called
// synchronously from the discovery run: a slow callback slows discovery, so
// hand off and return.
type ProgressFunc func(p Progress, partial *Report)

// EstimateWork is the coarse cost estimate a scheduler can order discovery
// jobs by before any of them has run: rows × cols × explored levels (the
// whole lattice, or the MaxLevel bound). A running job refines it through
// Progress.EstimatedRemaining. A priority, not a prediction — see the
// scheduling notes in the README.
func EstimateWork(rows, cols, maxLevel int) int64 {
	levels := cols
	if maxLevel > 0 && maxLevel < cols {
		levels = maxLevel
	}
	return core.EstimateCost(rows, cols, levels)
}

// buildReport sorts the result by interestingness and converts it to the
// public, name-resolved Report form.
func buildReport(names []string, res *core.Result) *Report {
	res.SortByScore()
	rep := &Report{
		Stats: Stats{
			Rows:              res.Stats.Rows,
			Attrs:             res.Stats.Attrs,
			LevelsProcessed:   res.Stats.LevelsProcessed,
			NodesProcessed:    res.Stats.NodesProcessed,
			OCCandidates:      res.Stats.OCCandidates,
			OFDCandidates:     res.Stats.OFDCandidates,
			OCSkippedFD:       res.Stats.OCSkippedFD,
			OFDSkippedFD:      res.Stats.OFDSkippedFD,
			OCsFoundPerLevel:  res.Stats.OCsFoundPerLevel,
			OFDsFoundPerLevel: res.Stats.OFDsFoundPerLevel,
			ValidationTime:    res.Stats.ValidationTime,
			PartitionTime:     res.Stats.PartitionTime,
			TotalTime:         res.Stats.TotalTime,
			TimedOut:          res.Stats.TimedOut,
			Canceled:          res.Stats.Canceled,
			EarlyStopped:      res.Stats.EarlyStopped,
		},
	}
	for _, oc := range res.OCs {
		// Named ctxNames, not ctx: context.Context is often in scope here.
		var ctxNames []string
		oc.Context.ForEach(func(a int) { ctxNames = append(ctxNames, names[a]) })
		rep.OCs = append(rep.OCs, OC{
			Context:     ctxNames,
			A:           names[oc.A],
			B:           names[oc.B],
			Descending:  oc.Descending,
			Error:       oc.Error,
			Removals:    oc.Removals,
			Level:       oc.Level,
			Score:       oc.Score,
			RemovalRows: toInts(oc.RemovalRows),
		})
	}
	for _, ofd := range res.OFDs {
		var ctxNames []string
		ofd.Context.ForEach(func(a int) { ctxNames = append(ctxNames, names[a]) })
		rep.OFDs = append(rep.OFDs, OFD{
			Context:     ctxNames,
			A:           names[ofd.A],
			Error:       ofd.Error,
			Removals:    ofd.Removals,
			Level:       ofd.Level,
			Score:       ofd.Score,
			RemovalRows: toInts(ofd.RemovalRows),
		})
	}
	return rep
}

func toInts(rows []int32) []int {
	if rows == nil {
		return nil
	}
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = int(r)
	}
	return out
}
