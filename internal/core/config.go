// Package core implements the paper's discovery framework (Fig. 1 / Sec. 3.1):
// level-wise traversal of the set-based attribute lattice, generation of
// canonical AOC and AOFD candidates, axiom-based pruning, validation through
// a pluggable validator (exact, optimal LNDS-based, or the legacy iterative
// greedy), and interestingness scoring of the verified dependencies.
//
// The engine discovers the complete set of minimal dependencies under the
// semantics pinned in DESIGN.md:
//
//   - AOFD X: [] ↦ A is reported iff e ≤ ε and no Y ⊂ X has a valid AOFD
//     Y: [] ↦ A;
//   - AOC X: A ∼ B is reported iff e ≤ ε, no Y ⊂ X has a valid AOC
//     Y: A ∼ B, and no Y ⊆ X has a valid AOFD Y: [] ↦ A or Y: [] ↦ B
//     (a constant side trivializes order compatibility).
//
// With the iterative validator the engine reproduces the legacy system's
// behaviour instead: overestimated approximation factors can both miss AOCs
// and surface non-minimal ones (Exp-4 of the paper).
//
// Pruning skips, without validating them, the candidates these definitions
// already decide: an OFD or OC valid in a sub-context (minimality), an OC
// with a side constant in its context (constancy), and, as TANE [3] does
// for FDs, every candidate whose context X holds an exact FD X∖{c} → c.
// There Π_X = Π_{X∖{c}}, so the candidate has the error of the same
// candidate over X∖{c}, one level down: if that one holds, minimality or
// constancy skips this one; if not, this one fails too. The rule needs
// exact FDs: the exact validator's OFDs, or the OFDs the approximate
// validators verify with zero removals, propagated to supersets. An
// approximate OFD leaves Π_X ≠ Π_{X∖{c}} and skips nothing. Holding an
// exact FD is upward-closed (X∖{c} → c gives Y∖{c} → c for Y ⊇ X), so a
// level with no candidate left to validate ends the run.
//
// Every skip rule is upward-closed: a verdict at a node X skips the same
// candidate at every superset Y. So X is dead, and no superset of it is
// built, as FASTOD [9] deletes nodes, once its verdicts settle every
// candidate of every Y ⊋ X. That takes three things. X holds an exact FD,
// so a candidate over an attribute outside X, or a pair with both sides
// outside X, has a context in Y that holds it too. Each a ∈ X has a valid
// OFD W: [] ↦ a with W ⊆ X∖{a}, so the OFD on a is non-minimal in Y and an
// OC over a and some b ∉ X has a constant side; or X∖{a} holds an exact FD,
// so both contexts in Y hold it. And every OC candidate X validated held:
// a pair inside X was then found valid or skipped at X, and the same rule
// skips it in Y. Deletion changes neither the validated candidates nor the
// verdicts, only how many nodes and levels the traversal visits.
package core

import (
	"errors"
	"fmt"
	"time"
)

// ValidatorKind selects the OC/OFD validation algorithm used by Discover.
type ValidatorKind int

const (
	// ValidatorExact discovers exact ODs (ε is treated as 0) using the
	// linear exact checks; this is the "OD" configuration of the paper's
	// experiments (FASTOD).
	ValidatorExact ValidatorKind = iota
	// ValidatorOptimal discovers AODs with the paper's LNDS-based optimal
	// validator (Algorithm 2); the "AOD (optimal)" configuration.
	ValidatorOptimal
	// ValidatorIterative discovers AODs with the legacy greedy validator
	// (Algorithm 1); the "AOD (iterative)" configuration.
	ValidatorIterative
)

// String names the validator kind as in the paper's figures.
func (k ValidatorKind) String() string {
	switch k {
	case ValidatorExact:
		return "OD"
	case ValidatorOptimal:
		return "AOD (optimal)"
	case ValidatorIterative:
		return "AOD (iterative)"
	default:
		return fmt.Sprintf("ValidatorKind(%d)", int(k))
	}
}

// Config controls a discovery run.
type Config struct {
	// Threshold is the approximation threshold ε ∈ [0,1]. Ignored (treated
	// as 0) when Validator is ValidatorExact.
	Threshold float64
	// Validator selects the validation algorithm.
	Validator ValidatorKind
	// MaxLevel bounds the lattice level (attribute-set size) explored;
	// 0 means no bound (up to the number of attributes).
	MaxLevel int
	// IncludeOFDs requests that minimal approximate OFDs be reported in
	// addition to AOCs. Candidate OFD validation always runs (it drives
	// pruning); this flag only controls reporting.
	IncludeOFDs bool
	// CollectRemovalSets re-validates each verified dependency to attach the
	// removal-set row ids (useful for error repair / outlier detection).
	CollectRemovalSets bool
	// TimeLimit aborts discovery after the given wall-clock duration,
	// returning partial results with Stats.TimedOut set. 0 disables. It is
	// coordinator policy: only Pipeline.Run reads it, to set the run's
	// deadline. A TaskRunner never does (a shard worker's tasks stop when the
	// coordinator cancels their RunLevel context), so the field may ride
	// along in any config handed to one.
	TimeLimit time.Duration
	// DisablePruning is an ablation switch, the exhaustive walk: every
	// candidate is validated even when minimality, constancy or exact-FD
	// pruning could skip it, no verdict of a candidate pruning would skip
	// is kept, and no node is deleted. So the walk's validity state and
	// reported dependencies are the pruned run's, and at each level it
	// leaves unskipped exactly the candidates the pruned run validates;
	// but it also visits the nodes the pruned run deletes, whose candidates
	// it counts as skipped, and goes on past the level where the pruned
	// run stops. Used to measure the pruning benefit the paper's Exp-5
	// relies on, and as the oracle of the pruning tests.
	DisablePruning bool
	// Bidirectional additionally searches mixed-direction order
	// compatibilities X: A ∼ B↓ (A ascending, B descending), after the
	// bidirectional framework of Szlichta et al. (VLDBJ 2018, reference
	// [10]) that the reproduced paper builds upon. Each unordered pair
	// yields two candidates; A↓ ∼ B↑ is equivalent to A↑ ∼ B↓ and is not
	// searched separately.
	Bidirectional bool
}

// Validate checks the configuration against a schema width.
func (c Config) Validate(numAttrs int) error {
	if numAttrs < 1 {
		return errors.New("core: table must have at least one attribute")
	}
	if numAttrs > 64 {
		return fmt.Errorf("core: at most 64 attributes supported, got %d", numAttrs)
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("core: threshold must be in [0,1], got %g", c.Threshold)
	}
	switch c.Validator {
	case ValidatorExact, ValidatorOptimal, ValidatorIterative:
	default:
		return fmt.Errorf("core: unknown validator kind %d", int(c.Validator))
	}
	if c.MaxLevel < 0 {
		return fmt.Errorf("core: MaxLevel must be >= 0, got %d", c.MaxLevel)
	}
	return nil
}

// effectiveThreshold returns ε with the exact-validator override applied.
func (c Config) effectiveThreshold() float64 {
	if c.Validator == ValidatorExact {
		return 0
	}
	return c.Threshold
}
