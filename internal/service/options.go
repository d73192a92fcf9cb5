package service

import (
	"encoding/json"

	"aod"
)

// canonicalOptions maps an Options value to the representative of its
// result-equivalence class: fields that provably cannot change the
// discovered dependencies are zeroed and defaulted fields are pinned to
// their effective values, so any two option sets guaranteed to produce the
// same Report share one cache key.
func canonicalOptions(o aod.Options) aod.Options {
	// Parallel validation is contractually result-identical to sequential.
	o.Parallelism = 0
	// TimeLimit changes only whether a run completes, not a completed run's
	// result — and partial (timed-out) results are never cached. (Jobs with
	// a limit also bypass in-flight sharing; see Service.compute.)
	o.TimeLimit = 0
	if o.Algorithm == aod.AlgorithmExact {
		// The exact validator treats ε as 0.
		o.Threshold = 0
	}
	return o
}

// cacheKey derives the result-cache key for running the canonicalized
// options against the fingerprinted dataset. Options marshal with omitempty
// on every field, so the JSON of a canonical value is itself canonical.
func cacheKey(fingerprint string, o aod.Options) string {
	b, err := json.Marshal(canonicalOptions(o))
	if err != nil {
		// Every Options field Marshal visits is a scalar: the non-scalar
		// handles (OnLevel, ShardPool, Warm) are tagged json:"-" and so stay
		// out of the key. While that holds, Marshal cannot fail.
		panic("service: marshal options: " + err.Error())
	}
	return fingerprint + "|" + string(b)
}
