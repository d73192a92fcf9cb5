package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"aod"
	"aod/internal/core"
)

// The benchmark checks every timed result against a reference computed
// outside the timed window. A digest covers what discovery decides — which
// dependencies hold, their removal counts and levels — and nothing that
// varies between correct runs (timings, ordering among equal scores).

// digestResult digests a core discovery result.
func digestResult(res *core.Result) string {
	lines := make([]string, 0, len(res.OCs)+len(res.OFDs))
	for _, oc := range res.OCs {
		lines = append(lines, fmt.Sprintf("oc %x %d %d %t %d %d",
			uint64(oc.Context), oc.A, oc.B, oc.Descending, oc.Removals, oc.Level))
	}
	for _, ofd := range res.OFDs {
		lines = append(lines, fmt.Sprintf("ofd %x %d %d %d",
			uint64(ofd.Context), ofd.A, ofd.Removals, ofd.Level))
	}
	return digestLines(lines)
}

// digestReport digests a report as the public API and the service return it.
func digestReport(rep *aod.Report) string {
	lines := make([]string, 0, len(rep.OCs)+len(rep.OFDs))
	for _, oc := range rep.OCs {
		lines = append(lines, fmt.Sprintf("oc %s %s %s %t %d %d",
			strings.Join(oc.Context, ","), oc.A, oc.B, oc.Descending, oc.Removals, oc.Level))
	}
	for _, ofd := range rep.OFDs {
		lines = append(lines, fmt.Sprintf("ofd %s %s %d %d",
			strings.Join(ofd.Context, ","), ofd.A, ofd.Removals, ofd.Level))
	}
	return digestLines(lines)
}

func digestLines(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
