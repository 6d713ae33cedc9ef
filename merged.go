package stablerank

import (
	"context"
	"errors"
	"sort"

	"stablerank/internal/rank"
)

// Merged enumeration implements the first future-work direction of the
// paper's Section 8: "Our current definition of stability considers two
// rankings to be different if they differ in one pair of items. An
// alternative is to allow minor changes in the ranking." Here rankings
// within a Kendall-tau distance threshold of a group's representative are
// treated as the same outcome and their stabilities are summed.

// MergedStable is a group of near-identical rankings whose stabilities are
// summed. See Analyzer.TopHMerged.
type MergedStable struct {
	// Representative is the most stable member of the group (the first one
	// enumerated, since enumeration is in decreasing stability).
	Representative Stable
	// Stability is the summed stability of every member.
	Stability float64
	// Members is the number of distinct rankings merged into the group.
	Members int
}

// TopHMerged enumerates ranking regions in decreasing stability, merging
// rankings within Kendall-tau distance tau of a group representative and
// summing their stabilities (the Section 8 "allow minor changes" extension).
// At most maxScan regions are examined (<= 0 scans until exhaustion). At
// most h groups are returned (<= 0 returns all).
func (a *Analyzer) TopHMerged(ctx context.Context, h, tau, maxScan int) ([]MergedStable, error) {
	ctx = orBackground(ctx)
	e, err := a.Enumerator(ctx)
	if err != nil {
		return nil, err
	}
	var groups []MergedStable
	scanned := 0
	for maxScan <= 0 || scanned < maxScan {
		s, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return nil, err
		}
		scanned++
		placed := false
		for i := range groups {
			d, err := rank.KendallTau(groups[i].Representative.Ranking, s.Ranking)
			if err != nil {
				return nil, err
			}
			if d <= tau {
				groups[i].Stability += s.Stability
				groups[i].Members++
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, MergedStable{
				Representative: s,
				Stability:      s.Stability,
				Members:        1,
			})
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		return groups[i].Stability > groups[j].Stability
	})
	if h > 0 && len(groups) > h {
		groups = groups[:h]
	}
	return groups, nil
}
