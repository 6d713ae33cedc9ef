package lockscope

import (
	"testing"

	"stablerank/internal/lint/linttest"
)

func TestLockscope(t *testing.T) {
	linttest.Run(t, "testdata/src/a", New())
}

// TestDeltaMuRegression pins the PR 9 review bug (fixed in ae926f8): drift
// was priced by a full pool sweep while deltaMu was held. The buggy shape
// must be flagged and the price-then-lock rewrite must pass clean.
func TestDeltaMuRegression(t *testing.T) {
	linttest.Run(t, "testdata/src/deltamu", New())
}

// TestShardPass: a pool pass started through mc.Shard while a mutex is held
// is flagged, and the sweep-then-lock shape passes clean.
func TestShardPass(t *testing.T) {
	linttest.Run(t, "testdata/src/shard", New())
}
