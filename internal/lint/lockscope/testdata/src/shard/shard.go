// Package shard checks that a pool pass started through mc.Shard, the one
// worker loop every pool-scale sweep runs on, is flagged while a mutex is
// held and passes clean once the lock is released first.
package shard

import (
	"context"
	"sync"

	"stablerank/internal/mc"
)

type tally struct {
	mu    sync.Mutex
	total int
}

func count(ctx context.Context, n int, out []int) error {
	return mc.Shard(ctx, n, 0, func(int) func(int) error {
		return func(task int) error {
			out[task]++
			return nil
		}
	})
}

// sweepLocked runs the pass inside the critical section.
func (t *tally) sweepLocked(ctx context.Context, out []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = mc.Shard(ctx, len(out), 0, func(int) func(int) error { // want `call to stablerank/internal/mc\.Shard while holding t\.mu`
		return func(int) error { return nil }
	})
	t.total = len(out)
}

// sweepThenLock runs the pass first and takes the lock only to publish.
func (t *tally) sweepThenLock(ctx context.Context, out []int) {
	_ = count(ctx, len(out), out)
	t.mu.Lock()
	t.total = len(out)
	t.mu.Unlock()
}
