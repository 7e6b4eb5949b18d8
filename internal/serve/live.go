package serve

import (
	"repro/internal/lu"
)

// This file is the hot-publish half of the serving layer: instead of
// pinning per-snapshot clones (Pin + core.Options.RetainFactors),
// an Engine can attach a *live source* — a streaming maintenance engine
// (core.Stream) that updates one set of factors in place and exposes
// them through a read-locked view. Queries for the latest state then
// solve directly on the maintainer's current factors:
//
//	core.Stream ──Apply──▶ factors (in place) ──View──▶ serve workers
//	              write lock                   read lock
//
// No factor bytes are copied on the publish path — publishing a version
// is a counter bump under the stream's write lock. The price is
// coupling: a query holding the view blocks the next batch commit
// (backpressure), and a committing batch briefly blocks latest-state
// queries. Snapshot-addressed queries are unaffected: they go to the
// pinned store and the delta-compressed history, which the stream's
// publish hook feeds (HistoryHook: a base clone every HistoryBase
// versions, the versions between by delta replay; docs/STREAMING.md).

// LiveSource is the read side of a streaming factor maintainer. View
// runs fn with the latest published version and its solver while
// holding the source's read lock, guaranteeing the factors do not
// advance during fn; it returns false (fn not called) when the source
// has nothing published. core.Stream implements this.
type LiveSource interface {
	View(fn func(version uint64, s *lu.Solver)) bool
}

// AttachLive routes latest-state queries (Snapshot < 0) to src. Attach
// before serving traffic, or mid-flight: queries observe the source on
// their next dispatch. Attaching nil detaches, restoring pure
// pinned-store serving. Every attach bumps the live cache-key
// generation, so a replacement source — whose version counter starts
// over — can never be served answers cached from its predecessor.
func (e *Engine) AttachLive(src LiveSource) {
	e.mu.Lock()
	e.live = src
	e.liveGen++
	e.mu.Unlock()
}

// liveSource reads the attached source and its attach generation. The
// lock is released before the caller touches the source (see the field
// comment on lock ordering).
func (e *Engine) liveSource() (LiveSource, uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.live, e.liveGen
}
