package serve

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lu"
	"repro/internal/store"
)

// Disk-backed eviction: with Config.SpillDir set, a snapshot pushed out
// of the bounded pinned store is serialized to disk instead of being
// dropped, and a query addressing it transparently reloads and re-pins
// it (possibly spilling another cold snapshot in turn). The pinned
// store thereby becomes a memory cap over a disk-resident history
// rather than a hard retention horizon: hot snapshots answer at memory
// speed, cold ones at one codec read. The on-disk index survives
// restarts — New scans the directory — so spilled history written by a
// previous process stays queryable.
//
// Writes are asynchronous: eviction happens on the factor-publish path
// (a base pin under the stream's write lock), which must never
// wait on disk. handleEvicted only enqueues; a dedicated writer
// goroutine performs the codec writes, and until a snapshot's write
// completes, queries are served straight from the queued in-memory
// solver. Spill files are written atomically (temp + rename), so a
// crash mid-spill leaves either the old file or the new one, never a
// torn one — and a failed load is counted and degrades to
// ErrUnknownSnapshot, the exact behavior of an engine without a spill
// directory.

// defaultSpillKeep bounds the spill directory when Config.SpillKeep is
// unset: oldest (lowest-index) spill files are deleted past it.
const defaultSpillKeep = 4096

// spillEnabled reports whether disk-backed eviction is configured.
func (e *Engine) spillEnabled() bool { return e.cfg.SpillDir != "" }

func (e *Engine) spillPath(idx int) string {
	return filepath.Join(e.cfg.SpillDir, "spill-"+strconv.Itoa(idx)+".snap")
}

// initSpill prepares the spill state at engine construction: the
// directory, the on-disk index from any previous process, and the
// writer goroutine.
func (e *Engine) initSpill() {
	if err := os.MkdirAll(e.cfg.SpillDir, 0o755); err == nil {
		if entries, err := os.ReadDir(e.cfg.SpillDir); err == nil {
			for _, ent := range entries {
				name := ent.Name()
				if !strings.HasPrefix(name, "spill-") || !strings.HasSuffix(name, ".snap") {
					continue
				}
				idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "spill-"), ".snap"))
				if err != nil {
					continue
				}
				e.spilled[idx] = true
			}
		}
	}
	e.wg.Add(1)
	go e.spillWriter()
}

// handleEvicted runs after Pin releases the store lock: queue each
// evicted solver for the background spill (when enabled) and purge its
// cached answers. It never blocks on disk — Pin is called on the
// streaming engine's publish path.
func (e *Engine) handleEvicted(evicted []evictedSnap) {
	for _, ev := range evicted {
		if e.spillEnabled() {
			e.spillMu.Lock()
			e.spillPending[ev.idx] = ev.s
			e.spillQueue = append(e.spillQueue, ev)
			e.spillMu.Unlock()
			select {
			case e.spillKick <- struct{}{}:
			default:
			}
		}
		// All generations of the evicted index: memory hygiene — the
		// store lookup already 404s it — and it keeps CacheEntries an
		// honest gauge of answers that can still be served.
		e.cache.purgePrefix(strconv.Itoa(ev.idx) + "#")
	}
}

// spillWriter is the background disk writer. On engine close it drains
// whatever is queued so the disk-resident history is complete.
func (e *Engine) spillWriter() {
	defer e.wg.Done()
	for {
		select {
		case <-e.spillKick:
			e.drainSpills()
		case <-e.closed:
			e.drainSpills()
			return
		}
	}
}

// drainSpills writes queued evictions until the queue is empty.
func (e *Engine) drainSpills() {
	for {
		e.spillMu.Lock()
		if len(e.spillQueue) == 0 {
			e.spillMu.Unlock()
			return
		}
		ev := e.spillQueue[0]
		e.spillQueue = e.spillQueue[1:]
		e.spillMu.Unlock()

		err := e.writeSpill(ev.idx, ev.s)

		e.spillMu.Lock()
		// A re-pin (or a newer eviction) of the index may have
		// superseded this solver while the write ran; only the current
		// pending owner publishes the mark.
		if e.spillPending[ev.idx] == ev.s {
			delete(e.spillPending, ev.idx)
			if err == nil {
				e.spilled[ev.idx] = true
			}
		}
		e.spillMu.Unlock()
		if err != nil {
			e.spillErrors.Add(1)
			continue
		}
		e.spillWrites.Add(1)
		e.enforceSpillBound()
	}
}

// enforceSpillBound deletes the oldest (lowest-index) spill files past
// the retention bound, so version-keyed history bases cannot grow the
// directory without limit. Deleting a file can retire history
// bases, so the delta-record log is re-trimmed afterwards.
func (e *Engine) enforceSpillBound() {
	keep := e.cfg.SpillKeep
	if keep <= 0 {
		keep = defaultSpillKeep
	}
	removed := false
	for {
		e.spillMu.Lock()
		if len(e.spilled) <= keep {
			e.spillMu.Unlock()
			break
		}
		oldest := -1
		for idx := range e.spilled {
			if oldest < 0 || idx < oldest {
				oldest = idx
			}
		}
		delete(e.spilled, oldest)
		e.spillMu.Unlock()
		os.Remove(e.spillPath(oldest))
		removed = true
	}
	if removed {
		e.trimHistory()
	}
}

// loadSpilled reloads a spilled snapshot: from the in-flight write
// queue when its disk write has not completed yet, from its file
// otherwise. ok is false when the snapshot was never spilled or its
// file cannot be read back (the caller then reports ErrUnknownSnapshot
// exactly as without spilling).
func (e *Engine) loadSpilled(idx int) (*lu.Solver, bool) {
	if !e.spillEnabled() {
		return nil, false
	}
	e.spillMu.Lock()
	if s := e.spillPending[idx]; s != nil {
		e.spillMu.Unlock()
		e.spillLoads.Add(1)
		return s, true
	}
	known := e.spilled[idx]
	e.spillMu.Unlock()
	if !known {
		return nil, false
	}
	f, err := os.Open(e.spillPath(idx))
	if err != nil {
		e.spillErrors.Add(1)
		return nil, false
	}
	defer f.Close()
	s, err := store.ReadSolver(f)
	if err != nil {
		e.spillErrors.Add(1)
		return nil, false
	}
	e.spillLoads.Add(1)
	return s, true
}

// writeSpill persists one solver atomically.
func (e *Engine) writeSpill(idx int, s *lu.Solver) error {
	tmp, err := os.CreateTemp(e.cfg.SpillDir, "spill-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := store.WriteSolver(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), e.spillPath(idx))
}
