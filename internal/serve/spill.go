package serve

import (
	"io"
	"os"
	"strconv"

	"repro/internal/lu"
	"repro/internal/store"
)

// Disk-backed eviction: with Config.SpillDir set, a snapshot pushed out
// of the bounded pinned store is serialized to disk instead of being
// dropped, and a query addressing it transparently reloads and re-pins
// it (possibly spilling another cold snapshot in turn): MaxSnapshots
// becomes a memory cap over a disk-resident history. New indexes the
// directory, so history spilled by a previous process stays queryable.
//
// Writes are asynchronous: eviction happens on the factor-publish path,
// which must never wait on disk. handleEvicted only enqueues; a writer
// goroutine writes, and until a write completes, queries are served
// from the queued solver. The directory is a store.Files: a crash
// mid-spill leaves the old file or the new one (temp file, fsync,
// rename, directory fsync), and the next open removes the temp file.
// A failed load is counted and degrades to ErrUnknownSnapshot, the
// behavior of an engine without a spill directory.

// spillKeep bounds the spill directory: past it the oldest
// (lowest-index) spill files are deleted. A variable only so a test
// can lower it.
var spillKeep = 4096

// initSpill opens the spill directory at engine construction and
// starts the writer goroutine. A directory that cannot be opened is
// counted and leaves spilling off.
func (e *Engine) initSpill() {
	files, err := store.OpenFiles(e.cfg.SpillDir, store.Name{Prefix: "spill-", Suffix: ".snap", Decimal: true})
	if err != nil {
		e.spillErrors.Add(1)
		return
	}
	e.spill = files
	e.wg.Add(1)
	go e.spillWriter()
}

// handleEvicted runs after Pin releases the store lock: queue each
// evicted solver for the background spill (when enabled) and purge its
// cached answers. It never blocks on disk — Pin is called on the
// streaming engine's publish path.
func (e *Engine) handleEvicted(evicted []evictedSnap) {
	for _, ev := range evicted {
		if e.spill != nil {
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

		err := e.spill.Write(uint64(ev.idx), func(w io.Writer) error { return store.WriteSolver(w, ev.s) })

		// The file is indexed before the pending entry goes, so a
		// reader that checks pending first, then the index, never
		// misses the snapshot. A newer eviction of the index may have
		// replaced the entry while the write ran; it stays.
		e.spillMu.Lock()
		if e.spillPending[ev.idx] == ev.s {
			delete(e.spillPending, ev.idx)
		}
		e.spillMu.Unlock()
		if err != nil {
			e.spillErrors.Add(1)
			continue
		}
		e.spillWrites.Add(1)
		// Deleting a file can retire history bases, so the
		// delta-record log is re-trimmed afterwards.
		if removed, _ := e.spill.KeepNewest(spillKeep); removed > 0 {
			e.trimHistory()
		}
	}
}

// loadSpilled reloads a spilled snapshot: from the in-flight write
// queue when its disk write has not completed yet, from its file
// otherwise. ok is false when the snapshot was never spilled or its
// file cannot be read back (the caller then reports ErrUnknownSnapshot
// exactly as without spilling).
func (e *Engine) loadSpilled(idx int) (*lu.Solver, bool) {
	if e.spill == nil {
		return nil, false
	}
	e.spillMu.Lock()
	s := e.spillPending[idx]
	e.spillMu.Unlock()
	if s != nil {
		e.spillLoads.Add(1)
		return s, true
	}
	if !e.spill.Has(uint64(idx)) {
		return nil, false
	}
	f, err := os.Open(e.spill.Path(uint64(idx)))
	if err == nil {
		s, err = store.ReadSolver(f)
		f.Close()
	}
	if err != nil {
		e.spillErrors.Add(1)
		return nil, false
	}
	e.spillLoads.Add(1)
	return s, true
}
