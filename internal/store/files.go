package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Whole files under the data directory. The checkpoints and the
// serving layer's spill are directories of files written in one piece
// and named by a number, as the record logs' segments are.

// Name is the one spelling and parser of those names: Prefix, the key
// (16 lower-case hex digits, or plain decimal when Decimal), Suffix.
type Name struct {
	Prefix, Suffix string
	Decimal        bool
}

// Format returns the file name of key.
func (n Name) Format(key uint64) string {
	if n.Decimal {
		return n.Prefix + strconv.FormatUint(key, 10) + n.Suffix
	}
	return fmt.Sprintf("%s%016x%s", n.Prefix, key, n.Suffix)
}

// Parse returns the key a file name carries. A name Format would not
// have written (a temp file, a foreign file) reports false.
func (n Name) Parse(file string) (uint64, bool) {
	base := 16
	if n.Decimal {
		base = 10
	}
	key, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(file, n.Prefix), n.Suffix), base, 64)
	return key, err == nil && n.Format(key) == file
}

// Files is a directory of whole files keyed by the number in their
// name: one durable writer, one sorted index of the keys on disk, one
// retention rule (keep the newest n). Its methods are safe for
// concurrent use.
type Files struct {
	dir  string
	name Name

	mu   sync.Mutex
	keys []uint64 // on disk, ascending
}

// OpenFiles opens (creating if needed) the directory dir of files
// named by name and indexes them. It removes the temp files
// (<prefix>*.tmp) of writes a crash interrupted: no process will
// finish them.
func OpenFiles(dir string, name Name) (*Files, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	f := &Files{dir: dir, name: name}
	for _, e := range entries {
		if key, ok := name.Parse(e.Name()); ok {
			f.keys = append(f.keys, key)
		} else if strings.HasPrefix(e.Name(), name.Prefix) && strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	slices.Sort(f.keys)
	return f, nil
}

// Path returns the path of key's file.
func (f *Files) Path(key uint64) string { return filepath.Join(f.dir, f.name.Format(key)) }

// Write replaces key's file with what fill writes, atomically and
// durably: a temp file is filled, fsynced, closed and renamed over the
// file, then the directory is fsynced. A crash at any point leaves the
// old file or the new one, never a torn one.
func (f *Files) Write(key uint64, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(f.dir, f.name.Prefix+"*.tmp")
	if err != nil {
		return err
	}
	err = fill(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), f.Path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	f.mu.Lock()
	if i, found := slices.BinarySearch(f.keys, key); !found {
		f.keys = slices.Insert(f.keys, i, key)
	}
	f.mu.Unlock()
	return syncDir(f.dir)
}

// Has reports whether key's file is on disk.
func (f *Files) Has(key uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, found := slices.BinarySearch(f.keys, key)
	return found
}

// Oldest returns the smallest key on disk.
func (f *Files) Oldest() (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.keys) == 0 {
		return 0, false
	}
	return f.keys[0], true
}

// Keys returns the keys on disk, ascending.
func (f *Files) Keys() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.keys)
}

// KeepNewest deletes the files of all but the n largest keys, oldest
// first, and reports how many it deleted. It stops at the first
// deletion that fails; a file already gone counts as deleted.
func (f *Files) KeepNewest(n int) (removed int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ; len(f.keys) > n; removed++ {
		if err := os.Remove(f.Path(f.keys[0])); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return removed, err
		}
		f.keys = f.keys[1:]
	}
	return removed, nil
}
