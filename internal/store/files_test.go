package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// TestNameSpellings pins the file names every directory under the data
// directory has always used, and that a name is parsed only in the
// spelling Format writes.
func TestNameSpellings(t *testing.T) {
	spill := Name{Prefix: "spill-", Suffix: ".snap", Decimal: true}
	for _, c := range []struct {
		name Name
		key  uint64
		file string
	}{
		{snapNames, 0x2a, "snap-000000000000002a.snap"},
		{walLog.names(), 7, "wal-0000000000000007.seg"},
		{histLog.names(), 1 << 40, "hist-0000010000000000.seg"},
		{spill, 12, "spill-12.snap"},
	} {
		if got := c.name.Format(c.key); got != c.file {
			t.Errorf("Format(%d) = %q, want %q", c.key, got, c.file)
		}
		if key, ok := c.name.Parse(c.file); !ok || key != c.key {
			t.Errorf("Parse(%q) = %d, %v", c.file, key, ok)
		}
	}
	for _, foreign := range []string{"snap-2a.snap", "snap-000000000000002a.tmp", "snap-000000000000002a", "wal-0000000000000007.seg", "snap-000000000000002A.snap"} {
		if _, ok := snapNames.Parse(foreign); ok {
			t.Errorf("snapshot name parsed %q", foreign)
		}
	}
	for _, foreign := range []string{"spill-012.snap", "spill-+12.snap", "spill--1.snap", "spill-.snap", "spill-123.tmp"} {
		if _, ok := spill.Parse(foreign); ok {
			t.Errorf("spill name parsed %q", foreign)
		}
	}
}

// TestFilesWriteIndexRetention drives one directory through writes,
// a failed write, keep-newest retention and a reopen: the index always
// lists exactly the files on disk, and no temp file survives.
func TestFilesWriteIndexRetention(t *testing.T) {
	dir := t.TempDir()
	name := Name{Prefix: "spill-", Suffix: ".snap", Decimal: true}
	f, err := OpenFiles(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := func() (keys []uint64) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			key, ok := name.Parse(e.Name())
			if !ok {
				t.Fatalf("stray file %s", e.Name())
			}
			keys = append(keys, key)
		}
		slices.Sort(keys)
		return keys
	}
	for _, k := range []uint64{9, 100, 3, 42, 9} {
		if err := f.Write(k, func(w io.Writer) error { _, err := w.Write([]byte{byte(k)}); return err }); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{3, 9, 42, 100}
	if got := f.Keys(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(onDisk(), want) {
		t.Fatalf("index %v, disk %v, want %v", got, onDisk(), want)
	}
	boom := errors.New("boom")
	if err := f.Write(5, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed fill returned %v", err)
	}
	if f.Has(5) || !reflect.DeepEqual(onDisk(), want) {
		t.Fatalf("a failed write left a trace: index has 5 = %v, disk %v", f.Has(5), onDisk())
	}
	if oldest, ok := f.Oldest(); !ok || oldest != 3 {
		t.Errorf("Oldest = %d, %v, want 3", oldest, ok)
	}
	if n, err := f.KeepNewest(2); err != nil || n != 2 {
		t.Fatalf("KeepNewest(2) removed %d (%v), want 2", n, err)
	}
	// A file someone else already deleted still leaves the index.
	if err := os.Remove(f.Path(42)); err != nil {
		t.Fatal(err)
	}
	if n, err := f.KeepNewest(1); err != nil || n != 1 {
		t.Fatalf("KeepNewest(1) removed %d (%v), want 1", n, err)
	}
	want = []uint64{100}
	if got := f.Keys(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(onDisk(), want) {
		t.Fatalf("after retention: index %v, disk %v, want %v", got, onDisk(), want)
	}
	if data, err := os.ReadFile(f.Path(100)); err != nil || !reflect.DeepEqual(data, []byte{100}) {
		t.Errorf("file 100 holds %v (%v)", data, err)
	}

	// A crash mid-write leaves a temp file; a foreign file is left alone.
	for _, stray := range []string{"spill-123456.tmp", "notes.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stray), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, err := OpenFiles(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("reopen indexed %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "spill-123456.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp survived the open: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.tmp")); err != nil {
		t.Errorf("the open removed a foreign file: %v", err)
	}
}
