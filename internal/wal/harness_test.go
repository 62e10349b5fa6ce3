package wal

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The test harness. Every test of this package opens its journal with
// openJournal, appends with appendAll, scans a directory with recoverDir and
// reads one with readDir. A test calls Open or Recover itself only where
// that call's own result or refusal is what it checks.

// openJournal opens a journal on dir, failing t on an error. t's cleanup
// closes it, which does nothing once the test has closed or abandoned it.
func openJournal(t testing.TB, dir string, opts Options) *Journal {
	t.Helper()
	j, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// mustClose closes a journal or a mirror, failing t on an error.
func mustClose(t testing.TB, c io.Closer) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// abandon drops the journal the way a kill -9 does: buffered bytes are lost,
// the active segment is never sealed and keeps its preallocated zero tail,
// and nothing of the journal runs again.
func abandon(j *Journal) {
	j.mu.Lock()
	_ = j.f.Close()
	j.closed = true
	j.mu.Unlock()
	close(j.done)
	j.wg.Wait()
}

// appendAll appends recs, waits for each durability ack and returns the
// durable cursor after the last.
func appendAll(t testing.TB, j *Journal, recs ...Record) Cursor {
	t.Helper()
	for _, r := range recs {
		wait, err := j.Append(r)
		if err != nil {
			t.Fatalf("append %v: %v", r.Kind, err)
		}
		if wait != nil {
			if err := wait(); err != nil {
				t.Fatalf("wait %v: %v", r.Kind, err)
			}
		}
	}
	return j.DurableCursor()
}

// alerted is the filler record: appendAll(t, j, alerted) until the cursor
// reaches a segment fills the journal up to it.
var alerted = Record{Kind: KindMeta, Meta: Meta{Alerted: true}}

// recoverDir runs Recover on dir, failing t on an error or unless it left
// every file in dir byte-identical.
func recoverDir(t testing.TB, dir string) *Recovery {
	t.Helper()
	before := readDir(t, dir)
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readDir(t, dir), before) {
		t.Fatal("Recover wrote to the journal dir")
	}
	return rec
}

// mustCut runs rec.Cut, failing t on an error.
func mustCut(t testing.TB, rec *Recovery) {
	t.Helper()
	if err := rec.Cut(); err != nil {
		t.Fatal(err)
	}
}

// dirFiles is what a journal directory holds: each file's bytes by name.
type dirFiles map[string]string

// readDir reads every file in dir.
func readDir(t testing.TB, dir string) dirFiles {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(dirFiles, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// size is the byte length of segment seq's file, -1 when there is none.
func (d dirFiles) size(seq int) int64 {
	raw, ok := d[segmentName(seq)]
	if !ok {
		return -1
	}
	return int64(len(raw))
}

// footprint counts the files and sums their bytes.
func (d dirFiles) footprint() (files int, bytes int64) {
	for _, raw := range d {
		bytes += int64(len(raw))
	}
	return len(d), bytes
}

// names lists the file names in order, which for segments is their
// sequence order.
func (d dirFiles) names() []string {
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// oldest is the lowest segment number held, failing t when there is none.
func (d dirFiles) oldest(t testing.TB) int {
	t.Helper()
	names := d.names()
	if len(names) == 0 {
		t.Fatal("no segments in the journal dir")
	}
	n, err := segmentSeq(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return n
}
