package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRecord hardens the record decoder: arbitrary payload bytes must
// decode or error, never panic, and a successful decode must round-trip
// through the encoder back to identical bytes (the journal's self-check
// that no field is silently dropped or reinterpreted).
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		payload, err := encode(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindDecision)})
	f.Add([]byte{byte(KindSnapshot)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc, err := encode(nil, r)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %+v: %v", r, err)
		}
		back, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		// Compare via the encoding, not the structs: float fields may carry
		// NaN (any bit pattern decodes), and NaN != NaN under DeepEqual
		// while the byte round-trip is still exact.
		enc2, err := encode(nil, back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed record bytes:\n got %x\nwant %x", enc2, enc)
		}
	})
}

// encodeAll concatenates the payload encodings of recs.
func encodeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		enc, err := encode(nil, r)
		if err != nil {
			t.Fatalf("recovered record failed to encode: %+v: %v", r, err)
		}
		out = append(out, enc...)
	}
	return out
}

// FuzzRecoverSegment feeds arbitrary bytes as a segment file: Recover must
// either restore a valid prefix or truncate — never panic, loop forever, or
// fail to boot. This is the acceptance property for corrupt data dirs.
func FuzzRecoverSegment(f *testing.F) {
	// Seed with a real segment.
	dir := f.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if _, err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := segments(dir)
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3]) // torn tail
	f.Add([]byte(magic + "\x01"))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add(append(raw[:len(raw):len(raw)], make([]byte, 64)...))                  // preallocated zero tail
	f.Add(append(raw[:len(raw):len(raw)], "\x00\x00\x00\x07garbage\x00\x00"...)) // zeros, then not zeros

	f.Fuzz(func(t *testing.T, data []byte) {
		tmp := t.TempDir()
		if err := os.WriteFile(filepath.Join(tmp, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(tmp)
		if err != nil {
			t.Fatalf("recovery must truncate, not fail: %v", err)
		}
		// Whatever survived, the directory must now be clean: a second scan
		// reports no corruption and the identical logical state.
		rec2, err := Recover(tmp)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		if rec2.Truncated {
			t.Fatal("second recovery still reports corruption")
		}
		// Compare tails via the encoding (NaN-safe; see FuzzDecodeRecord).
		if !bytes.Equal(encodeAll(t, rec.Tail), encodeAll(t, rec2.Tail)) || string(rec.Snapshot) != string(rec2.Snapshot) {
			t.Fatal("recovery is not idempotent after truncation")
		}
		// And the journal must accept appends on top of it.
		j, _, err := Open(tmp, Options{Fsync: FsyncNone})
		if err != nil {
			t.Fatalf("journal failed to open after recovery: %v", err)
		}
		if _, err := j.Append(Record{Kind: KindCycleClose}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
