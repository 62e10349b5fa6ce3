package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzDecodeSnapshot hardens the snapshot decoder: arbitrary bytes decode or
// fail with an error, never panic, and never size a slice past what the input
// could hold. A decoded binary snapshot re-encodes to the bytes it came from;
// a decoded JSON one re-encodes to a binary snapshot that does.
func FuzzDecodeSnapshot(f *testing.F) {
	good, err := EncodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(legacySample))
	f.Add(binary.AppendUvarint(bytes.Clone(good[:1+16+6+4]), 1<<62)) // 2^62 decisions
	f.Add(good[:9])                                                  // a truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		perEntry := minDecisionBytes
		if data[0] == '{' {
			perEntry = len("{},")
		}
		if cap(s.Decisions) > len(data)/perEntry || cap(s.Flagged) > len(data) {
			t.Fatalf("%d input bytes sized %d decisions and %d flagged employees", len(data), cap(s.Decisions), cap(s.Flagged))
		}
		enc, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if data[0] != '{' && !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding changed the bytes:\n got %x\nwant %x", enc, data)
		}
		back, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if enc2, err := EncodeSnapshot(back); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed snapshot bytes (%v):\n got %x\nwant %x", err, enc2, enc)
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

// FuzzRecoverSegment feeds arbitrary bytes as a segment file. Recover must
// never panic, loop forever or fail: it leaves the file byte-identical and
// returns the same result twice; after Cut, a third scan finds the valid
// prefix clean, and the journal opens and appends on top of it. This is the
// acceptance property for corrupt data dirs.
func FuzzRecoverSegment(f *testing.F) {
	// Seed with a real segment.
	dir := f.TempDir()
	j := openJournal(f, dir, Options{Fsync: FsyncNone})
	appendAll(f, j, sampleRecords()...)
	mustClose(f, j)
	raw := []byte(readDir(f, dir)[segmentName(0)])
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
		rec, rec2 := recoverDir(t, tmp), recoverDir(t, tmp)
		// Compare tails via the encoding (NaN-safe; see FuzzDecodeRecord).
		a, b := *rec, *rec2
		a.Tail, b.Tail = nil, nil
		if !bytes.Equal(encodeAll(t, rec.Tail), encodeAll(t, rec2.Tail)) || !reflect.DeepEqual(a, b) {
			t.Fatal("two recoveries of the same bytes differ")
		}
		// Once cut, the directory is clean: a third scan reports no
		// corruption and the identical logical state.
		mustCut(t, rec)
		rec3 := recoverDir(t, tmp)
		if rec3.Truncated {
			t.Fatal("recovery after the cut still reports corruption")
		}
		if !bytes.Equal(encodeAll(t, rec.Tail), encodeAll(t, rec3.Tail)) || string(rec.Snapshot) != string(rec3.Snapshot) {
			t.Fatal("the cut changed the recovered state")
		}
		// And the journal must accept appends on top of it.
		j := openJournal(t, tmp, Options{Fsync: FsyncNone})
		appendAll(t, j, Record{Kind: KindCycleClose})
		mustClose(t, j)
	})
}
