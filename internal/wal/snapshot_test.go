package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
)

// sampleSnapshot returns a snapshot with every field non-trivial; its cycle
// log is sampleRecords' decisions.
func sampleSnapshot() Snapshot {
	s := Snapshot{
		Engine:   core.EngineState{Budget: 11.875, Initial: 12.5, RNGDraws: 9},
		Accesses: 7, Alerts: 4, Warned: 2, Quits: 1,
		Flagged: []int{3, 417},
		Closed:  true,
	}
	for _, r := range sampleRecords() {
		if r.Kind == KindDecision {
			s.Engine.Decisions = append(s.Engine.Decisions, r.Decision)
		}
	}
	return s
}

// legacySample is sampleSnapshot as the JSON snapshots of earlier builds
// spelled it, with the keys even earlier builds added (the estimator's
// memory, the kept rates, the last equilibrium), which decode ignores.
const legacySample = `{"engine":{"budget":11.875,"initial":12.5,"rng_draws":9,` +
	`"last_rates":[1,2],"last_sse":{"best_type":6},"decisions":[` +
	`{"Seq":0,"Type":3,"Time":5400000000000,"Warned":true,"Vacuous":false,"AppliedSAG":true,"Fallback":0,` +
	`"Theta":0.41,"AuditCharge":0.3125,"BudgetBefore":12.5,"BudgetAfter":11.875,"SSEUtility":-42.7,"OSSPUtility":-31.9},` +
	`{"Seq":1,"Type":0,"Time":3600000000000,"Warned":false,"Vacuous":true,"AppliedSAG":false,"Fallback":3,` +
	`"Theta":0,"AuditCharge":0,"BudgetBefore":11.875,"BudgetAfter":11.875,"SSEUtility":0,"OSSPUtility":0}]},` +
	`"estimator":{"last_good":52200000000000,"seen_good":true},` +
	`"accesses":7,"alerts":4,"warned":2,"quits":1,"flagged":[3,417],"closed":true}`

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	for _, in := range []struct {
		name string
		blob func() ([]byte, error)
	}{
		{"binary", func() ([]byte, error) { return EncodeSnapshot(want) }},
		{"legacy JSON", func() ([]byte, error) { return []byte(legacySample), nil }},
	} {
		blob, err := in.blob()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded\n%+v\nwant\n%+v", in.name, got, want)
		}
	}
	// An empty log and no flagged employees decode to empty, not nil.
	blob, err := EncodeSnapshot(Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeSnapshot(blob); err != nil || got.Engine.Decisions == nil || got.Flagged == nil {
		t.Fatalf("empty snapshot decodes to %+v, %v", got, err)
	}
}

// TestSnapshotCostsWhatTheJournalCosts: a 4096-decision cycle's snapshot
// takes at most 1.5× what its decision records take in the journal, framing
// and segment headers included.
func TestSnapshotCostsWhatTheJournalCosts(t *testing.T) {
	const n = 4096
	var st core.EngineState
	budget := 4096.0
	for i := 0; i < n; i++ {
		charge := 0.25 + float64(i%13)/17
		st.Decisions = append(st.Decisions, core.DecisionRecord{
			Seq: uint64(i), Type: i % 7, Time: 9*time.Hour + time.Duration(i)*10*time.Second,
			Warned: i%3 == 0, AppliedSAG: true, Theta: charge / 0.9, AuditCharge: charge,
			BudgetBefore: budget, BudgetAfter: budget - charge,
			SSEUtility: -40 - float64(i)/7, OSSPUtility: -30 - float64(i)/11,
		})
		budget -= charge
	}
	st.Budget, st.Initial, st.RNGDraws = budget, 4096, n
	blob, err := EncodeSnapshot(Snapshot{Engine: st, Accesses: n, Alerts: n})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Decisions {
		if _, err := j.Append(Record{Kind: KindDecision, Decision: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var journal int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		journal += fi.Size()
	}
	perSnap, perRecord := float64(len(blob))/n, float64(journal)/n
	t.Logf("%.1f snapshot bytes per decision, %.1f journal bytes per decision record", perSnap, perRecord)
	if perSnap > 1.5*perRecord {
		t.Fatalf("a snapshot spends %.1f B per decision, over 1.5× the journal's %.1f", perSnap, perRecord)
	}
}

func TestDecodeSnapshotRefuses(t *testing.T) {
	sample := sampleSnapshot()
	good, err := EncodeSnapshot(sample)
	if err != nil {
		t.Fatal(err)
	}
	// The sample's layout: the format byte and two floats, then six one-byte
	// uvarints (RNG draws, four counters, closed), then the flagged count and
	// employees (3, 417), then the decision count and the decisions.
	const counters, flagged, decisions = 1 + 16, 1 + 16 + 6, 1 + 16 + 6 + 4
	first, err := appendDecision(nil, sample.Engine.Decisions[0])
	if err != nil {
		t.Fatal(err)
	}
	flags := decisions + 1 + len(first) - 2 - 6*8
	if good[flagged] != 2 || good[decisions] != 2 || good[flags] != decWarned|decApplied {
		t.Fatalf("the sample's layout moved: % x", good[:flags+2])
	}
	set := func(off int, b byte) []byte {
		out := bytes.Clone(good)
		out[off] = b
		return out
	}
	splice := func(off int, b ...byte) []byte { // b in place of the byte at off
		return append(append(bytes.Clone(good[:off]), b...), good[off+1:]...)
	}
	cases := map[string][]byte{
		"empty":                  {},
		"unknown format":         set(0, 0x7f),
		"trailing byte":          append(bytes.Clone(good), 0),
		"closed flag 2":          set(counters+5, 2),
		"padded uvarint":         splice(counters, 0x89, 0x00),
		"counter past MaxInt64":  splice(counters+1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"stray decision flag":    set(flags, decWarned|0x40),
		"fallback out of range":  set(flags+1, 9),
		"flagged count 2^62":     binary.AppendUvarint(bytes.Clone(good[:flagged]), 1<<62),
		"decision count 2^62":    binary.AppendUvarint(bytes.Clone(good[:decisions]), 1<<62),
		"JSON that is not JSON":  []byte(`{"engine":`),
		"JSON with a negative":   []byte(`{"accesses":-1}`),
		"JSON with a bad record": []byte(`{"engine":{"decisions":[{"Type":-1}]}}`),
	}
	for i := 1; i < len(good); i++ {
		cases[fmt.Sprintf("truncated to %d bytes", i)] = good[:i]
	}
	// A count the blob cannot hold is refused before the slice it would
	// size is made.
	var before, after runtime.MemStats
	for name, blob := range cases {
		runtime.ReadMemStats(&before)
		s, err := DecodeSnapshot(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", name, s)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(blob), got)
		}
	}
	for _, bad := range []Snapshot{
		{Accesses: -1},
		{Flagged: []int{-3}},
		{Engine: core.EngineState{Decisions: []core.DecisionRecord{{Time: -time.Second}}}},
	} {
		if _, err := EncodeSnapshot(bad); err == nil {
			t.Errorf("encoded %+v", bad)
		}
	}
}
