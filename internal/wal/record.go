package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/fallback"
)

// Kind discriminates journal records.
type Kind uint8

const (
	// KindSnapshot carries a tenant's full state (EncodeSnapshot). Recovery
	// restores from the last snapshot and replays only the records after it.
	KindSnapshot Kind = 1
	// KindDecision is one committed engine decision (core.DecisionRecord):
	// the chosen signal, the audit charge, and the budget chain.
	KindDecision Kind = 2
	// KindMeta is one served request that produced no engine decision —
	// a benign access, a flagged-user warning, or an unmodeled alert type —
	// carried for the tenant's cycle counters.
	KindMeta Kind = 3
	// KindQuit records that a warned employee abandoned the access.
	KindQuit Kind = 4
	// KindCycleOpen records a cycle rollover with its fresh budget.
	KindCycleOpen Kind = 5
	// KindCycleClose records that the cycle's audit plan was drawn.
	KindCycleClose Kind = 6
)

// String returns a stable name for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSnapshot:
		return "snapshot"
	case KindDecision:
		return "decision"
	case KindMeta:
		return "meta"
	case KindQuit:
		return "quit"
	case KindCycleOpen:
		return "cycle_open"
	case KindCycleClose:
		return "cycle_close"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Meta flag bits.
const (
	// MetaAlerted marks that a detection rule fired on the access.
	MetaAlerted = 1 << 0
	// MetaWarned marks that the response carried a warning (flagged user).
	MetaWarned = 1 << 1
)

// Meta is the counter delta of one request that bypassed the engine.
// Every meta record implies one access; the flags add the alert/warn deltas.
type Meta struct {
	Alerted bool
	Warned  bool
}

// Record is one journal entry. Kind selects which payload field is live.
type Record struct {
	Kind     Kind
	Decision core.DecisionRecord // KindDecision
	Meta     Meta                // KindMeta
	Employee int                 // KindQuit
	Budget   float64             // KindCycleOpen
	Snapshot []byte              // KindSnapshot (EncodeSnapshot's blob)
}

// Decision record flag bits.
const (
	decWarned  = 1 << 0
	decVacuous = 1 << 1
	decApplied = 1 << 2
)

// appendFloat appends the IEEE-754 bit pattern little endian.
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// encode appends the payload encoding of r (kind byte first) to buf.
func encode(buf []byte, r Record) ([]byte, error) {
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KindSnapshot:
		buf = append(buf, r.Snapshot...)
	case KindDecision:
		return appendDecision(buf, r.Decision)
	case KindMeta:
		var flags byte
		if r.Meta.Alerted {
			flags |= MetaAlerted
		}
		if r.Meta.Warned {
			flags |= MetaWarned
		}
		buf = append(buf, flags)
	case KindQuit:
		if r.Employee < 0 {
			return nil, fmt.Errorf("wal: negative employee %d", r.Employee)
		}
		buf = binary.AppendUvarint(buf, uint64(r.Employee))
	case KindCycleOpen:
		buf = appendFloat(buf, r.Budget)
	case KindCycleClose:
		// No payload beyond the kind byte.
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return buf, nil
}

// DecodeRecord parses one payload (as framed by the segment format) back
// into a Record. It is the inverse of encode and rejects trailing bytes,
// truncated fields, and unknown kinds — corruption that slipped past the
// CRC must still never produce a silently wrong record.
func DecodeRecord(p []byte) (Record, error) {
	var r Record
	if len(p) == 0 {
		return r, fmt.Errorf("wal: empty payload")
	}
	r.Kind = Kind(p[0])
	rest := p[1:]
	switch r.Kind {
	case KindSnapshot:
		// DecodeSnapshot reads the blob; keep a copy so the caller may retain
		// it after the read buffer is reused.
		r.Snapshot = append([]byte(nil), rest...)
		return r, nil
	case KindDecision:
		var err error
		if r.Decision, rest, err = takeDecision(rest); err != nil {
			return r, err
		}
	case KindMeta:
		if len(rest) < 1 {
			return r, fmt.Errorf("wal: meta flags truncated")
		}
		r.Meta.Alerted = rest[0]&MetaAlerted != 0
		r.Meta.Warned = rest[0]&MetaWarned != 0
		rest = rest[1:]
	case KindQuit:
		v, tail, err := takeUvarint(rest)
		if err != nil {
			return r, fmt.Errorf("wal: quit employee: %w", err)
		}
		if v > math.MaxInt32 {
			return r, fmt.Errorf("wal: implausible employee %d", v)
		}
		r.Employee = int(v)
		rest = tail
	case KindCycleOpen:
		var err error
		if r.Budget, rest, err = takeFloat(rest); err != nil {
			return r, fmt.Errorf("wal: cycle budget: %w", err)
		}
	case KindCycleClose:
		// No payload.
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", p[0])
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("wal: %d trailing bytes after %v record", len(rest), r.Kind)
	}
	return r, nil
}

// Snapshot is the state a KindSnapshot record carries: the engine's cycle
// state and the serving layer's per-tenant state — the cycle counters, the
// flagged employees and whether the cycle's audit plan was drawn.
type Snapshot struct {
	Engine   core.EngineState
	Accesses int64
	Alerts   int64
	Warned   int64
	Quits    int64
	Flagged  []int
	Closed   bool
}

// snapshotFormat is the first byte of a snapshot blob. It is not '{', the
// first byte of the JSON snapshots earlier builds wrote: DecodeSnapshot
// still reads those, and a build that reads only JSON refuses this format
// rather than restoring a tenant half-right.
const snapshotFormat = 1

// minDecisionBytes is the shortest appendDecision encoding (one-byte seq,
// type and time, the flag and fallback bytes, six floats): a decision count
// the remaining bytes cannot hold is refused before anything is allocated.
const minDecisionBytes = 3 + 2 + 6*8

// EncodeSnapshot encodes s: the format byte; the budget and initial budget
// as floats; the RNG draws, the four counters, closed (0 or 1) and the
// flagged employees (a count, then each) as uvarints; then the decision
// count and each decision as the journal's decision records carry it.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	st := s.Engine
	buf := make([]byte, 0, 64+3*len(s.Flagged)+64*len(st.Decisions))
	buf = append(buf, snapshotFormat)
	buf = appendFloat(buf, st.Budget)
	buf = appendFloat(buf, st.Initial)
	buf = binary.AppendUvarint(buf, st.RNGDraws)
	var closed int64
	if s.Closed {
		closed = 1
	}
	for _, v := range []int64{s.Accesses, s.Alerts, s.Warned, s.Quits, closed, int64(len(s.Flagged))} {
		if v < 0 {
			return nil, fmt.Errorf("wal: negative counter %d in snapshot", v)
		}
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, emp := range s.Flagged {
		if emp < 0 {
			return nil, fmt.Errorf("wal: negative flagged employee %d in snapshot", emp)
		}
		buf = binary.AppendUvarint(buf, uint64(emp))
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Decisions)))
	for _, d := range st.Decisions {
		var err error
		if buf, err = appendDecision(buf, d); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeSnapshot is the inverse of EncodeSnapshot, and also reads the JSON
// snapshots of earlier builds (a blob whose first byte is '{'). It refuses an
// unknown format byte, truncation, trailing bytes, a count the remaining
// bytes cannot hold, and any encoding EncodeSnapshot would not have written,
// so a decoded snapshot re-encodes to the bytes it came from.
func DecodeSnapshot(p []byte) (Snapshot, error) {
	var s Snapshot
	switch {
	case len(p) == 0:
		return s, fmt.Errorf("wal: empty snapshot")
	case p[0] == '{':
		return decodeLegacySnapshot(p)
	case p[0] != snapshotFormat:
		return s, fmt.Errorf("wal: unknown snapshot format %#x", p[0])
	}
	rest := p[1:]
	st := &s.Engine
	var err error
	if st.Budget, rest, err = takeFloat(rest); err != nil {
		return s, fmt.Errorf("wal: snapshot budget: %w", err)
	}
	if st.Initial, rest, err = takeFloat(rest); err != nil {
		return s, fmt.Errorf("wal: snapshot initial budget: %w", err)
	}
	var hdr [6]uint64 // the RNG draws, the four counters, closed
	for i := range hdr {
		if hdr[i], rest, err = takeUvarint(rest); err != nil {
			return s, fmt.Errorf("wal: snapshot header: %w", err)
		}
	}
	st.RNGDraws = hdr[0]
	s.Accesses, s.Alerts, s.Warned, s.Quits = int64(hdr[1]), int64(hdr[2]), int64(hdr[3]), int64(hdr[4])
	s.Closed = hdr[5] != 0
	var n uint64
	if n, rest, err = takeCount(rest, 1); err != nil {
		return s, fmt.Errorf("wal: snapshot flagged employees: %w", err)
	}
	s.Flagged = make([]int, n)
	for i := range s.Flagged {
		var v uint64
		if v, rest, err = takeUvarint(rest); err != nil {
			return s, fmt.Errorf("wal: snapshot flagged employee: %w", err)
		}
		s.Flagged[i] = int(v)
	}
	if n, rest, err = takeCount(rest, minDecisionBytes); err != nil {
		return s, fmt.Errorf("wal: snapshot decisions: %w", err)
	}
	st.Decisions = make([]core.DecisionRecord, n)
	for i := range st.Decisions {
		if st.Decisions[i], rest, err = takeDecision(rest); err != nil {
			return s, fmt.Errorf("wal: snapshot decision %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return s, fmt.Errorf("wal: %d trailing bytes after snapshot", len(rest))
	}
	// What the reads above let through but EncodeSnapshot never writes — a
	// counter past MaxInt64, a closed flag past 1, a padded uvarint, a stray
	// flag bit, an out-of-range fallback byte — fails here.
	if enc, err := EncodeSnapshot(s); err != nil || !bytes.Equal(enc, p) {
		return s, fmt.Errorf("wal: snapshot is not in its canonical encoding")
	}
	return s, nil
}

// legacySnapshot is the JSON snapshot earlier builds wrote, read so that
// their data dirs boot and their mirrored snapshots promote. Its keys are
// spelled out, so renaming a core field cannot change how it decodes.
type legacySnapshot struct {
	Engine struct {
		Budget    float64          `json:"budget"`
		Initial   float64          `json:"initial"`
		RNGDraws  uint64           `json:"rng_draws"`
		Decisions []legacyDecision `json:"decisions"`
	} `json:"engine"`
	Accesses int64 `json:"accesses"`
	Alerts   int64 `json:"alerts"`
	Warned   int64 `json:"warned"`
	Quits    int64 `json:"quits"`
	Flagged  []int `json:"flagged"`
	Closed   bool  `json:"closed"`
}

// legacyDecision is core.DecisionRecord as earlier builds' JSON spelled it
// (its Go field names). The field set matches, so it converts directly.
type legacyDecision struct {
	Seq          uint64         `json:"Seq"`
	Type         int            `json:"Type"`
	Time         time.Duration  `json:"Time"`
	Warned       bool           `json:"Warned"`
	Vacuous      bool           `json:"Vacuous"`
	AppliedSAG   bool           `json:"AppliedSAG"`
	Fallback     fallback.Level `json:"Fallback"`
	Theta        float64        `json:"Theta"`
	AuditCharge  float64        `json:"AuditCharge"`
	BudgetBefore float64        `json:"BudgetBefore"`
	BudgetAfter  float64        `json:"BudgetAfter"`
	SSEUtility   float64        `json:"SSEUtility"`
	OSSPUtility  float64        `json:"OSSPUtility"`
}

// decodeLegacySnapshot reads an earlier build's JSON snapshot and passes it
// through EncodeSnapshot and DecodeSnapshot, so it is held to the same checks
// as a snapshot this build wrote.
func decodeLegacySnapshot(p []byte) (Snapshot, error) {
	var l legacySnapshot
	if err := json.Unmarshal(p, &l); err != nil {
		return Snapshot{}, fmt.Errorf("wal: decoding JSON snapshot: %w", err)
	}
	s := Snapshot{
		Engine: core.EngineState{
			Budget:    l.Engine.Budget,
			Initial:   l.Engine.Initial,
			RNGDraws:  l.Engine.RNGDraws,
			Decisions: make([]core.DecisionRecord, len(l.Engine.Decisions)),
		},
		Accesses: l.Accesses,
		Alerts:   l.Alerts,
		Warned:   l.Warned,
		Quits:    l.Quits,
		Flagged:  l.Flagged,
		Closed:   l.Closed,
	}
	for i, d := range l.Engine.Decisions {
		s.Engine.Decisions[i] = core.DecisionRecord(d)
	}
	enc, err := EncodeSnapshot(s)
	if err != nil {
		return Snapshot{}, err
	}
	return DecodeSnapshot(enc)
}

// appendDecision appends the encoding of one decision: the journal's
// KindDecision payload after the kind byte, and each entry of a snapshot's
// cycle log.
func appendDecision(buf []byte, d core.DecisionRecord) ([]byte, error) {
	if d.Type < 0 || d.Time < 0 {
		return nil, fmt.Errorf("wal: negative field in decision record %+v", d)
	}
	buf = binary.AppendUvarint(buf, d.Seq)
	buf = binary.AppendUvarint(buf, uint64(d.Type))
	buf = binary.AppendUvarint(buf, uint64(d.Time))
	var flags byte
	if d.Warned {
		flags |= decWarned
	}
	if d.Vacuous {
		flags |= decVacuous
	}
	if d.AppliedSAG {
		flags |= decApplied
	}
	buf = append(buf, flags, byte(d.Fallback))
	buf = appendFloat(buf, d.Theta)
	buf = appendFloat(buf, d.AuditCharge)
	buf = appendFloat(buf, d.BudgetBefore)
	buf = appendFloat(buf, d.BudgetAfter)
	buf = appendFloat(buf, d.SSEUtility)
	buf = appendFloat(buf, d.OSSPUtility)
	return buf, nil
}

// takeDecision parses one appendDecision encoding from the front of b and
// returns the bytes after it.
func takeDecision(b []byte) (core.DecisionRecord, []byte, error) {
	var d core.DecisionRecord
	var err error
	if d.Seq, b, err = takeUvarint(b); err != nil {
		return d, nil, fmt.Errorf("wal: decision seq: %w", err)
	}
	var v uint64
	if v, b, err = takeUvarint(b); err != nil {
		return d, nil, fmt.Errorf("wal: decision type: %w", err)
	}
	if v > math.MaxInt32 {
		return d, nil, fmt.Errorf("wal: implausible decision type %d", v)
	}
	d.Type = int(v)
	if v, b, err = takeUvarint(b); err != nil {
		return d, nil, fmt.Errorf("wal: decision time: %w", err)
	}
	if v > uint64(math.MaxInt64) {
		return d, nil, fmt.Errorf("wal: implausible decision time %d", v)
	}
	d.Time = time.Duration(v)
	if len(b) < 2 {
		return d, nil, fmt.Errorf("wal: decision flags truncated")
	}
	flags := b[0]
	d.Warned = flags&decWarned != 0
	d.Vacuous = flags&decVacuous != 0
	d.AppliedSAG = flags&decApplied != 0
	d.Fallback = fallbackLevel(b[1])
	b = b[2:]
	for _, dst := range []*float64{&d.Theta, &d.AuditCharge, &d.BudgetBefore, &d.BudgetAfter, &d.SSEUtility, &d.OSSPUtility} {
		if *dst, b, err = takeFloat(b); err != nil {
			return d, nil, fmt.Errorf("wal: decision floats: %w", err)
		}
	}
	return d, b, nil
}

// fallbackLevel narrows a stored byte to the fallback ladder's range;
// out-of-range values (format drift, corruption past the CRC) clamp to the
// terminal Static rung rather than inventing a new level.
func fallbackLevel(b byte) fallback.Level {
	if l := fallback.Level(b); l >= fallback.None && l <= fallback.Static {
		return l
	}
	return fallback.Static
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad varint")
	}
	return v, b[n:], nil
}

// takeCount reads a uvarint count of entries at least size bytes each,
// refusing one the rest of b cannot hold.
func takeCount(b []byte, size int) (uint64, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)/size) {
		return 0, nil, fmt.Errorf("count %d exceeds the %d bytes left", n, len(rest))
	}
	return n, rest, nil
}

func takeFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("truncated float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}
