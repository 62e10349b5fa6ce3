// Package replica implements WAL log shipping between a primary sagserver
// and a hot-standby follower, the paper's serving deployment made highly
// available: an auditor that stops signaling mid-cycle forfeits the
// deterrence guarantees of Theorems 1–2, so the standby keeps a byte-for-byte
// mirror of every tenant's journal and, promoted, recovers each one the way a
// boot does, with zero acknowledged mutation loss. A standby builds no
// engine: the mirror is its only state.
//
// # Protocol
//
// The primary exposes GET /v1/replicate?tenant=<id>&seg=N&off=M&crc=X. The
// cursor (seg, off) is the follower's mirrored tail — a byte position in
// its own copy of the tenant's journal, which is byte-for-byte identical to
// the primary's — and crc is the stored checksum of the record ending
// there. The primary validates the cursor against its on-disk journal:
//
//   - a valid cursor resumes streaming from exactly that frame;
//   - a pruned segment, a non-boundary offset, or a checksum mismatch
//     answers 409 with X-SAG-Reseed: 1 — the follower deletes its mirror
//     and reconnects cursorless;
//   - a cursorless connect streams the whole retained journal from its
//     oldest frame, newest snapshot included.
//
// The response is an unbounded binary stream of length-prefixed frames:
//
//	'r' uvarint(seg) uvarint(off) uvarint(len) raw-frame-bytes
//	'h' uvarint(seg) uvarint(off) uvarint(records)        — heartbeat
//
// Record frames carry the journal frame exactly as stored (length prefix +
// payload + CRC-32), so the follower verifies the checksum and appends the
// same bytes at the same offset of the same segment file. Heartbeats carry
// the primary's durable cursor and record count (~1s apart, and after every
// batch) so the follower can measure catch-up lag even when idle.
//
// Without a tenant parameter the endpoint lists the tenants in the
// primary's data dir as JSON; the follower polls it to discover tenants.
package replica

import "time"

// Replication metric names.
const (
	// MetricLagRecords gauges, per tenant, how many durable primary records
	// the follower has not yet mirrored.
	MetricLagRecords = "sag_replica_lag_records"
	// MetricLagSeconds gauges, per tenant, how long ago the follower was
	// last fully caught up (zero while caught up).
	MetricLagSeconds = "sag_replica_lag_seconds"
	// MetricReconnects counts replication stream (re)connect attempts after
	// the first, per tenant; a retry of a mirror that could not be recovered
	// counts too.
	MetricReconnects = "sag_replica_reconnects_total"
	// MetricReseeds counts snapshot re-seeds — the follower discarded its
	// local copy because its cursor fell off the primary's retained journal.
	// With retention leases on the primary this stays at zero for a
	// connected follower no matter how aggressively the primary compacts.
	MetricReseeds = "sag_replica_reseeds_total"
)

// HeaderReseed marks a 409 that demands a snapshot re-seed: the follower's
// history has diverged from (or fallen off) the primary's retained journal.
const HeaderReseed = "X-SAG-Reseed"

// Frame type bytes of the binary stream.
const (
	frameRecord    = 'r'
	frameHeartbeat = 'h'
)

// DefaultHeartbeat is the idle heartbeat period of a replication stream.
const DefaultHeartbeat = time.Second

// streamWriteTimeout bounds each write of the stream; it is re-armed per
// write, so an alive stream outlives the HTTP server's global WriteTimeout
// while a stuck peer is still cut off.
const streamWriteTimeout = 30 * time.Second
