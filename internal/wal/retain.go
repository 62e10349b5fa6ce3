package wal

import (
	"os"
	"path/filepath"
	"sort"
)

// Retention: byte accounting, leases, and lease-aware pruning.
//
// A journal's disk footprint is its sealed segments plus the active one.
// Everything strictly below the newest snapshot segment is re-derivable
// from the snapshot and is therefore *reclaimable*; it becomes *prunable*
// once no retention lease still pins it. Leases are how replication streams
// keep the segments they are reading out of the pruner's reach: the
// streamer acquires a lease at its resume cursor, advances it as frames
// ship, and releases it on disconnect. The invariant maintained here is
//
//	lease floor ≤ prune frontier ≤ newest snapshot segment
//
// so a prune can never delete a frame a connected reader still needs, and
// recovery always finds the snapshot it restores from.

// RetainStats is a point-in-time view of one journal's disk footprint.
type RetainStats struct {
	// Segments counts on-disk segment files (active one included).
	Segments int
	// TotalBytes is the journal's whole on-disk size in bytes.
	TotalBytes int64
	// PrunableBytes is deletable right now: sealed segments strictly below
	// both the newest snapshot segment and the lease floor.
	PrunableBytes int64
	// ReclaimableBytes is deletable after a fresh snapshot: every sealed
	// segment below the active one, clamped at the lease floor. This is
	// what a compactor's snapshot-then-prune would free.
	ReclaimableBytes int64
	// SnapshotSeg is the segment holding the newest snapshot record; -1
	// when the journal has none.
	SnapshotSeg int
	// LeaseFloorSeg is the lowest segment any live lease pins; -1 when no
	// lease is held.
	LeaseFloorSeg int
}

// Lease pins a journal suffix against pruning: no segment at or above the
// lease's position is deleted while the lease is live.
type Lease struct {
	j   *Journal
	id  int
	seg int
}

// AcquireLease pins the journal from cur's segment onward. The caller must
// Release it; Advance moves the pin forward as the reader progresses.
func (j *Journal) AcquireLease(cur Cursor) *Lease {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.acquireLeaseLocked(cur)
}

func (j *Journal) acquireLeaseLocked(cur Cursor) *Lease {
	id := j.nextLeaseID
	j.nextLeaseID++
	l := &Lease{j: j, id: id, seg: cur.Seg}
	if j.leases == nil {
		j.leases = make(map[int]int)
	}
	j.leases[id] = cur.Seg
	return l
}

// Advance moves the lease's pin forward to cur's segment. Moves backward
// are ignored — a lease only ever narrows what it protects.
func (l *Lease) Advance(cur Cursor) {
	l.j.mu.Lock()
	defer l.j.mu.Unlock()
	if cur.Seg > l.seg {
		l.seg = cur.Seg
		if _, ok := l.j.leases[l.id]; ok {
			l.j.leases[l.id] = cur.Seg
		}
	}
}

// Release drops the lease. Idempotent.
func (l *Lease) Release() {
	l.j.mu.Lock()
	defer l.j.mu.Unlock()
	delete(l.j.leases, l.id)
}

// leaseFloorLocked returns the lowest pinned segment; ok is false when no
// lease is held. The caller holds mu.
func (j *Journal) leaseFloorLocked() (int, bool) {
	floor, ok := 0, false
	for _, seg := range j.leases {
		if !ok || seg < floor {
			floor, ok = seg, true
		}
	}
	return floor, ok
}

// RetainStats returns the journal's current disk accounting. Safe on a
// closed journal (the numbers describe whatever is still on disk).
func (j *Journal) RetainStats() RetainStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := RetainStats{
		Segments:      len(j.sealedBytes) + 1,
		TotalBytes:    max(j.written, j.alloc), // the active file's size on disk
		SnapshotSeg:   -1,
		LeaseFloorSeg: -1,
	}
	if !j.snapAt.IsZero() {
		st.SnapshotSeg = j.snapAt.Seg
	}
	if j.closed {
		st.Segments-- // no active segment once sealed by Close
	}
	floor, hasLease := j.leaseFloorLocked()
	if hasLease {
		st.LeaseFloorSeg = floor
	}
	pruneTo := j.pruneFrontierLocked()
	reclaimTo := j.seq // a fresh snapshot would land in the active segment
	if hasLease && floor < reclaimTo {
		reclaimTo = floor
	}
	for seg, n := range j.sealedBytes {
		st.TotalBytes += n
		if seg < pruneTo {
			st.PrunableBytes += n
		}
		if seg < reclaimTo {
			st.ReclaimableBytes += n
		}
	}
	return st
}

// pruneFrontierLocked computes the highest segment number the pruner may
// delete below: the newest snapshot segment clamped at the lease floor.
// Zero means nothing is prunable (no snapshot yet). The caller holds mu.
func (j *Journal) pruneFrontierLocked() int {
	if j.snapAt.IsZero() {
		return 0
	}
	frontier := j.snapAt.Seg
	if floor, ok := j.leaseFloorLocked(); ok && floor < frontier {
		frontier = floor
	}
	return frontier
}

// Prune deletes sealed segments wholly superseded by the newest snapshot,
// never crossing the lease floor. It returns how many segments (and bytes)
// were removed. Concurrent Prune calls and prune-vs-reader races are safe:
// deletion is serialized, readers that lose the race observe ErrCursorGone.
func (j *Journal) Prune() (segs int, bytes int64, err error) {
	j.pruneMu.Lock()
	defer j.pruneMu.Unlock()

	j.mu.Lock()
	frontier := j.pruneFrontierLocked()
	var victims []int
	for seg := range j.sealedBytes {
		if seg < frontier {
			victims = append(victims, seg)
		}
	}
	j.mu.Unlock()
	if len(victims) == 0 {
		return 0, 0, nil
	}
	// Oldest first: what is retained stays one unbroken suffix of the journal
	// at every step, which is what lets a reader trust segmentAfter.
	sort.Ints(victims)
	for _, seg := range victims {
		path := filepath.Join(j.dir, segmentName(seg))
		if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
			return segs, bytes, rerr
		}
		j.mu.Lock()
		bytes += j.sealedBytes[seg]
		delete(j.sealedBytes, seg)
		j.mu.Unlock()
		segs++
	}
	return segs, bytes, syncDir(j.dir)
}
