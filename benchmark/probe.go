package main

import (
	"crypto/sha256"
	"encoding/json"
	"syscall"
	"unsafe"
)

// threadCPUNs reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID), which the kernel keeps to the nanosecond.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return ts.Nano()
}

// probeBody is what the speed probe decodes and hashes: a fixed answer, so
// the probe's work never depends on what the server said.
var probeBody = []byte(`{"alert":true,"type_id":3,"rules":"Neighbor (<=0.5 miles)","warn":true,"remaining_budget":41.37338697581442}` + "\n")

// speedProbe measures how fast this box is executing code right now: it
// decodes and hashes a fixed answer twice and returns the thread CPU time
// that took. The work is constant and touches nothing the server touched,
// so the time moves only with the box: clock frequency, a busy sibling
// hyperthread, a neighbour's pressure on the shared cache. The connection
// runs it right after judging each access answer — after, so that how long
// the connection slept waiting for the server (which leaves its caches
// cold) is absorbed by the judging and does not leak into the probe.
//
// keep receives a byte of the result so the compiler cannot drop the work;
// each connection passes its own, so concurrent probes share nothing.
func speedProbe(keep *byte) int64 {
	t0 := threadCPUNs()
	for i := 0; i < 2; i++ {
		var r accessBody
		_ = json.Unmarshal(probeBody, &r)
		sum := sha256.Sum256(probeBody)
		*keep += sum[0] + byte(r.TypeID)
	}
	return threadCPUNs() - t0
}
