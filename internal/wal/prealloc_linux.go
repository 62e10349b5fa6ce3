package wal

import (
	"os"
	"syscall"
)

// fdatasync forces f's data, and the metadata needed to read it back, to
// stable storage. Unlike fsync it leaves the inode's timestamps alone, so
// when the file size did not move it needs no file-system journal commit.
func fdatasync(f *os.File) error {
	return control(f, "fdatasync", syscall.Fdatasync)
}

// fallocate extends f to size bytes of allocated zeros (mode 0: the file
// size moves now, not with later writes).
func fallocate(f *os.File, size int64) error {
	return control(f, "fallocate", func(fd int) error { return syscall.Fallocate(fd, 0, 0, size) })
}

// control runs the system call fn on f's descriptor, retrying EINTR. Going
// through SyscallConn holds a reference on the descriptor: a file closed
// under the call (a roll sealing it under a commit round) answers
// os.ErrClosed, never a recycled descriptor number.
func control(f *os.File, name string, fn func(fd int) error) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for serr = fn(int(fd)); serr == syscall.EINTR; serr = fn(int(fd)) {
		}
	}); err != nil {
		return err
	}
	return os.NewSyscallError(name, serr)
}
