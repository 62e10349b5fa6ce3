//go:build !linux

package wal

import (
	"errors"
	"os"
)

// Without fdatasync(2) and fallocate(2) the journal is what it was before
// preallocation: appends grow the file and every round is a full fsync.

func fdatasync(f *os.File) error { return f.Sync() }

func fallocate(*os.File, int64) error { return errors.ErrUnsupported }
