// Package atomicfile replaces a file's contents atomically: the new bytes
// go to a temp file in the target's directory, which is renamed over the
// target only after it is fully written and closed. An interrupted or
// failed save therefore leaves the previous file intact, never a torn one.
// The corpus verdict store and the memo file both save through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write saves path through write. The bytes go to a new temp file in path's
// directory, named from pattern as by os.CreateTemp (so with mode 0600),
// which then is renamed over path. On any error the temp file is removed
// and path is left as it was. Write does not fsync: it guards against a
// save that fails or is interrupted, not against losing the machine.
func Write(path, pattern string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
