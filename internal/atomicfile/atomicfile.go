// Package atomicfile writes whole-document artifacts — campaign
// checkpoints, verification sweep progress — so that a reader never
// sees a torn file: the document goes to a temporary file in the target
// directory, is fsynced, and is renamed over the target. An
// interruption or error at any step leaves the previous target intact
// and no temporary file behind.
package atomicfile

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// WriteJSON atomically replaces path with v encoded as two-space
// indented JSON plus a trailing newline, and returns the byte size
// written. The file is created with mode 0644.
func WriteJSON(path string, v any) (int, error) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return 0, err
	}
	blob = append(blob, '\n')
	if err := write(path, blob); err != nil {
		return 0, err
	}
	return len(blob), nil
}

func write(path string, blob []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if _, err = f.Write(blob); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
