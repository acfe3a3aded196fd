package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteJSONReplaces checks the written bytes and that a second
// write replaces the first in place.
func TestWriteJSONReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	for _, tc := range []struct {
		v    map[string]int
		want string
	}{
		{map[string]int{"a": 1}, "{\n  \"a\": 1\n}\n"},
		{map[string]int{"b": 2}, "{\n  \"b\": 2\n}\n"},
	} {
		n, err := WriteJSON(path, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want || n != len(got) {
			t.Errorf("file = %q (%d bytes reported), want %q", got, n, tc.want)
		}
	}
	assertOnly(t, dir, "doc.json")
}

// TestWriteJSONFailureLeavesNoTemp makes the final rename fail — the
// target is a non-empty directory — after the temporary file has been
// written and synced, and asserts the temporary file is removed and the
// target untouched.
func TestWriteJSONFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteJSON(target, map[string]int{"a": 1}); err == nil {
		t.Fatal("WriteJSON over a non-empty directory succeeded")
	}
	assertOnly(t, dir, "ckpt")
	if fi, err := os.Stat(target); err != nil || !fi.IsDir() {
		t.Fatalf("target disturbed: %v %v", fi, err)
	}
}

// assertOnly fails unless dir holds exactly the named entry.
func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %q", names, name)
	}
}
