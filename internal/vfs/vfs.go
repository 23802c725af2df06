// Package vfs implements the in-memory filesystem that plays the role of a
// deployment image: the application source plus its site-packages tree.
//
// λ-trim's debloater backs up a module's __init__ file, rewrites it on every
// Delta Debugging iteration, and copies it back into site-packages; the
// fallback deployment keeps the original image alongside the trimmed one.
// All of that file traffic happens against this filesystem.
package vfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FS is an in-memory file tree keyed by slash-separated paths. Paths are
// normalized to have no leading slash. The zero value is not usable; call New.
type FS struct {
	files map[string]string

	// derived memoizes values computed from the whole tree (the runtime's
	// per-module source records). It cannot be invalidated per path —
	// adding a file can change the resolution of a name that previously
	// fell through to another root — so any Write or Remove clears it
	// entirely. Mutations only happen between pipeline stages, never on the
	// oracle hot path. A sync.Map so concurrent readers stay lock-free.
	derived sync.Map // caller-defined key -> value
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string]string)}
}

// Clean normalizes a path: trims leading "./" and "/" and collapses
// duplicate slashes.
func Clean(path string) string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p == "" || p == "." {
			continue
		}
		out = append(out, p)
	}
	return strings.Join(out, "/")
}

// Write creates or replaces a file.
func (fs *FS) Write(path, content string) {
	p := Clean(path)
	fs.files[p] = content
	fs.clearDerived()
}

// Read returns a file's contents.
func (fs *FS) Read(path string) (string, error) {
	c, ok := fs.files[Clean(path)]
	if !ok {
		return "", fmt.Errorf("vfs: no such file: %s", path)
	}
	return c, nil
}

// Exists reports whether path holds a file.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[Clean(path)]
	return ok
}

// Remove deletes a file; removing a missing file is an error so callers
// notice bookkeeping mistakes.
func (fs *FS) Remove(path string) error {
	p := Clean(path)
	if _, ok := fs.files[p]; !ok {
		return fmt.Errorf("vfs: no such file: %s", path)
	}
	delete(fs.files, p)
	fs.clearDerived()
	return nil
}

func (fs *FS) clearDerived() {
	fs.derived.Range(func(k, _ any) bool {
		fs.derived.Delete(k)
		return true
	})
}

// DerivedGet returns a value previously stored with DerivedPut, if the tree
// has not been written to since. Callers key with a type of their own, as
// with context values, so their keys never collide.
func (fs *FS) DerivedGet(key any) (any, bool) { return fs.derived.Load(key) }

// DerivedPut memoizes a value derived from the tree's current contents.
func (fs *FS) DerivedPut(key, v any) { fs.derived.Store(key, v) }

// List returns all paths in sorted order.
func (fs *FS) List() []string {
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// ListDir returns the paths under the given directory prefix, sorted.
func (fs *FS) ListDir(dir string) []string {
	prefix := Clean(dir)
	if prefix != "" {
		prefix += "/"
	}
	var paths []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	return paths
}

// Clone returns a deep copy; the debloater clones the image before
// mutating site-packages so the original deployment stays intact for the
// fallback function.
func (fs *FS) Clone() *FS {
	c := New()
	for p, content := range fs.files {
		c.files[p] = content
	}
	return c
}

// TotalSize returns the summed byte length of all files — the "image size"
// used by the platform simulator's image-transmission phase.
func (fs *FS) TotalSize() int64 {
	var n int64
	for _, content := range fs.files {
		n += int64(len(content))
	}
	return n
}

// Len returns the number of files.
func (fs *FS) Len() int { return len(fs.files) }
