package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"emuchick/internal/storefs"
)

// timingFS is the benchmark's storefs.FS for traced rounds: it passes every
// call to the real filesystem and records a storefs.* span for it, labelled
// with the job the file belongs to (job records and checkpoint logs are
// named by job id; result files by fingerprint, which the client maps back
// to the job that produced it).
type timingFS struct {
	inner storefs.FS
	tr    *tracer

	mu      sync.Mutex
	syncs   map[string]int // sync calls per owner (job id or "key:<fingerprint>")
	syncNs  []int64
	written int64
}

func newTimingFS(tr *tracer) *timingFS {
	return &timingFS{inner: storefs.OS{}, tr: tr, syncs: map[string]int{}}
}

// owner names the job (or result key) a data-directory path belongs to.
func owner(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, ".tmp")
	stem := strings.TrimSuffix(base, filepath.Ext(base))
	if filepath.Base(filepath.Dir(path)) == "results" {
		return "key:" + stem
	}
	return stem
}

func (t *timingFS) span(name, path string) int {
	return t.tr.begin(name, owner(path), unresolved)
}

func (t *timingFS) MkdirAll(path string, perm fs.FileMode) error { return t.inner.MkdirAll(path, perm) }

func (t *timingFS) OpenFile(path string) (storefs.File, error) {
	id := t.span("storefs.open", path)
	f, err := t.inner.OpenFile(path)
	t.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, path: path}, nil
}

func (t *timingFS) ReadFile(path string) ([]byte, error) {
	id := t.span("storefs.read", path)
	defer t.tr.end(id)
	return t.inner.ReadFile(path)
}

func (t *timingFS) ReadDir(path string) ([]fs.DirEntry, error) {
	id := t.span("storefs.readdir", path)
	defer t.tr.end(id)
	return t.inner.ReadDir(path)
}

func (t *timingFS) Stat(path string) (fs.FileInfo, error) { return t.inner.Stat(path) }

func (t *timingFS) Rename(oldpath, newpath string) error {
	id := t.span("storefs.rename", newpath)
	defer t.tr.end(id)
	return t.inner.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(path string) error { return t.inner.Remove(path) }

// counts returns the per-owner sync counts, the sync durations and the bytes
// written since the last call, and resets them.
func (t *timingFS) counts() (map[string]int, []int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ns, w := t.syncs, t.syncNs, t.written
	t.syncs, t.syncNs, t.written = map[string]int{}, nil, 0
	return s, ns, w
}

type timingFile struct {
	storefs.File
	fs   *timingFS
	path string
}

func (f *timingFile) Write(p []byte) (int, error) {
	id := f.fs.span("storefs.write", f.path)
	n, err := f.File.Write(p)
	f.fs.tr.end(id)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	id := f.fs.span("storefs.sync", f.path)
	start := time.Now()
	err := f.File.Sync()
	f.fs.tr.end(id)
	d := time.Since(start).Nanoseconds()
	f.fs.mu.Lock()
	f.fs.syncs[owner(f.path)]++
	f.fs.syncNs = append(f.fs.syncNs, d)
	f.fs.mu.Unlock()
	return err
}

func (f *timingFile) Close() error {
	id := f.fs.span("storefs.close", f.path)
	defer f.fs.tr.end(id)
	return f.File.Close()
}
