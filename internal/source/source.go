// Package source manages the source text of a compilation: the
// implementation module (M.mod) plus every definition module (X.def)
// reachable through imports.
//
// The compiler never touches the file system directly; it asks a Loader
// for module text.  This keeps the whole compiler usable in-memory (the
// workload generator and the test suite depend on that) while cmd/m2c
// supplies a disk-backed Loader.  A compilation reads its files through
// a Snapshot, which keeps beside each text what impscan learns of it:
// its imports, from the one scan of the file, and its closure hash.
package source

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"
)

// Hash is a stable content hash of one module file's text.  The
// interface cache keys compiled definition modules by the combined
// hash of their transitive import closure, so any textual change to a
// .def (or to anything it imports) invalidates dependent entries.
type Hash [sha256.Size]byte

// HashText hashes module source text, in place: a []byte(text)
// conversion would copy the whole file on every call.
func HashText(text string) Hash {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(text), len(text)))
}

func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// FileKind distinguishes the two halves of a Modula-2+ module.
type FileKind uint8

const (
	// Def is a definition module file (M.def).
	Def FileKind = iota
	// Impl is an implementation module file (M.mod).
	Impl
)

func (k FileKind) String() string {
	if k == Def {
		return "def"
	}
	return "mod"
}

// Ext returns the conventional file extension for the kind.
func (k FileKind) Ext() string {
	if k == Def {
		return ".def"
	}
	return ".mod"
}

// A Loader resolves module names to source text.  Load is called
// concurrently from importer tasks and must be safe for concurrent use.
type Loader interface {
	// Load returns the text of the named module file.  It returns an
	// error if the module is unknown.
	Load(name string, kind FileKind) (string, error)
}

// MapLoader is an in-memory Loader keyed by "Name.def" / "Name.mod".
// The zero value is empty and ready to use after the first Add.
type MapLoader struct {
	mu    sync.RWMutex // guards: files
	files map[string]string
}

// NewMapLoader returns an empty in-memory loader.
func NewMapLoader() *MapLoader {
	return &MapLoader{files: make(map[string]string)}
}

// Add registers module text under the given name and kind, replacing any
// previous text.
func (l *MapLoader) Add(name string, kind FileKind, text string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.files == nil {
		l.files = make(map[string]string)
	}
	l.files[name+kind.Ext()] = text
}

// Load implements Loader.
func (l *MapLoader) Load(name string, kind FileKind) (string, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	text, ok := l.files[name+kind.Ext()]
	if !ok {
		return "", fmt.Errorf("module %s%s not found", name, kind.Ext())
	}
	return text, nil
}

// Names returns the registered file names in sorted order (for listings
// and tests).
func (l *MapLoader) Names() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.files))
	for n := range l.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DirLoader loads module files from one or more directories, first match
// wins.  It is safe for concurrent use.
type DirLoader struct {
	Dirs []string
}

// Load implements Loader by searching each directory for Name.def or
// Name.mod.
func (l *DirLoader) Load(name string, kind FileKind) (string, error) {
	base := name + kind.Ext()
	for _, dir := range l.Dirs {
		data, err := os.ReadFile(filepath.Join(dir, base))
		if err == nil {
			return string(data), nil
		}
		if !os.IsNotExist(err) {
			return "", err
		}
	}
	return "", fmt.Errorf("module %s not found in %v", base, l.Dirs)
}

// Snapshot is one compilation's view of a Loader: each file is loaded at
// most once, its prologue imports scanned once and, for a .def, its
// import-closure hash recorded once, so every task of the compilation —
// Lexors, the area prescan, the interface cache's keys, the stream
// cache's closure hash — sees the same text and shares one scan and one
// hash of it.  A Snapshot must not outlive its compilation: the next one
// has to look at the files again.
type Snapshot struct {
	base Loader

	mu    sync.Mutex // guards: files
	files map[fileKey]*snapFile
}

type fileKey struct {
	name string
	kind FileKind
}

type snapFile struct {
	load sync.Once
	text string
	err  error

	closure ClosureMemo
}

// ClosureMemo is where impscan records a file's direct imports and, for
// a .def, its import-closure hash in a snapshot, so that the area
// prescan's scan serves both compilation caches, which share one
// computation, and one content hash of the file, per compilation.
type ClosureMemo struct {
	Imports []string // the file's prologue imports, once Scanned
	Sum     Hash
	Mark    uint8 // the recording walk's progress; zero until a walk reaches the file
	Scanned bool  // Imports is recorded
}

// Closure returns the memo of name's file of kind.  Its one writer,
// impscan, guards every snapshot's memos with one lock.
func (s *Snapshot) Closure(name string, kind FileKind) *ClosureMemo {
	return &s.file(name, kind).closure
}

// NewSnapshot returns an empty snapshot of base.
func NewSnapshot(base Loader) *Snapshot {
	return &Snapshot{base: base, files: make(map[fileKey]*snapFile)}
}

func (s *Snapshot) file(name string, kind FileKind) *snapFile {
	key := fileKey{name, kind}
	s.mu.Lock()
	f := s.files[key]
	if f == nil {
		f = new(snapFile)
		s.files[key] = f
	}
	s.mu.Unlock()
	f.load.Do(func() { f.text, f.err = s.base.Load(name, kind) })
	return f
}

// Load implements Loader.
func (s *Snapshot) Load(name string, kind FileKind) (string, error) {
	f := s.file(name, kind)
	return f.text, f.err
}

// File describes one source file participating in a compilation.
type File struct {
	Name string // module name, without extension
	Kind FileKind
	Text string
}

// Label returns "Name.def" or "Name.mod".
func (f *File) Label() string { return f.Name + f.Kind.Ext() }

// Set is the collection of files seen by one compilation, in the order
// its tasks registered them; importer tasks register files
// concurrently.  Positions do not refer to it — diagnostics name a file
// by its label — so nothing depends on that order.
type Set struct {
	mu    sync.RWMutex // guards: files
	files []*File
}

// NewSet returns an empty file set.
func NewSet() *Set { return &Set{} }

// Add registers a file and returns it.
func (s *Set) Add(name string, kind FileKind, text string) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &File{Name: name, Kind: kind, Text: text}
	s.files = append(s.files, f)
	return f
}

// Len returns the number of registered files.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}
