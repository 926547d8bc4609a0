// Package testkit is test support shared across packages: the two
// process-wide measurements tests of pooled, fanned-out code need and
// the testing package does not offer (heap allocations counted without
// pinning GOMAXPROCS, the goroutine count once garbage collection has
// run its cleanups), and the golden-file check of the bit-exact
// recordings under testdata/.
package testkit

import (
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// AllocsPerRun returns the average number of heap allocations per call
// of f over the given number of runs, after one warm-up call, rounded
// down as testing.AllocsPerRun does (so the runtime's own occasional
// allocations do not show). Unlike testing.AllocsPerRun it leaves
// GOMAXPROCS alone — under that function's GOMAXPROCS(1), code that
// picks its parallel width from GOMAXPROCS takes its serial branch and
// the parallel one is never counted. Allocations by every goroutine
// count: do not run it beside parallel tests.
func AllocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// AtProcs runs f under each GOMAXPROCS value and restores the original.
// Pools are sized when their owner is built, so f must build its own.
func AtProcs(procs []int, f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

// GoroutinesAfterGC collects garbage until the goroutine count is back
// at or below base, or five seconds have passed, and returns the last
// count seen. Pool workers exit some time after the cleanup that
// follows their owner's collection; no event announces it, hence the
// poll.
func GoroutinesAfterGC(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FNVFloats hashes the bit patterns of vs (FNV-1a, little-endian).
func FNVFloats(vs ...[]float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vs {
		for _, x := range v {
			u := math.Float32bits(x)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// Golden holds got against the file at path, reporting the first line
// that differs. With UPDATE_GOLDEN=1 it (re)writes the file instead.
func Golden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (record with UPDATE_GOLDEN=1): %v", err)
	}
	if got == string(raw) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			want := "<missing>"
			if i < len(wl) {
				want = wl[i]
			}
			t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, gl[i], want)
		}
	}
	t.Fatalf("%s has %d lines, got %d", path, len(wl), len(gl))
}
