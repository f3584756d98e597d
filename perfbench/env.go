package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// graphShape is the generated input graph. Every workload uses the same
// shape; only the seed changes the graph.
type graphShape struct {
	Nodes, Edges int64
	FeatureDim   int
	Classes      int
}

// generate writes the R-MAT dataset for seed into dir and opens it,
// timing both steps.
func generate(dir string, g graphShape, seed uint64) (ds *storage.Dataset, genS, openS float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	if _, err := gen.GenerateWith(dir, "perfbench", "rmat", g.Nodes, g.Edges, seed,
		gen.Options{FeatureDim: g.FeatureDim, NumClasses: g.Classes}); err != nil {
		return nil, 0, 0, fmt.Errorf("generate graph: %w", err)
	}
	genS = time.Since(t0).Seconds()
	t1 := time.Now()
	ds, err = storage.Open(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("open graph: %w", err)
	}
	return ds, genS, time.Since(t1).Seconds(), nil
}

// provenance is written beside every result: what ran, where, on what.
type provenance struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Commit     string            `json:"commit"`
	NumCPU     int               `json:"nproc"`
	Kernel     string            `json:"kernel"`
	GoVersion  string            `json:"go_version"`
	UringCaps  string            `json:"uring_caps"`
	Graph      graphShape        `json:"graph"`
	Checksums  map[string]string `json:"checksums"`
	RingTypes  map[string]int    `json:"ring_types"`
	Backend    string            `json:"backend"`
	ActiveKnob map[string]bool   `json:"active_knobs"`
}

func hostProvenance(root string) provenance {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return provenance{
		Commit:    gitCommit(root),
		NumCPU:    runtime.NumCPU(),
		Kernel:    strings.TrimSpace(string(kernel)),
		GoVersion: runtime.Version(),
		UringCaps: uring.Probe().String(),
	}
}

// gitCommit reads HEAD without running git; a checkout that is not a
// git repository reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// datasetChecksums returns the manifest's file checksums plus an FNV-1a
// checksum of the edge file, which the manifest does not carry.
func datasetChecksums(ds *storage.Dataset) (map[string]string, error) {
	man := ds.Manifest()
	edges, err := storage.ChecksumFile(filepath.Join(ds.Dir(), storage.EdgesFile))
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"edges":    edges,
		"features": man.FeatChecksum,
		"labels":   man.LabelChecksum,
	}, nil
}

// settle fsyncs every file under dir, so the write-back of freshly
// generated inputs does not run inside the timed window.
func settle(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// resetPeakRSS starts the resident high-water mark afresh: it collects
// the garbage set-up left, returns it to the OS and clears VmHWM, so the
// peak read after the timed window belongs to the workload alone.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
