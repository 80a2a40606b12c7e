package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// manifest records what produced a run's numbers.  It is printed beside the
// results and enters no digest.
type manifest struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Revision is the VCS revision the binary was built from or, when the
	// source tree is not a repository, a digest of its Go sources.
	Revision string  `json:"module_revision"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Jobs     int     `json:"jobs"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
}

func newManifest(cfg config) (manifest, error) {
	rev, err := revision(".")
	if err != nil {
		return manifest{}, err
	}
	return manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   rev,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Jobs:       cfg.jobs,
		Seconds:    cfg.budget.Seconds(),
		Trace:      cfg.trace,
	}, nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision returns the build's VCS revision, or "src:" and a SHA-256 prefix
// over the Go sources and go.mod files under root.
func revision(root string) (string, error) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				rev += "+modified"
			}
			return rev, nil
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
