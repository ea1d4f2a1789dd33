package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// host identifies the machine and the code a run measured.
type host struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
	commit, source    string
}

// probeHost records the host. commit is the git HEAD when the working
// directory is a git checkout; source is the SHA-256 over the module's Go
// sources, which names the measured code even in an exported tree.
func probeHost() host {
	return host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		commit:     gitCommit(),
		source:     sourceHash("."),
	}
}

func (h host) write(out io.Writer) {
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		h.nproc, h.gomaxprocs, h.goVersion, runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "host cpu=%q\n", h.cpu)
	fmt.Fprintf(out, "host commit=%s source_sha256=%s\n", h.commit, h.source)
}

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

func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	// Stop at the working directory: an enclosing repository is not ours.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every .go and go.mod file under root (build outputs
// and dot-directories skipped), in path order.
func sourceHash(root string) string {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "none"
	}
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
