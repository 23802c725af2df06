package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// rssProbe reads a process's peak resident set size from its /proc
// directory.
type rssProbe struct{ dir string }

func procRSS() rssProbe { return rssProbe{dir: "/proc/self"} }

// reset restarts the kernel's peak-RSS counter (VmHWM) at the current RSS,
// so that set-up does not count toward the peak. It reports false where
// /proc does not allow it.
func (p rssProbe) reset() bool {
	f, err := os.OpenFile(filepath.Join(p.dir, "clear_refs"), os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.WriteString("5")
	cerr := f.Close()
	return werr == nil && cerr == nil
}

// peakMB returns the peak RSS in MB (2^20 bytes) and where it came from:
// VmHWM, or getrusage's ru_maxrss where /proc has none. ru_maxrss cannot
// be reset, so that fallback includes set-up.
func (p rssProbe) peakMB() (float64, string) {
	if b, err := os.ReadFile(filepath.Join(p.dir, "status")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024, "VmHWM"
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, "unavailable"
	}
	return float64(ru.Maxrss) / 1024, "getrusage"
}
