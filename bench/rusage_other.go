//go:build !linux

package main

import (
	"errors"
	"runtime"
)

// readRusage refuses to run elsewhere: getrusage is missing on some
// systems and ru_maxrss changes unit on others (bytes on darwin), so
// peak_rss_mb would not mean what BENCHMARK.json says it means.
func readRusage() (cpuS float64, maxRSSKB int64, err error) {
	return 0, 0, errors.New("the benchmark reads cpu time and peak RSS through Linux's getrusage; it does not run on " + runtime.GOOS)
}
