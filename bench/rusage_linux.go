package main

import (
	"syscall"
	"time"
)

// readRusage returns the process's user+sys CPU seconds so far and its peak
// resident set size in KB (ru_maxrss, which Linux reports in KB).
func readRusage() (cpuS float64, maxRSSKB int64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), ru.Maxrss, nil
}
