package main

// The host's interference: a virtual machine's host can run other
// guests on its CPUs, and the time it takes from this machine shows as
// steal in /proc/stat. The report prints the share as a sign of how busy
// the host was: on a busy host, identical runs spread far more than the
// program does.

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat; both are 0 where it cannot be read.
func cpuTicks() (total, steal int64) {
	body, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(body), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
