package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// envStamp identifies the machine and toolchain a result set was
// measured on. Result sets with different stamps are not comparable.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
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

// diff lists the fields on which two stamps differ.
func (e envStamp) diff(o envStamp) []string {
	var out []string
	check := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	check("go_version", e.GoVersion, o.GoVersion)
	check("goos", e.GOOS, o.GOOS)
	check("goarch", e.GOARCH, o.GOARCH)
	check("cpu_model", e.CPUModel, o.CPUModel)
	check("nproc", e.NumCPU, o.NumCPU)
	check("gomaxprocs", e.GOMAXPROCS, o.GOMAXPROCS)
	return out
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
