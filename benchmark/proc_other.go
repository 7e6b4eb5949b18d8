//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

// The benchmark measures its child through /proc; these stubs only keep
// `go build ./...` working elsewhere.
var errNoProc = errors.New("benchmark: needs Linux /proc")

func procCPU(int) (time.Duration, error) { return 0, errNoProc }
func confineToOneCPU() (int, error)      { return 0, errNoProc }
func procPeakRSS(int) (float64, error)   { return 0, errNoProc }
func loadAverage() (float64, error)      { return 0, errNoProc }
func kernelVersion() string              { return "unknown" }
func dieWithParent(*exec.Cmd)            {}
func preciseSleep(d time.Duration)       { time.Sleep(d) }
func resetPeakRSS()                      {}
