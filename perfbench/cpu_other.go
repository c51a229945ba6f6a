//go:build !amd64

package main

import "runtime"

// cpuModel names only the architecture where CPUID is not available.
func cpuModel() string { return runtime.GOARCH }
