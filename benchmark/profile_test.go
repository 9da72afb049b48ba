package benchmark

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// This file attributes a CPU profile to the controller's layers. `go
// tool pprof -traces -lines` prints every sampled stack, one frame per
// line with its source file. A sample whose leaf is in the syscall path
// is charged to syscall; otherwise the stack is walked from the leaf
// towards the root, and the sample is charged to runtime if it meets an
// allocation, GC or scheduler entry point first, or else to the first
// frame that belongs to a controller layer. So library code (sort, map
// lookups, copying) is charged to the layer that called it. Packages
// ctrl and ctrl/loadgen are split by source file: wire, handler,
// admission (ctrl) and checkpoint encoding (snapshot). Samples with no
// controller frame are the benchmark's own harness and count as other.

// cpuLayers are the buckets a profile is split into, in report order.
var cpuLayers = []string{
	"wire", "handler", "ctrl", "route", "wafer", "invariant", "snapshot",
	"loadgen", "sketch", "runtime", "syscall", "other",
}

// packageLayers maps import paths to layers; the longest path that is
// the frame's package or a parent of it wins. Packages not listed are
// libraries, charged to their caller.
var packageLayers = map[string]string{
	"lightpath/internal/ctrl":         "ctrl",
	"lightpath/internal/ctrl/loadgen": "loadgen",
	"lightpath/internal/route":        "route",
	"lightpath/internal/wafer":        "wafer",
	"lightpath/internal/phy":          "wafer",
	"lightpath/internal/invariant":    "invariant",
	"lightpath/internal/snapshot":     "snapshot",
	"lightpath/internal/sketch":       "sketch",
	"runtime":                         "runtime",
	"internal/runtime":                "runtime",
	"syscall":                         "syscall",
	"internal/poll":                   "syscall",
	"internal/runtime/syscall":        "syscall",
	"runtime/internal/syscall":        "syscall",
}

// fileLayers overrides packageLayers for frames in the named source
// files of a package.
var fileLayers = map[string]map[string]string{
	"lightpath/internal/ctrl": {
		"wire.go":   "wire",
		"daemon.go": "handler",
		"state.go":  "snapshot",
	},
	"lightpath/internal/ctrl/loadgen": {
		"checkpoint.go": "snapshot",
	},
}

// runtimeEntries are the runtime functions through which allocation,
// garbage collection and scheduling are entered (matched as prefixes).
var runtimeEntries = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.gcAssistAlloc", "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.wbBufFlush", "gcWriteBarrier", "runtime.mcall", "runtime.morestack",
	"runtime.schedule", "runtime.findRunnable",
}

// stackFrame is one stack frame: the function as pprof names it and
// the base name of its source file ("" when pprof prints none).
type stackFrame struct{ fn, file string }

// sample is one stack from `pprof -traces -lines`, leaf first, with its
// CPU time.
type sample struct {
	value time.Duration
	stack []stackFrame
}

// parseTraces reads `go tool pprof -traces -lines` output: a metadata
// header, then blocks separated by "-----------+-----" lines, each
// starting with "<value>   <leaf function> <file>:<line>" followed by
// one caller per line.
func parseTraces(out string) ([]sample, error) {
	var samples []sample
	inHeader, blockStart := true, false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inHeader, blockStart = false, true
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if inHeader || len(fields) == 0 {
			continue
		}
		if blockStart {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: sample line %q has no function", line)
			}
			v, err := parseProfileDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample line %q: %w", line, err)
			}
			samples = append(samples, sample{value: v})
			fields, blockStart = fields[1:], false
		}
		var f stackFrame
		if n := len(fields); n > 1 && strings.Contains(fields[n-1], ":") {
			path := fields[n-1][:strings.LastIndex(fields[n-1], ":")]
			f.file, fields = filepath.Base(path), fields[:n-1]
		}
		f.fn = strings.Join(fields, " ")
		last := &samples[len(samples)-1]
		last.stack = append(last.stack, f)
	}
	if inHeader {
		return nil, fmt.Errorf("pprof -traces output has no sample separator")
	}
	return samples, sc.Err()
}

// parseProfileDuration reads pprof's duration cells: "0", "10ms",
// "1.25s", "2.50mins", "1.01hrs".
func parseProfileDuration(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		scale  time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(v * float64(u.scale)), nil
		}
	}
	return time.ParseDuration(s)
}

// frameLayer names the layer one stack frame belongs to, or "" for a
// library frame. Runtime assembly routines print without a package
// ("aeshashbody").
func frameLayer(f stackFrame) string {
	pkg, ok := funcPackage(f.fn)
	if !ok {
		return "runtime"
	}
	if layer, ok := fileLayers[pkg][f.file]; ok {
		return layer
	}
	best := ""
	for prefix := range packageLayers {
		if (pkg == prefix || strings.HasPrefix(pkg, prefix+"/")) && len(prefix) > len(best) {
			best = prefix
		}
	}
	return packageLayers[best]
}

// sampleLayer charges one stack, leaf first, to a layer.
func sampleLayer(stack []stackFrame) string {
	if len(stack) == 0 {
		return "other"
	}
	if frameLayer(stack[0]) == "syscall" {
		return "syscall"
	}
	inRuntime := false
	for _, f := range stack {
		for _, entry := range runtimeEntries {
			if strings.HasPrefix(f.fn, entry) {
				return "runtime"
			}
		}
		switch layer := frameLayer(f); layer {
		case "", "syscall":
		case "runtime":
			inRuntime = true
		default:
			return layer
		}
	}
	if inRuntime {
		return "runtime"
	}
	return "other"
}

// funcPackage returns the import path of a function name as pprof
// prints it ("path/to/pkg.Rest": up to the first '.' after the last
// '/'); ok is false for a name without one.
func funcPackage(name string) (pkg string, ok bool) {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	return name[:slash+1+dot], true
}

// cpuShares sums sample time per layer as a percentage of the total.
func cpuShares(samples []sample) map[string]float64 {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, smp := range samples {
		byLayer[sampleLayer(smp.stack)] += smp.value
		total += smp.value
	}
	shares := map[string]float64{}
	for _, layer := range cpuLayers {
		shares[layer] = 100 * ratio(float64(byLayer[layer]), float64(total))
	}
	return shares
}

// profileShares runs `go tool pprof -traces -lines` on a CPU profile and splits
// it across cpuLayers.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", profile)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	return cpuShares(samples), nil
}
