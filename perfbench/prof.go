package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// profGroups are the prof.* metric suffixes: the simulator's packages,
// the sweep and remote layers, gob, the garbage collector, system
// calls, and everything else.
var profGroups = []string{"sim", "protocol", "network", "mem", "core", "machine", "workload",
	"sweep", "remote", "gob", "gc", "syscall", "other"}

// pkgGroups maps a package path to its group; unlisted packages are
// "other".
var pkgGroups = map[string]string{
	"specdsm/internal/sim":      "sim",
	"specdsm/internal/protocol": "protocol",
	"specdsm/internal/network":  "network",
	"specdsm/internal/mem":      "mem",
	"specdsm/internal/core":     "core",
	"specdsm/internal/machine":  "machine",
	"specdsm/internal/workload": "workload",
	"specdsm/internal/sweep":    "sweep",
	"specdsm/internal/remote":   "remote",
	"encoding/gob":              "gob",
	"syscall":                   "syscall",
	"internal/runtime/syscall":  "syscall",
	"internal/poll":             "syscall",
}

// rawSyscalls are runtime functions that are bare system calls.
var rawSyscalls = map[string]bool{
	"runtime.futex": true, "runtime.epollwait": true, "runtime.write1": true, "runtime.read": true,
	"runtime.usleep": true, "runtime.osyield": true, "runtime.madvise": true, "runtime.nanotime1": true,
}

// isGC reports whether fn is a garbage-collector entry point; a sample
// whose stack holds one is GC time whatever its leaf.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// funcPackage returns the package path of a symbolized function name,
// e.g. "specdsm/internal/core" for
// "specdsm/internal/core.(*TwoLevel).Observe".
func funcPackage(fn string) string {
	for _, p := range []string{"type:.hash.", "type:.eq."} {
		fn = strings.TrimPrefix(fn, p)
	}
	if i := strings.IndexAny(fn, "[( "); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// sampleGroup attributes one sample's self time. stack lists the
// sample's functions, leaf first (inlined frames included).
func sampleGroup(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	leaf := ""
	for _, fn := range stack {
		// A sample taken while a goroutine is being preempted belongs
		// to the function it interrupted.
		if fn != "runtime.asyncPreempt" {
			leaf = fn
			break
		}
	}
	if rawSyscalls[leaf] {
		return "syscall"
	}
	if g, ok := pkgGroups[funcPackage(leaf)]; ok {
		return g
	}
	return "other"
}

// parseRaw reads `go tool pprof -raw` output and adds each sample's
// count to its group in counts.
func parseRaw(out string, counts map[string]float64) error {
	type sample struct {
		n    float64
		locs []int
	}
	var samples []sample
	funcs := map[int][]string{} // location id → functions, innermost first
	section, last := "", 0
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
			continue
		case line == "" || !strings.HasPrefix(line, " "):
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(line, ":")
			if !ok {
				continue // a label line
			}
			f := strings.Fields(head)
			if len(f) < 1 {
				continue
			}
			n, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return fmt.Errorf("perfbench: pprof sample line %q", line)
			}
			s := sample{n: n}
			for _, id := range strings.Fields(ids) {
				v, err := strconv.Atoi(id)
				if err != nil {
					return fmt.Errorf("perfbench: pprof sample line %q", line)
				}
				s.locs = append(s.locs, v)
			}
			samples = append(samples, s)
		case "Locations":
			// "  id: 0xaddr M=n func file:line:col s=start", then one
			// indented "func file:line:col s=start" per inlined caller.
			text := strings.TrimSpace(line)
			if head, rest, ok := strings.Cut(text, ": 0x"); ok {
				id, err := strconv.Atoi(head)
				if err != nil {
					return fmt.Errorf("perfbench: pprof location line %q", line)
				}
				last = id
				f := strings.SplitN(rest, " ", 3)
				if len(f) < 3 {
					funcs[id] = append(funcs[id], "?")
					continue
				}
				text = f[2]
			}
			funcs[last] = append(funcs[last], locFunc(text))
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	for _, s := range samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, funcs[id]...)
		}
		counts[sampleGroup(stack)] += s.n
	}
	return nil
}

// locFunc extracts the function name from "func file:line:col s=start".
// Generic instantiations put spaces inside the name, so the file is
// found from the right.
func locFunc(text string) string {
	if i := strings.LastIndex(text, " s="); i >= 0 {
		text = text[:i]
	}
	if i := strings.LastIndexByte(text, ' '); i >= 0 {
		text = text[:i]
	}
	return text
}

// profileShares groups the self samples of the CPU profiles at paths
// by package, using the installed toolchain's pprof, and returns each
// group's share of all samples. The shares sum to 1.
func profileShares(paths []string) (map[string]float64, error) {
	counts := map[string]float64{}
	for _, p := range paths {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-raw", p).Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("perfbench: go tool pprof -raw %s: %w", p, err)
		}
		if err := parseRaw(string(out), counts); err != nil {
			return nil, err
		}
	}
	return shares(counts)
}

// shares normalizes group counts into shares and checks that they sum
// to 1.
func shares(counts map[string]float64) (map[string]float64, error) {
	total := 0.0
	for _, g := range profGroups {
		total += counts[g]
	}
	if total == 0 {
		return nil, fmt.Errorf("perfbench: the CPU profiles hold no samples")
	}
	out := map[string]float64{}
	check := 0.0
	for _, g := range profGroups {
		out[g] = counts[g] / total
		check += out[g]
	}
	if math.Abs(check-1) > 1e-9 {
		return nil, fmt.Errorf("perfbench: prof.* shares sum to %v, not 1", check)
	}
	return out, nil
}
