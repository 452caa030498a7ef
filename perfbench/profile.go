package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// internalPrefix marks the program's own frames in profile stacks.
const internalPrefix = "fabricsim/internal/"

// hostShares splits a CPU profile's samples by package: each stack is
// credited to its innermost fabricsim/internal/<pkg> frame, and stacks
// with none to "runtime". It reads the stacks through the toolchain's
// `go tool pprof -traces`.
func hostShares(profile string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	byPkg, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, d := range byPkg {
		total += d
	}
	shares := make(map[string]float64, len(hostSharePkgs))
	for _, pkg := range hostSharePkgs {
		shares[pkg] = 0
	}
	for pkg, d := range byPkg {
		if _, known := shares[pkg]; !known {
			return nil, fmt.Errorf("profile credits unlisted package %q", pkg)
		}
		if total > 0 {
			shares[pkg] = float64(d) / float64(total)
		}
	}
	return shares, nil
}

// parseTraces sums `pprof -traces` output by crediting package. After
// a header, each stack is a block closed by a separator line: its first
// line carries the sample value and the innermost frame, each further
// line one caller.
func parseTraces(out []byte) (map[string]time.Duration, error) {
	byPkg := make(map[string]time.Duration)
	var value time.Duration
	pkg := ""
	started, inStack := false, false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) > 0 && strings.HasPrefix(fields[0], "-----------+"):
			if inStack {
				if pkg == "" {
					pkg = "runtime"
				}
				byPkg[pkg] += value
			}
			started, inStack, pkg = true, false, ""
			continue
		case !started || len(fields) == 0:
			continue
		}
		frame := fields[0]
		if !inStack {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected stack line %q", sc.Text())
			}
			value, inStack, frame = d, true, fields[1]
		}
		if pkg == "" && strings.HasPrefix(frame, internalPrefix) {
			rest := frame[len(internalPrefix):]
			if i := strings.IndexAny(rest, "./"); i > 0 {
				pkg = rest[:i]
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(byPkg) == 0 {
		return nil, fmt.Errorf("no samples in profile")
	}
	return byPkg, nil
}
