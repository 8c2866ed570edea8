package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Workload trace files. MaSSF "records all network traffic trace of an
// emulation execution, and then replays it without real computation in the
// application" (§4.1.1) — a Workload is exactly that trace, and this file
// format persists it:
//
//	# comment
//	duration <seconds>
//	apphosts <id> <id> ...
//	flow <src> <dst> <start> <bytes> [tag]
//
// Tags must not contain whitespace (generated tags never do).

// WriteWorkload serializes w as a trace file.
func WriteWorkload(out io.Writer, w *Workload) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "# workload trace: %d flows\n", len(w.Flows))
	fmt.Fprintf(bw, "duration %.17g\n", w.Duration)
	if len(w.AppHosts) > 0 {
		fmt.Fprint(bw, "apphosts")
		for _, h := range w.AppHosts {
			fmt.Fprintf(bw, " %d", h)
		}
		fmt.Fprintln(bw)
	}
	for _, f := range w.Flows {
		if strings.ContainsAny(f.Tag, " \t\n") {
			return fmt.Errorf("traffic: flow %d tag %q contains whitespace", f.ID, f.Tag)
		}
		if f.Tag == "" {
			fmt.Fprintf(bw, "flow %d %d %.17g %d\n", f.Src, f.Dst, f.Start, f.Bytes)
		} else {
			fmt.Fprintf(bw, "flow %d %d %.17g %d %s\n", f.Src, f.Dst, f.Start, f.Bytes, f.Tag)
		}
	}
	return bw.Flush()
}

// finiteTime reports whether t is a usable virtual time: finite and not
// negative (NaN fails the first test).
func finiteTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

// ReadWorkload parses a trace file written by WriteWorkload. It refuses, at
// its line, a duration or flow start that is negative or not finite and a
// flow of no bytes.
func ReadWorkload(in io.Reader) (Workload, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var w Workload
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "duration":
			if len(fields) != 2 {
				return w, fmt.Errorf("traffic: line %d: duration takes one value", lineNo)
			}
			d, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || !finiteTime(d) {
				return w, fmt.Errorf("traffic: line %d: bad duration %q", lineNo, fields[1])
			}
			w.Duration = d
		case "apphosts":
			for _, f := range fields[1:] {
				h, err := strconv.Atoi(f)
				if err != nil || h < 0 {
					return w, fmt.Errorf("traffic: line %d: bad app host %q", lineNo, f)
				}
				w.AppHosts = append(w.AppHosts, h)
			}
		case "flow":
			if len(fields) < 5 || len(fields) > 6 {
				return w, fmt.Errorf("traffic: line %d: flow <src> <dst> <start> <bytes> [tag]", lineNo)
			}
			var f Flow
			var err error
			if f.Src, err = strconv.Atoi(fields[1]); err != nil {
				return w, fmt.Errorf("traffic: line %d: bad src: %v", lineNo, err)
			}
			if f.Dst, err = strconv.Atoi(fields[2]); err != nil {
				return w, fmt.Errorf("traffic: line %d: bad dst: %v", lineNo, err)
			}
			if f.Start, err = strconv.ParseFloat(fields[3], 64); err != nil || !finiteTime(f.Start) {
				return w, fmt.Errorf("traffic: line %d: bad start %q", lineNo, fields[3])
			}
			if f.Bytes, err = strconv.ParseInt(fields[4], 10, 64); err != nil || f.Bytes <= 0 {
				return w, fmt.Errorf("traffic: line %d: bad bytes %q", lineNo, fields[4])
			}
			if len(fields) == 6 {
				f.Tag = fields[5]
			}
			f.ID = len(w.Flows)
			w.Flows = append(w.Flows, f)
		default:
			return w, fmt.Errorf("traffic: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return w, err
	}
	return w, nil
}
