package netflow

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzReadDump: the NetFlow dump parser never panics and never sizes anything
// by a number it read; input it accepts round-trips through WriteDump, input
// it rejects is an ErrBadDump.
func FuzzReadDump(f *testing.F) {
	f.Add("# header\n0 1 2 3 4 5 6 7.5 8.5\n")
	f.Add("0 0 0 0 -1 10 15000 0 0\n")
	f.Add("\n\n# only comments\n")
	f.Add(hostileNodeID)
	f.Add(hostileDuration)
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadDump(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadDump) {
				t.Fatalf("rejected with %v, not an ErrBadDump", err)
			}
			return
		}
		for _, r := range recs {
			if r.Node < 0 || r.Node > MaxDumpID || r.InLink < -1 || r.InLink > MaxDumpID || r.Packets < 0 || !(0 <= r.First && r.First <= r.Last && r.Last <= MaxDumpTime) {
				t.Fatalf("accepted %+v", r)
			}
		}
		var buf bytes.Buffer
		if err := WriteDump(&buf, recs); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		back, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip changed record count")
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d changed: %+v -> %+v", i, recs[i], back[i])
			}
		}
	})
}
