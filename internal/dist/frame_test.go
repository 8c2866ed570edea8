package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: MsgHello, Payload: Hello{Version: Version}.Encode()},
		{Type: MsgBye},
		{Type: MsgEvents, Payload: []byte{}},
		{Type: MsgError, Payload: TextMsg{Text: "boom"}.Encode()},
		{Type: MsgWindow, Payload: bytes.Repeat([]byte{0xab}, 4096)},
	}
	// One scratch per direction, as a connection holds them: each frame
	// overwrites the last, so a read frame is checked before the next read.
	var buf bytes.Buffer
	var wbuf, rbuf []byte
	for _, f := range cases {
		if err := WriteFrame(&buf, &wbuf, f); err != nil {
			t.Fatalf("write %s: %v", f.Type, err)
		}
	}
	for _, want := range cases {
		got, err := ReadFrame(&buf, &rbuf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %s did not round-trip (got %s, %d bytes)", want.Type, got.Type, len(got.Payload))
		}
	}
	if _, err := ReadFrame(&buf, &rbuf); err != io.EOF {
		t.Fatalf("clean stream end should read as EOF, got %v", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrame+1)
	var scratch []byte
	_, err := ReadFrame(bytes.NewReader(hdr[:]), &scratch)
	if err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized length prefix must be rejected before allocation, got %v", err)
	}
	if cap(scratch) > 4096 {
		t.Fatalf("a rejected length prefix grew the receive buffer to %d bytes", cap(scratch))
	}
}

func TestReadFrameRejectsEmptyFrame(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader(make([]byte, 4)), new([]byte))
	if err == nil {
		t.Fatal("zero-length frame must be rejected")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, new([]byte), Frame{Type: MsgVote, Payload: Vote{Has: true, Time: 1.5}.Append(nil)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	body := len(full) - 4
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]), new([]byte))
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes must error", cut, len(full))
		}
		// A cut inside the body reports how much of it arrived.
		if cut >= 4 {
			if want := fmt.Sprintf("(%d of %d bytes)", cut-4, body); !strings.Contains(err.Error(), want) {
				t.Fatalf("truncation at %d: error %q does not report %s", cut, err, want)
			}
		}
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	// Don't allocate 64 MB: a fake slice header would be UB, so use a real
	// allocation but only once, at exactly the limit boundary.
	big := make([]byte, MaxFrame) // payload+1 > MaxFrame
	err := WriteFrame(io.Discard, new([]byte), Frame{Type: MsgState, Payload: big})
	if err == nil {
		t.Fatal("payload at MaxFrame (with type byte overflowing) must be rejected")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic or over-allocate, only return a frame or an error.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, new([]byte), Frame{Type: MsgHello, Payload: Hello{Version: 1}.Encode()})
	f.Add(seed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), new([]byte))
		if err != nil {
			return
		}
		// A successfully parsed frame must re-encode to a readable frame.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, new([]byte), fr); err != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", err)
		}
		back, err := ReadFrame(&buf, new([]byte))
		if err != nil || back.Type != fr.Type || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("parsed frame did not round-trip: %v", err)
		}
	})
}

// hostilePartialCollector is a collector sized for a small run, the receiver
// of the telemetry shares FuzzDecodePayloads decodes.
func hostilePartialCollector() *telemetry.Collector {
	c := telemetry.New()
	c.Reset(telemetry.Dims{Engines: 2, Links: 2, BucketWidth: 2})
	return c
}

// FuzzDecodePayloads drives every message decoder with arbitrary payloads:
// the decoders must return errors, never panic, on malformed input.
func FuzzDecodePayloads(f *testing.F) {
	f.Add(Hello{Version: 1}.Encode())
	f.Add(Vote{Has: true, Time: 3.25}.Append(nil))
	f.Add(Window{Start: 1, End: 2}.Append(nil))
	// Windows and events the decoders accept and the worker's Stepper must
	// refuse (TestHostileWindowAndPastInjectRejected).
	f.Add(Window{Start: 1, End: math.Inf(1)}.Append(nil))
	f.Add(Window{Start: 1, End: math.NaN()}.Append(nil))
	f.Add(Window{Start: 2, End: 1}.Append(nil))
	f.Add(Window{Start: 1, End: 1e9}.Append(nil))
	f.Add(EncodeEvents(nil, []emu.WireEvent{{Time: 0, Dst: 1, Kind: emu.WireFlowStart}}))
	f.Add(EncodeEvents(nil, []emu.WireEvent{{Time: math.NaN(), Dst: 1, Kind: emu.WireFlowStart}}))
	// TCP rounds the frame decoder accepts and emu's decodeWire must refuse: a
	// real offset paired with another round's window, and a real round sent
	// into a Blast run (emu's TestDecodeWireRejectsMalformedEvents).
	f.Add(EncodeEvents(nil, []emu.WireEvent{{Time: 0.25, Dst: 1, Kind: emu.WireTCPRound, Offset: 15 * 64 << 10, Window: 32}}))
	f.Add(EncodeEvents(nil, []emu.WireEvent{{Time: 0.25, Dst: 1, Kind: emu.WireTCPRound, Offset: 15 * 64 << 10, Window: 16}}))
	f.Add(EncodeEvents(nil, nil))
	done := EncodeWindowDone(nil, &emu.WindowReport{Events: []int64{3, 0}, Charges: []int64{2, 0}, Remote: []int64{1, 0}, Queue: []int64{0, 2},
		Outbox: []emu.WireEvent{{Time: 1.25, Dst: 1, SrcIdx: 1, Kind: emu.WireChunk, Flow: 4, Hop: 1, Packets: 2, Bytes: 3000}}})
	f.Add(done)
	f.Add(done[:len(done)-wireEventSize/2]) // the outbox cut mid-event
	// A measurement-window crossing's report: both engines' histograms beside
	// the worker's link state.
	f.Add(EncodeWindowDone(nil, &emu.WindowReport{Events: []int64{1, 1}, Charges: []int64{1, 1}, Remote: []int64{0, 0}, Queue: []int64{0, 0},
		Telemetry: hostilePartialCollector().ExportPartial([]int{0, 1}),
		State: &emu.NetState{BusyUntil: []float64{0.5, 0, 0, 0}, LinkBytes: []int64{3000, 0, 0, 1500}, LinkPackets: []int64{2, 0, 0, 1},
			Drops: []int64{0, 0, 1, 0}}}))
	// A crossing report whose telemetry share decodes but names an engine the
	// run does not have, beside link counters one slot too long
	// (TestHostilePartialLosesWorkerTyped).
	ragged := hostilePartialCollector().ExportPartial([]int{0, 1})
	ragged.Engines[1] = 2
	f.Add(EncodeWindowDone(nil, &emu.WindowReport{Telemetry: ragged,
		State: &emu.NetState{LinkBytes: make([]int64, 5), LinkPackets: make([]int64, 4), Drops: make([]int64, 4)}}))
	// A v8 EXPORT command, its barrier time a payload v9 refuses.
	var export encoder
	export.f64(2.5)
	f.Add(export.buf)
	f.Add(InstallAck{Lookahead: 0.005}.Encode())
	f.Add(EncodeElasticExport(&emu.ElasticExport{Engines: []int{1}, NetState: emu.NetState{FCTs: []float64{-1, 0.5}}}))
	// A final export that decodes but whose kernel counters stop short of its
	// own engine (TestHostileExportLosesWorkerTyped).
	f.Add(EncodeElasticExport(&emu.ElasticExport{Engines: []int{1}, Events: []int64{4}, Charges: []int64{4, 3}, RemoteSends: []int64{0, 1}}))
	f.Add(EncodeElasticInstall(&emu.ElasticInstall{At: 2, Lookahead: 0.01, Engines: []int{0, 1}}))
	f.Add(EncodeSpans([]obs.Span{{Kind: obs.SpanWireSend, Engine: -1, Window: 3, Start: 1, End: 2, Wall: 0.25}}))
	f.Add(EncodeSpans([]obs.Span{{Kind: obs.SpanWireSend, Engine: -1, Wall: math.Inf(1)}}))
	f.Add(EncodeSpans([]obs.Span{{Kind: obs.SpanCompute, Start: math.NaN()}}))
	f.Add(EncodeSpans([]obs.Span{{Kind: 200, Engine: -1}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// What DecodeSpans accepts the timeline renders verbatim.
		if spans, err := DecodeSpans(data); err == nil {
			for _, s := range spans {
				if s.Kind > obs.SpanMigrate || s.Engine < -1 || !finite(s.Start) || !finite(s.End) || !finite(s.Wall) {
					t.Fatalf("DecodeSpans accepted %+v", s)
				}
			}
		}
		DecodeHello(data)
		DecodeAssign(data)
		DecodeReady(data)
		DecodeVote(data)
		DecodeWindow(data)
		// The per-window decoders overwrite what the previous window left in
		// their storage; what they decode must not depend on it.
		evs, err := DecodeEvents(data, nil)
		reused, rerr := DecodeEvents(data, []emu.WireEvent{{Time: 9, Dst: 9}, {Time: 8}}[:0])
		if (err == nil) != (rerr == nil) || err == nil && !bytes.Equal(EncodeEvents(nil, evs), EncodeEvents(nil, reused)) {
			t.Fatalf("DecodeEvents into reused storage: %v / %+v, fresh: %v / %+v", rerr, reused, err, evs)
		}
		var rep emu.WindowReport
		dirty := emu.WindowReport{Events: []int64{9, 9, 9}, Charges: []int64{9}, Remote: []int64{9, 9}, Queue: []int64{9, 9, 9, 9},
			Outbox: []emu.WireEvent{{Time: 9, Dst: 9}}, Telemetry: &telemetry.Partial{Engines: []int{9}}, State: &emu.NetState{Drops: []int64{9}}}
		err, rerr = DecodeWindowDone(data, &rep), DecodeWindowDone(data, &dirty)
		if (err == nil) != (rerr == nil) || err == nil && !bytes.Equal(EncodeWindowDone(nil, &rep), EncodeWindowDone(nil, &dirty)) {
			t.Fatalf("DecodeWindowDone into reused storage: %v / %+v, fresh: %v / %+v", rerr, dirty, err, rep)
		}
		// A telemetry share that decodes is installed or refused, never indexed
		// past the run's arrays.
		if err == nil && rep.Telemetry != nil {
			if ierr := hostilePartialCollector().InstallPartials([]*telemetry.Partial{rep.Telemetry}); ierr != nil && !errors.Is(ierr, telemetry.ErrBadPartial) {
				t.Fatalf("InstallPartials: untyped error %v", ierr)
			}
		}
		DecodeText(data)
		DecodeSpec(data)
		DecodeElasticExport(data)
		DecodeElasticInstall(data)
		DecodeInstallAck(data)
	})
}
