package obs

import (
	"bufio"
	"io"
	"strconv"
)

// Trace writes a deterministic JSONL trace: one line per kernel run segment,
// executed window, and lifecycle event. Only virtual-time and counter fields
// are serialized — never wall-clock quantities — so two runs of the same
// scenario produce byte-identical traces.
//
// Line schema (fields always present, in this order):
//
//	{"type":"run","lps":3,"lookahead":0.0001,"resumed":false}
//	{"type":"window","i":12,"start":1.2,"end":1.3,"events":[..],"charges":[..],"remote":[..],"queue":[..]}
//	{"type":"event","kind":"checkpoint","t":10,"lp":-1,"value":0}
//
// Trace buffers internally; call Flush (or Close) before reading the
// underlying writer, and check Err for deferred write errors.
type Trace struct {
	w   *bufio.Writer
	c   io.Closer // non-nil when the sink should be closed with the trace
	buf []byte
	err error
}

// NewTrace returns a Trace writing JSONL to w.
func NewTrace(w io.Writer) *Trace {
	return &Trace{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// NewTraceCloser is NewTrace for sinks the trace owns (e.g. an os.File):
// Close closes the sink after flushing.
func NewTraceCloser(w io.WriteCloser) *Trace {
	t := NewTrace(w)
	t.c = w
	return t
}

// RecordRun implements Recorder.
func (t *Trace) RecordRun(m RunMeta) {
	b := t.buf[:0]
	b = append(b, `{"type":"run","lps":`...)
	b = strconv.AppendInt(b, int64(m.LPs), 10)
	b = append(b, `,"lookahead":`...)
	b = appendFloat(b, m.Lookahead)
	b = append(b, `,"resumed":`...)
	b = strconv.AppendBool(b, m.Resumed)
	t.line(append(b, '}'))
}

// RecordWindow implements Recorder. The wall-clock Wait field is
// deliberately not serialized (nondeterministic).
func (t *Trace) RecordWindow(w Window) {
	b := t.buf[:0]
	b = append(b, `{"type":"window","i":`...)
	b = strconv.AppendInt(b, w.Index, 10)
	b = append(b, `,"start":`...)
	b = appendFloat(b, w.Start)
	b = append(b, `,"end":`...)
	b = appendFloat(b, w.End)
	b = appendInts(append(b, `,"events":`...), w.Events)
	b = appendInts(append(b, `,"charges":`...), w.Charges)
	b = appendInts(append(b, `,"remote":`...), w.Remote)
	b = appendInts(append(b, `,"queue":`...), w.Queue)
	t.line(append(b, '}'))
}

// RecordEvent implements Recorder.
func (t *Trace) RecordEvent(e Event) {
	b := t.buf[:0]
	b = append(b, `{"type":"event","kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","t":`...)
	b = appendFloat(b, e.Time)
	b = append(b, `,"lp":`...)
	b = strconv.AppendInt(b, int64(e.LP), 10)
	b = append(b, `,"value":`...)
	b = appendFloat(b, e.Value)
	t.line(append(b, '}'))
}

func (t *Trace) line(b []byte) {
	t.buf = b[:0] // keep the (possibly grown) buffer for reuse
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(append(b, '\n')); err != nil {
		t.err = err
	}
}

// Flush empties the internal buffer into the underlying writer.
func (t *Trace) Flush() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// Close flushes and, when the trace owns its sink, closes it.
func (t *Trace) Close() error {
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendFloat formats a float64 with the shortest round-trip representation
// — stable across runs and platforms for identical values.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

func appendInts(b []byte, xs []int64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}
