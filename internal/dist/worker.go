package dist

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/telemetry"

	"repro/internal/emu"
	"repro/internal/obs"
)

// WorkerOptions tunes the worker side of the protocol.
type WorkerOptions struct {
	// IdleTimeout bounds each wait for a coordinator command; a coordinator
	// that goes silent longer than this fails the worker instead of wedging
	// it. <= 0 selects the default.
	IdleTimeout time.Duration
	// Drain, when it fires (or closes), asks the coordinator for a graceful
	// leave: the worker sends DRAIN once and keeps serving until the
	// coordinator exports its state at a membership barrier and releases it
	// with BYE. Distinct from cancellation, which abandons the run.
	Drain <-chan struct{}
	// Logf, when set, receives one line per protocol phase.
	Logf func(format string, args ...any)
}

// DefaultIdleTimeout is how long a worker waits for the next coordinator
// command before giving up.
const DefaultIdleTimeout = 2 * time.Minute

func (o *WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// DialAndServe connects to a coordinator (retrying with backoff until ctx
// expires, so start order does not matter) and serves one run.
func DialAndServe(ctx context.Context, addr string, opt WorkerOptions) error {
	conn, err := Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return Serve(ctx, conn, opt)
}

// Serve runs the worker side of one run over an established connection. It
// returns nil after a clean BYE; any protocol, transport or simulation error
// is reported to the coordinator (best effort) and returned.
func Serve(ctx context.Context, conn Conn, opt WorkerOptions) error {
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = DefaultIdleTimeout
	}
	err := serve(ctx, conn, &opt)
	if err != nil {
		// Best-effort: tell the coordinator why this worker is going away so
		// it can degrade immediately instead of waiting out a deadline.
		_ = conn.Send(Frame{Type: MsgError, Payload: TextMsg{Text: err.Error()}.Encode()})
	}
	return err
}

func serve(ctx context.Context, conn Conn, opt *WorkerOptions) error {
	if err := conn.Send(Frame{Type: MsgHello, Payload: Hello{Version: Version}.Encode()}); err != nil {
		return err
	}
	drained := false
	f, err := recvCmd(ctx, conn, opt, &drained)
	if err != nil {
		return err
	}
	if f.Type != MsgAssign {
		return fmt.Errorf("dist: worker expected ASSIGN, got %s", f.Type)
	}
	as, err := DecodeAssign(f.Payload)
	if err != nil {
		return err
	}
	if as.Version != Version {
		return fmt.Errorf("dist: coordinator speaks protocol %d, this build speaks %d", as.Version, Version)
	}
	spec, err := DecodeSpec(as.Spec)
	if err != nil {
		return err
	}
	// Re-encode the rebuilt scenario and hash it: this catches transport
	// corruption and — more importantly — any drift between the coordinator's
	// scenario and the one this process reconstructed, before a single event
	// runs on a wrong topology.
	reblob, err := EncodeSpec(spec)
	if err != nil {
		return fmt.Errorf("dist: re-encoding rebuilt spec: %w", err)
	}
	hash := SpecHash(reblob)
	if !bytes.Equal(reblob, as.Spec) || hash != as.Hash {
		return fmt.Errorf("dist: rebuilt scenario does not round-trip to the shipped spec (hash mismatch)")
	}
	var tel *telemetry.Collector
	if spec.Telemetry {
		tel = telemetry.New()
	}
	local, err := emu.NewDistLocal(spec.Cfg, as.Engines, tel)
	if err != nil {
		return err
	}
	defer local.Close()
	// Tracing state: buffered wall-clock spans ship in a SPANS frame
	// immediately before the WINDOW_DONE they annotate, so the coordinator
	// folds them into the matching window commit. lastT/lastEnd anchor
	// worker-level wire spans to the most recent window's virtual bounds;
	// windows is the local window count.
	var (
		spanBuf        []obs.Span
		windows        int64
		lastT, lastEnd float64
		// The per-window scratch: decoded barrier events, and the payload of
		// the VOTE or WINDOW_DONE being sent.
		evs []emu.WireEvent
		enc []byte
	)
	if spec.Tracing {
		local.EnableTiming()
	}
	sendSpans := func() error {
		if !spec.Tracing || len(spanBuf) == 0 {
			return nil
		}
		err := conn.Send(Frame{Type: MsgSpans, Payload: EncodeSpans(spanBuf)})
		spanBuf = spanBuf[:0]
		return err
	}
	opt.logf("dist: worker %d/%d ready, engines %v, lookahead %g",
		as.WorkerID, as.Workers, as.Engines, local.Lookahead())
	if err := conn.Send(Frame{Type: MsgReady, Payload: Ready{Hash: hash, Lookahead: local.Lookahead()}.Encode()}); err != nil {
		return err
	}

	for {
		f, err := recvCmd(ctx, conn, opt, &drained)
		if err != nil {
			return err
		}
		switch f.Type {
		case MsgEvents:
			t0 := time.Now()
			evs, err = DecodeEvents(f.Payload, evs[:0])
			if err != nil {
				return err
			}
			if err := local.Inject(evs); err != nil {
				return err
			}
			if spec.Tracing && len(evs) > 0 {
				spanBuf = append(spanBuf, obs.Span{
					Kind: obs.SpanWireRecv, Engine: -1, Window: windows,
					Start: lastT, End: lastEnd, Wall: time.Since(t0).Seconds(),
				})
			}
			t, has := local.Vote()
			enc = Vote{Has: has, Time: t}.Append(enc[:0])
			if err := conn.Send(Frame{Type: MsgVote, Payload: enc}); err != nil {
				return err
			}
		case MsgWindow:
			w, err := DecodeWindow(f.Payload)
			if err != nil {
				return err
			}
			rep, err := local.Step(w.Start, w.End)
			if err != nil {
				return err
			}
			if spec.Tracing {
				lastT, lastEnd = w.Start, w.End
				pre := len(spanBuf)
				spanBuf = local.AppendComputeSpans(spanBuf, w.Start, w.End)
				for i := pre; i < len(spanBuf); i++ {
					spanBuf[i].Window = windows
				}
				if err := sendSpans(); err != nil {
					return err
				}
			}
			t0 := time.Now()
			enc = EncodeWindowDone(enc[:0], rep)
			if err := conn.Send(Frame{Type: MsgWindowDone, Payload: enc}); err != nil {
				return err
			}
			if spec.Tracing {
				// The send wall time ships with the NEXT batch — it cannot
				// precede the frame it measures.
				spanBuf = append(spanBuf, obs.Span{
					Kind: obs.SpanWireSend, Engine: -1, Window: windows,
					Start: w.Start, End: w.End, Wall: time.Since(t0).Seconds(),
				})
				windows++
			}
		case MsgExport:
			if err := (&decoder{buf: f.Payload}).finish(); err != nil {
				return err
			}
			ex, err := local.Export(true)
			if err != nil {
				return err
			}
			if err := conn.Send(Frame{Type: MsgExport, Payload: EncodeElasticExport(ex)}); err != nil {
				return err
			}
		case MsgInstall:
			in, err := DecodeElasticInstall(f.Payload)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := local.Reseat(in); err != nil {
				return err
			}
			if spec.Tracing {
				// Ships with the next window's SPANS batch.
				spanBuf = append(spanBuf, obs.Span{
					Kind: obs.SpanMigrate, Engine: -1, Window: windows,
					Start: in.At, End: in.At, Wall: time.Since(t0).Seconds(),
				})
			}
			opt.logf("dist: worker %d reseated onto engines %v at t=%g", as.WorkerID, in.Engines, in.At)
			if err := conn.Send(Frame{Type: MsgInstallAck, Payload: InstallAck{Lookahead: in.Lookahead}.Encode()}); err != nil {
				return err
			}
		case MsgFinish:
			ex, err := local.Export(false)
			if err != nil {
				return err
			}
			if err := conn.Send(Frame{Type: MsgState, Payload: EncodeElasticExport(ex)}); err != nil {
				return err
			}
		case MsgBye:
			// The coordinator holds this worker's state — pulled by FINISH, or
			// by the EXPORT of the membership barrier it drained at — and
			// releases it.
			opt.logf("dist: worker %d released", as.WorkerID)
			return nil
		case MsgAbort:
			m, _ := DecodeText(f.Payload)
			return fmt.Errorf("dist: aborted by coordinator: %s", m.Text)
		default:
			return fmt.Errorf("dist: worker got unexpected %s", f.Type)
		}
	}
}

// recvCmd is Recv bounded by both the idle timeout and the context — a
// canceled context interrupts the wait at the next slice. Liveness pings are
// answered in place, and a pending drain request goes out between waits (the
// worker is the only writer on its side, so sending here cannot interleave
// with a response). drained latches so DRAIN is sent at most once.
func recvCmd(ctx context.Context, conn Conn, opt *WorkerOptions, drained *bool) (Frame, error) {
	deadline := time.Now().Add(opt.IdleTimeout)
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Frame{}, fmt.Errorf("dist: canceled: %w", err)
			}
		}
		if opt.Drain != nil && !*drained {
			select {
			case <-opt.Drain:
				*drained = true
				opt.logf("dist: requesting drain")
				if err := conn.Send(Frame{Type: MsgDrain}); err != nil {
					return Frame{}, err
				}
			default:
			}
		}
		slice := time.Until(deadline)
		if slice <= 0 {
			return Frame{}, fmt.Errorf("dist: no command within %v", opt.IdleTimeout)
		}
		if slice > time.Second && (ctx != nil || (opt.Drain != nil && !*drained)) {
			slice = time.Second
		}
		f, err := conn.Recv(slice)
		if err == nil {
			if f.Type == MsgPing {
				if err := conn.Send(Frame{Type: MsgPong}); err != nil {
					return Frame{}, err
				}
				continue
			}
			return f, nil
		}
		if isTimeout(err) && time.Now().Before(deadline) {
			continue
		}
		return Frame{}, err
	}
}

func isTimeout(err error) bool {
	type timeouter interface{ Timeout() bool }
	for e := err; e != nil; {
		if t, ok := e.(timeouter); ok {
			return t.Timeout()
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
