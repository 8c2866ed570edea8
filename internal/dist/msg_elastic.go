package dist

import (
	"repro/internal/emu"
)

// Elastic-membership payload codecs: EXPORT (and FINISH, answered by STATE)
// pulls a worker's complete barrier state, INSTALL reseats a continuing worker onto the repartitioned
// state, INSTALL_ACK closes the loop with the worker's derived lookahead.
// The EXPORT command itself carries no payload.

// encodeNetState/decodeNetState carry the link and flow slots — the one
// listing of them on the wire, inside exports, installs and crossing window
// reports alike.
func encodeNetState(e *encoder, s *emu.NetState) {
	e.f64s(s.BusyUntil)
	e.i64s(s.LinkBytes)
	e.i64s(s.LinkPackets)
	e.i64s(s.Drops)
	e.i64s(s.Delivered)
	e.f64s(s.FCTs)
}

func decodeNetState(d *decoder) emu.NetState {
	return emu.NetState{
		BusyUntil:   d.f64s("netState.busyUntil"),
		LinkBytes:   d.i64s("netState.linkBytes"),
		LinkPackets: d.i64s("netState.linkPackets"),
		Drops:       d.i64s("netState.drops"),
		Delivered:   d.i64s("netState.delivered"),
		FCTs:        d.f64s("netState.fcts"),
	}
}

// EncodeElasticExport/DecodeElasticExport carry a worker's barrier state: its
// reply to MsgExport and, as MsgState, to MsgFinish.
func EncodeElasticExport(x *emu.ElasticExport) []byte {
	var e encoder
	e.ints(x.Engines)
	e.i64s(x.Events)
	e.i64s(x.Charges)
	e.i64s(x.RemoteSends)
	encodeWireEvents(&e, x.Pending)
	encodeNetState(&e, &x.NetState)
	encodePartial(&e, x.Telemetry)
	return e.buf
}

func DecodeElasticExport(b []byte) (*emu.ElasticExport, error) {
	d := decoder{buf: b}
	x := &emu.ElasticExport{
		Engines:     d.ints("export.engines"),
		Events:      d.i64s("export.events"),
		Charges:     d.i64s("export.charges"),
		RemoteSends: d.i64s("export.remoteSends"),
		Pending:     decodeWireEvents(&d, nil),
		NetState:    decodeNetState(&d),
	}
	x.Telemetry = decodePartial(&d)
	return x, d.finish()
}

// EncodeElasticInstall/DecodeElasticInstall carry MsgInstall payloads.
func EncodeElasticInstall(in *emu.ElasticInstall) []byte {
	var e encoder
	e.f64(in.At)
	e.f64(in.Lookahead)
	e.ints(in.Engines)
	e.ints(in.Assignment)
	e.i64(in.Windows)
	e.f64(in.SkippedTime)
	e.i64s(in.Events)
	e.i64s(in.Charges)
	e.i64s(in.RemoteSends)
	encodeWireEvents(&e, in.Pending)
	encodeNetState(&e, &in.NetState)
	encodePartial(&e, in.Telemetry)
	return e.buf
}

func DecodeElasticInstall(b []byte) (*emu.ElasticInstall, error) {
	d := decoder{buf: b}
	in := &emu.ElasticInstall{
		At:          d.f64("install.at"),
		Lookahead:   d.f64("install.lookahead"),
		Engines:     d.ints("install.engines"),
		Assignment:  d.ints("install.assignment"),
		Windows:     d.i64("install.windows"),
		SkippedTime: d.f64("install.skippedTime"),
		Events:      d.i64s("install.events"),
		Charges:     d.i64s("install.charges"),
		RemoteSends: d.i64s("install.remoteSends"),
		Pending:     decodeWireEvents(&d, nil),
		NetState:    decodeNetState(&d),
	}
	in.Telemetry = decodePartial(&d)
	return in, d.finish()
}

// InstallAck confirms a reseat; Lookahead is the worker's independently
// derived post-resize window width, cross-checked bit-for-bit.
type InstallAck struct{ Lookahead float64 }

func (m InstallAck) Encode() []byte {
	var e encoder
	e.f64(m.Lookahead)
	return e.buf
}

func DecodeInstallAck(b []byte) (InstallAck, error) {
	d := decoder{buf: b}
	m := InstallAck{Lookahead: d.f64("installAck.lookahead")}
	return m, d.finish()
}
