package cserv

import (
	"bytes"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
)

// wireMsg is what every control-message type offers the fuzz target.
type wireMsg interface{ Marshal() []byte }

// cservDecoders lists every Unmarshal* decoder of the package's control
// messages, adapted to one signature.
var cservDecoders = []struct {
	name   string
	decode func([]byte) (wireMsg, error)
}{
	{"SegSetupReq", func(b []byte) (wireMsg, error) { return UnmarshalSegSetupReq(b) }},
	{"SegSetupResp", func(b []byte) (wireMsg, error) { return UnmarshalSegSetupResp(b) }},
	{"SegActivateReq", func(b []byte) (wireMsg, error) { return UnmarshalSegActivateReq(b) }},
	{"EESetupReq", func(b []byte) (wireMsg, error) { return UnmarshalEESetupReq(b) }},
	{"EESetupResp", func(b []byte) (wireMsg, error) { return UnmarshalEESetupResp(b) }},
	{"EEBatchRenewReq", func(b []byte) (wireMsg, error) { return UnmarshalEEBatchRenewReq(b) }},
	{"EEBatchRenewResp", func(b []byte) (wireMsg, error) { return UnmarshalEEBatchRenewResp(b) }},
	{"DownSegReq", func(b []byte) (wireMsg, error) { return UnmarshalDownSegReq(b) }},
}

// oversizedBatchResp is a 12-byte EEBatchRenewResp claiming 0xFFFFFFFF
// items: a decoder that sized its slices from that count would ask for tens
// of gigabytes before any authentication. The fuzz corpus carries it too.
var oversizedBatchResp = []byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}

// sampleMessages returns one valid encoding of every message type.
func sampleMessages() [][]byte {
	path := []PathHop{{IA: ia(1, 11), Eg: 1}, {IA: ia(1, 2), In: 2, Eg: 3}, {IA: ia(1, 1), In: 4}}
	macs := make([][cryptoutil.MACSize]byte, len(path))
	macs[1][0] = 0xab
	id := reservation.ID{SrcAS: ia(1, 11), Num: 7}
	segIDs := []reservation.ID{id, {SrcAS: ia(1, 1), Num: 9}}
	msgs := []wireMsg{
		&SegSetupReq{ID: id, SegType: segment.Up, Path: path, MinKbps: 1, MaxKbps: 9, ExpT: t0, Ver: 2, Renewal: true, Macs: macs, AccumKbps: 5},
		&SegSetupResp{OK: true, FinalKbps: 9, Tokens: [][packet.HVFLen]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}},
		&SegActivateReq{ID: id, Ver: 2, Path: path, Macs: macs},
		&EESetupReq{ID: id, SegIDs: segIDs, Splits: []uint8{2}, Path: path, BwKbps: 8, ExpT: t0, Ver: 1, SrcHost: 3, DstHost: 4, Macs: macs, AccumKbps: 8},
		&EESetupResp{FailedAt: 2, Reason: "refused", EncAuths: [][]byte{{9, 9}, {}}},
		&EEBatchRenewReq{
			SegIDs: segIDs, Splits: []uint8{2}, Path: path, Macs: macs,
			Items:  []EEBatchItem{{ID: id, Ver: 3, BwKbps: 8, ExpT: t0, SrcHost: 1, DstHost: 2}},
			Accums: []uint64{8}, Status: []uint8{EEItemOK},
		},
		&EEBatchRenewResp{OK: true, Granted: []uint64{8, 0}, Status: []uint8{EEItemOK, EEItemRefused}, EncAuths: [][]byte{{1}, nil}},
		&DownSegReq{Requester: ia(2, 11), Seg: path, MinKbps: 1, MaxKbps: 2},
	}
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = m.Marshal()
	}
	return out
}

// TestBatchDecodersRejectOversizedCounts is the regression test for the
// pre-authentication out-of-memory crash: item counts larger than the
// remaining input can hold are refused before anything is allocated.
func TestBatchDecodersRejectOversizedCounts(t *testing.T) {
	if _, err := UnmarshalEEBatchRenewResp(oversizedBatchResp); err == nil {
		t.Error("EEBatchRenewResp with 0xFFFFFFFF items accepted")
	}
	req := (&EEBatchRenewReq{Path: []PathHop{{IA: ia(1, 11)}}}).Body()
	req[len(req)-4] = 0xFF
	req[len(req)-3] = 0xFF
	req[len(req)-2] = 0xFF
	req[len(req)-1] = 0xFF
	if _, err := UnmarshalEEBatchRenewReq(req); err == nil {
		t.Error("EEBatchRenewReq with 0xFFFFFFFF items accepted")
	}
	// The handler entry point remote CServs reach before authentication.
	svc := twoISDFabric(t, nil).services[ia(1, 2)]
	if _, err := svc.HandleMsg(req); err == nil {
		t.Error("handler accepted an EEBatchRenewReq with 0xFFFFFFFF items")
	}
}

// FuzzCServDecoders: no control-message decoder may panic or over-allocate
// on arbitrary input, and whatever one decodes must re-encode to a fixpoint
// (Marshal∘Unmarshal of the re-encoding reproduces it byte for byte).
func FuzzCServDecoders(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(m)
		f.Add(m[:len(m)/2])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dec := range cservDecoders {
			msg, err := dec.decode(data)
			if err != nil {
				continue
			}
			enc := msg.Marshal()
			again, err := dec.decode(enc)
			if err != nil {
				t.Fatalf("%s: re-decoding its own encoding: %v", dec.name, err)
			}
			if !bytes.Equal(again.Marshal(), enc) {
				t.Fatalf("%s: Marshal∘Unmarshal is not a fixpoint", dec.name)
			}
		}
	})
}
