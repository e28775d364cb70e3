package pkt

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// sampleBodies returns one representative of every body type, with
// non-trivial field values.
func sampleBodies() []Body {
	return []Body{
		&Hello{Seq: 77},
		&RREQ{Flags: RREQJoin | RREQRepair, HopCount: 3, ID: 9, Dst: 0xE0000001,
			DstSeq: 12, Orig: 4, OrigSeq: 8, LeaderHops: 5},
		&RREP{Flags: RREPMulticast | RREPMember, HopCount: 2, Dst: 0xE0000001, DstSeq: 13,
			Orig: 4, LifetimeMS: 3000, Leader: 9, Replier: 11, LeaderHops: 2, RREQID: 9},
		&RERR{Dests: []Unreachable{{Addr: 3, Seq: 5}, {Addr: 8, Seq: 0}}},
		&MACT{Group: 0xE0000001, Src: 6, Flags: MACTJoin, HopsFromOrigin: 4, RREQID: 2},
		&GRPH{Group: 0xE0000001, Leader: 1, GroupSeq: 42, HopCount: 7},
		&Nearest{Group: 0xE0000001, Dist: 3},
		&Data{Group: 0xE0000001, Origin: 2, Seq: 1001, PayloadLen: 64},
		&GossipReq{Group: 0xE0000001, Initiator: 5, Flags: GossipCached, HopsTraveled: 2,
			Lost:     []SeqKey{{Origin: 2, Seq: 17}, {Origin: 2, Seq: 19}},
			Expected: []Expect{{Origin: 2, NextSeq: 25}}},
		&GossipRep{Group: 0xE0000001, Responder: 7, WalkHops: 3,
			Msgs: []Data{
				{Group: 0xE0000001, Origin: 2, Seq: 17, PayloadLen: 64},
				{Group: 0xE0000001, Origin: 2, Seq: 19, PayloadLen: 64},
			}},
		&JoinQuery{Group: 0xE0000001, Source: 3, Seq: 12, HopCount: 2},
		&JoinReply{Group: 0xE0000001, Source: 3, Member: 8, Seq: 12},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, body := range sampleBodies() {
		t.Run(body.Kind().String(), func(t *testing.T) {
			p := NewPacket(3, 9, body)
			p.TTL = 17
			raw := Encode(p)
			if len(raw) != p.WireSize() {
				t.Fatalf("encoded length %d != WireSize %d", len(raw), p.WireSize())
			}
			got, err := Decode(raw)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, p) {
				t.Fatalf("round trip mismatch:\n got %+v (body %+v)\nwant %+v (body %+v)",
					got, got.Body, p, p.Body)
			}
		})
	}
}

func TestWireSizeMatchesEncoder(t *testing.T) {
	for _, body := range sampleBodies() {
		if got := len(body.code(coder{}).buf); got != body.WireSize() {
			t.Errorf("%s: the field list encodes %d bytes, WireSize says %d",
				body.Kind(), got, body.WireSize())
		}
	}
}

// TestWireBytesPinned holds the encoder to the exact bytes every body
// kind and one frame had before the codec was rewritten as field lists:
// a layout change that encoder and decoder agree on passes every
// round-trip test, but not this one.
func TestWireBytesPinned(t *testing.T) {
	payload := strings.Repeat("00", 64) // a sample Data's 64 payload bytes
	want := map[Kind]string{
		KindHello:     "0100000003000000091100040000004d",
		KindRREQ:      "020000000300000009110017030300000009e00000010000000c000000040000000805",
		KindRREP:      "03000000030000000911001f0302e00000010000000d0000000400000bb8000000090000000b0200000009",
		KindRERR:      "0400000003000000091100110200000003000000050000000800000000",
		KindMACT:      "05000000030000000911000ee000000100000006010400000002",
		KindGRPH:      "06000000030000000911000de0000001000000010000002a07",
		KindNearest:   "070000000300000009110005e000000103",
		KindData:      "08000000030000000911004ee000000100000002000003e90040" + payload,
		KindGossipReq: "090000000300000009110024e00000010000000501020200000002000000110000000200000013010000000200000019",
		KindGossipRep: "0a00000003000000091100a6e0000001000000070302e000000100000002000000110040" + payload + "e000000100000002000000130040" + payload,
		KindJoinQuery: "20000000030000000911000de0000001000000030000000c02",
		KindJoinReply: "210000000300000009110010e000000100000003000000080000000c",
	}
	for _, body := range sampleBodies() {
		p := NewPacket(3, 9, body)
		p.TTL = 17
		if got := hex.EncodeToString(Encode(p)); got != want[body.Kind()] {
			t.Errorf("%s: Encode = %s\nwant %s", body.Kind(), got, want[body.Kind()])
		}
	}
	f := &Frame{From: 5, LinkDst: Broadcast, Packet: NewPacket(3, 9, &Hello{Seq: 77})}
	const wantFrame = "41470100000005ffffffff0100000003000000092000040000004d"
	if got := hex.EncodeToString(EncodeFrame(f)); got != wantFrame {
		t.Errorf("EncodeFrame = %s\nwant %s", got, wantFrame)
	}
}

// TestCodecAllocs pins what the codec allocates for every body kind.
// Encoding allocates only its output buffer. Decoding a non-Data packet
// allocates the packet, the body and one object per non-empty list;
// a Data packet is one object, header and body together. Each budget is
// counted over one run of a whole loop, so the count is the exact total
// and not AllocsPerRun's truncated mean.
func TestCodecAllocs(t *testing.T) {
	const runs = 100
	lists := map[Kind]int{KindRERR: 1, KindGossipReq: 2, KindGossipRep: 1}
	for _, body := range sampleBodies() {
		p := NewPacket(3, 9, body)
		f := &Frame{From: 5, LinkDst: 9, Packet: p}
		if n := testing.AllocsPerRun(1, func() {
			for range runs {
				Encode(p)
			}
		}); n != runs {
			t.Errorf("%s: %d Encode calls allocate %v objects, want %d", body.Kind(), runs, n, runs)
		}
		if n := testing.AllocsPerRun(1, func() {
			for range runs {
				EncodeFrame(f)
			}
		}); n != runs {
			t.Errorf("%s: %d EncodeFrame calls allocate %v objects, want %d", body.Kind(), runs, n, runs)
		}
		want := uint64(2 + lists[body.Kind()])
		if body.Kind() == KindData {
			want = 1
		}
		raw := Encode(p)
		if n := testing.AllocsPerRun(1, func() {
			for range runs {
				if _, err := Decode(raw); err != nil {
					t.Fatal(err)
				}
			}
		}); n != float64(runs*want) {
			t.Errorf("%s: %d Decode calls allocate %v objects, want %d", body.Kind(), runs, n, runs*want)
		}
	}
}

func TestCloneBodyIsDeep(t *testing.T) {
	rerr := &RERR{Dests: []Unreachable{{Addr: 1, Seq: 2}}}
	clone, ok := new(Spares).Copy(NewPacket(1, 2, rerr)).Body.(*RERR)
	if !ok {
		t.Fatal("the copy has the wrong body type")
	}
	clone.Dests[0].Addr = 99
	if rerr.Dests[0].Addr != 1 {
		t.Fatal("RERR clone shares Dests backing array")
	}

	req := &GossipReq{Lost: []SeqKey{{Origin: 1, Seq: 1}}, Expected: []Expect{{Origin: 1, NextSeq: 5}}}
	reqClone, ok := new(Spares).Copy(NewPacket(1, 2, req)).Body.(*GossipReq)
	if !ok {
		t.Fatal("the copy has the wrong body type")
	}
	reqClone.Lost[0].Seq = 42
	reqClone.Expected[0].NextSeq = 42
	if req.Lost[0].Seq != 1 || req.Expected[0].NextSeq != 5 {
		t.Fatal("GossipReq clone shares slices")
	}

	rep := &GossipRep{Msgs: []Data{{Seq: 1}}}
	repClone, ok := new(Spares).Copy(NewPacket(1, 2, rep)).Body.(*GossipRep)
	if !ok {
		t.Fatal("the copy has the wrong body type")
	}
	repClone.Msgs[0].Seq = 9
	if rep.Msgs[0].Seq != 1 {
		t.Fatal("GossipRep clone shares Msgs")
	}
}

// TestKindSlotsDense: the per-kind tables are indexed densely — every
// kind has its own slot below NumKinds — and a value that is no kind has
// none.
func TestKindSlotsDense(t *testing.T) {
	seen := make(map[int]Kind)
	for _, k := range Kinds() {
		s := k.Slot()
		if s < 0 || s >= NumKinds {
			t.Fatalf("%s: slot %d outside [0, %d)", k, s, NumKinds)
		}
		if other, dup := seen[s]; dup {
			t.Fatalf("%s and %s share slot %d", k, other, s)
		}
		seen[s] = k
	}
	if len(seen) != NumKinds {
		t.Fatalf("%d kinds, NumKinds %d", len(seen), NumKinds)
	}
	for _, k := range []Kind{0, KindGossipRep + 1, KindJoinQuery - 1, KindJoinReply + 1, 255} {
		if s := k.Slot(); s != -1 {
			t.Errorf("kind value %d has slot %d, want -1", uint8(k), s)
		}
	}
}

// TestSparesCopyReusesStorage: a copy of every kind is built in the spare
// a Put gave back — the same packet, body and list capacity — equals its
// source, and shares nothing with it; with no spare of the kind it is
// fresh storage, and a warm copy allocates nothing.
func TestSparesCopyReusesStorage(t *testing.T) {
	var s Spares
	for _, body := range sampleBodies() {
		src := NewPacket(3, 9, body)
		src.TTL = 7
		first := s.Copy(src)
		if first == src || first.Body == src.Body || !reflect.DeepEqual(first, src) {
			t.Fatalf("%s: fresh copy %+v, want an independent equal of %+v", body.Kind(), first, src)
		}
		s.Put(first)
		again := s.Copy(src)
		if again != first || !reflect.DeepEqual(again, src) {
			t.Fatalf("%s: copy after Put is %p (%+v), want the spare %p rebuilt as %+v",
				body.Kind(), again, again, first, src)
		}
		s.Put(again)
		const runs = 100
		if n := testing.AllocsPerRun(1, func() {
			for range runs {
				s.Put(s.Copy(src))
			}
		}); n != 0 {
			t.Errorf("%s: %d copies into a warm spare allocate %v objects, want 0", body.Kind(), runs, n)
		}
	}
	// A free list keeps maxSpares packets; the rest go to the collector.
	hello := NewPacket(1, 2, &Hello{Seq: 1})
	kept := make([]*Packet, maxSpares+1)
	for i := range kept {
		kept[i] = s.Copy(hello)
	}
	for _, p := range kept {
		s.Put(p)
	}
	for i := 0; i < maxSpares; i++ {
		if p := s.Copy(hello); p != kept[maxSpares-1-i] {
			t.Fatalf("copy %d of a full list: %p, want the spare %p", i, p, kept[maxSpares-1-i])
		}
	}
	if p := s.Copy(hello); p == kept[maxSpares] {
		t.Fatal("a list kept a spare past maxSpares")
	}

	// A list shrinks in place: a shorter copy into a longer spare keeps
	// none of the spare's old entries.
	long := NewPacket(1, 2, &GossipRep{Msgs: []Data{{Seq: 1}, {Seq: 2}, {Seq: 3}}})
	s.Put(s.Copy(long))
	short := s.Copy(NewPacket(1, 2, &GossipRep{Msgs: []Data{{Seq: 9}}}))
	if msgs := short.Body.(*GossipRep).Msgs; len(msgs) != 1 || msgs[0].Seq != 9 || cap(msgs) < 3 {
		t.Fatalf("short reply in a long spare: Msgs %v (cap %d), want [9] in the old array", msgs, cap(msgs))
	}
}

func TestPacketCloneIndependence(t *testing.T) {
	p := NewPacket(1, 2, &RREQ{HopCount: 1, ID: 5})
	c := new(Spares).Copy(p)
	c.TTL--
	if body, ok := c.Body.(*RREQ); ok {
		body.HopCount++
	} else {
		t.Fatal("clone body type mismatch")
	}
	orig, ok := p.Body.(*RREQ)
	if !ok {
		t.Fatal("original body type mismatch")
	}
	if p.TTL != DefaultTTL || orig.HopCount != 1 {
		t.Fatal("mutating clone affected original")
	}
}

// pushRequest is a push-mode gossip request (flags GossipCached and
// 0x02) in the layout that carried pushed data: a count of 1 follows the
// expectations, then one 64-byte Data.
var pushRequest = "090000000300000009110073e0000001000000050302020000000200000011000000020000001301000000020000001901e0000001000000020000001e0040" +
	strings.Repeat("00", 64)

func TestDecodeErrors(t *testing.T) {
	valid := Encode(NewPacket(1, 2, &Hello{Seq: 1}))

	tests := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:8], ErrTruncated},
		{"truncated body", valid[:len(valid)-2], ErrTruncated},
		{"trailing bytes", append(append([]byte{}, valid...), 0xAA), ErrTrailingBytes},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.raw); !errors.Is(err, tt.want) {
				t.Fatalf("Decode err = %v, want %v", err, tt.want)
			}
		})
	}

	// A push request ended with a count of the data it carried and the
	// data; the request no longer has that list, so they trail.
	t.Run("push request", func(t *testing.T) {
		raw, err := hex.DecodeString(pushRequest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(raw); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("Decode err = %v, want ErrTrailingBytes", err)
		}
	})

	t.Run("unknown kind", func(t *testing.T) {
		bad := append([]byte{}, valid...)
		bad[0] = 0xEE
		if _, err := Decode(bad); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("Decode err = %v, want ErrUnknownKind", err)
		}
	})
}

func TestDecodeBodyLengthMismatch(t *testing.T) {
	// A GRPH body must be exactly 13 bytes; hand it 4.
	p := NewPacket(1, 2, &Hello{Seq: 1})
	raw := Encode(p)
	raw[0] = byte(KindGRPH)
	if _, err := Decode(raw); err == nil {
		t.Fatal("decoding a hello body as GRPH succeeded")
	}
}

func TestKindStrings(t *testing.T) {
	for _, b := range sampleBodies() {
		if s := b.Kind().String(); s == "" || s[0] == 'K' {
			t.Errorf("kind %d missing a name: %q", b.Kind(), s)
		}
	}
	if got := Kind(200).String(); got != "KIND(200)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestIsControl(t *testing.T) {
	control := map[Kind]bool{
		KindHello: true, KindRREQ: true, KindRREP: true, KindRERR: true,
		KindMACT: true, KindGRPH: true, KindNearest: true,
		KindData: false, KindGossipReq: true, KindGossipRep: false,
	}
	for k, want := range control {
		if got := k.IsControl(); got != want {
			t.Errorf("%s.IsControl() = %v, want %v", k, got, want)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if got := Broadcast.String(); got != "*" {
		t.Errorf("Broadcast.String() = %q", got)
	}
	if got := NodeID(7).String(); got != "n7" {
		t.Errorf("NodeID(7).String() = %q", got)
	}
	if got := GroupID(3).String(); got != "g3" {
		t.Errorf("GroupID(3).String() = %q", got)
	}
	if got := (SeqKey{Origin: 2, Seq: 9}).String(); got != "n2#9" {
		t.Errorf("SeqKey.String() = %q", got)
	}
}

// randomGossipReq builds a GossipReq with random bounded contents.
func randomGossipReq(r *rand.Rand) *GossipReq {
	g := &GossipReq{
		Group:        GroupID(r.Uint32()),
		Initiator:    NodeID(r.Uint32() >> 1), // keep below Broadcast
		Flags:        uint8(r.Intn(2)),
		HopsTraveled: uint8(r.Intn(32)),
	}
	for i, n := 0, r.Intn(10); i < n; i++ {
		g.Lost = append(g.Lost, SeqKey{Origin: NodeID(r.Uint32() >> 1), Seq: r.Uint32()})
	}
	for i, n := 0, r.Intn(5); i < n; i++ {
		g.Expected = append(g.Expected, Expect{Origin: NodeID(r.Uint32() >> 1), NextSeq: r.Uint32()})
	}
	return g
}

// Property: encode/decode is the identity on random gossip requests (the
// most structurally complex body).
func TestGossipReqRoundTripProperty(t *testing.T) {
	f := func(seed int64, src, dst uint32, ttl uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := &Packet{Kind: KindGossipReq, Src: NodeID(src), Dst: NodeID(dst), TTL: ttl,
			Body: randomGossipReq(r)}
		raw := Encode(p)
		if len(raw) != p.WireSize() {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		// Normalise nil vs empty slices before comparing.
		gb, ok := got.Body.(*GossipReq)
		if !ok {
			return false
		}
		pb, ok := p.Body.(*GossipReq)
		if !ok {
			return false
		}
		if len(gb.Lost) == 0 && len(pb.Lost) == 0 {
			gb.Lost, pb.Lost = nil, nil
		}
		if len(gb.Expected) == 0 && len(pb.Expected) == 0 {
			gb.Expected, pb.Expected = nil, nil
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeFuzzNoPanic(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", raw, r)
			}
		}()
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes with a valid header structure never
// panics either (exercises body decoders more deeply than pure noise).
func TestDecodeStructuredFuzzNoPanic(t *testing.T) {
	f := func(kind uint8, body []byte) bool {
		if len(body) > 0xFFFF {
			body = body[:0xFFFF]
		}
		raw := []byte{kind, 0, 0, 0, 1, 0, 0, 0, 2, 32}
		raw = append(raw, byte(len(body)>>8), byte(len(body)))
		raw = append(raw, body...)
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on kind=%d len=%d: %v", kind, len(body), r)
			}
		}()
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewerSeq(t *testing.T) {
	tests := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{0, 0xFFFFFFFF, true}, // wraparound
		{0xFFFFFFFF, 0, false},
	}
	for _, tt := range tests {
		if got := NewerSeq(tt.a, tt.b); got != tt.want {
			t.Errorf("NewerSeq(%d, %d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	// Half the number space away is the edge: b + 2³¹ − 1 is newer than
	// b and b + 2³¹ is not, wherever b sits relative to the wrap.
	for _, b := range []uint32{0, 1, 1<<31 - 1, 1 << 31, 0xFFFFFFF0, 0xFFFFFFFF} {
		if a := b + (1<<31 - 1); !NewerSeq(a, b) {
			t.Errorf("NewerSeq(%d, %d) = false, want true (b + 2³¹ − 1)", a, b)
		}
		if a := b + 1<<31; NewerSeq(a, b) {
			t.Errorf("NewerSeq(%d, %d) = true, want false (b + 2³¹)", a, b)
		}
	}
}
