package pkt

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestFrameRoundTripAllKinds round-trips a frame carrying every body
// type through the wire codec.
func TestFrameRoundTripAllKinds(t *testing.T) {
	for _, body := range sampleBodies() {
		body := body
		t.Run(body.Kind().String(), func(t *testing.T) {
			p := NewPacket(3, 9, body)
			p.TTL = 17
			f := &Frame{From: 5, LinkDst: Broadcast, Packet: p}
			raw := EncodeFrame(f)
			if len(raw) != f.WireSize() {
				t.Fatalf("encoded length %d != WireSize %d", len(raw), f.WireSize())
			}
			got, err := DecodeFrame(raw)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("round trip mismatch:\n got %+v (packet %+v)\nwant %+v (packet %+v)",
					got, got.Packet, f, f.Packet)
			}
		})
	}
}

// TestFrameRoundTripProperty drives random frame headers over random
// bodies through the codec with testing/quick.
func TestFrameRoundTripProperty(t *testing.T) {
	bodies := sampleBodies()
	rng := rand.New(rand.NewSource(5))
	prop := func(from, linkDst uint32, src, dst uint32, ttl uint8, bodyIdx uint16) bool {
		p := NewPacket(NodeID(src), NodeID(dst), bodies[int(bodyIdx)%len(bodies)])
		p.TTL = ttl
		f := &Frame{From: NodeID(from), LinkDst: NodeID(linkDst), Packet: p}
		got, err := DecodeFrame(EncodeFrame(f))
		return err == nil && reflect.DeepEqual(got, f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := EncodeFrame(&Frame{From: 1, LinkDst: Broadcast,
		Packet: NewPacket(1, 2, &Hello{Seq: 4})})

	t.Run("truncated header", func(t *testing.T) {
		for n := 0; n < frameHeaderSize; n++ {
			if _, err := DecodeFrame(good[:n]); !errors.Is(err, ErrTruncated) {
				t.Errorf("len %d: err = %v, want ErrTruncated", n, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := DecodeFrame(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = FrameVersion + 1
		if _, err := DecodeFrame(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("truncated packet", func(t *testing.T) {
		if _, err := DecodeFrame(good[:len(good)-1]); err == nil {
			t.Error("truncated packet accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeFrame(append(append([]byte(nil), good...), 0)); err == nil {
			t.Error("trailing bytes accepted")
		}
	})
}

// TestDecodeFrameFuzzNoPanic throws random and mutated-valid bytes at
// the frame decoder: every datagram from a live socket is untrusted,
// so the decoder must fail with errors, never panics.
func TestDecodeFrameFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		buf := make([]byte, rng.Intn(128))
		rng.Read(buf)
		_, _ = DecodeFrame(buf)
	}
	// Mutated valid frames exercise the deeper body decoders.
	for _, body := range sampleBodies() {
		raw := EncodeFrame(&Frame{From: 1, LinkDst: 2, Packet: NewPacket(1, 2, body)})
		for i := 0; i < 500; i++ {
			mut := append([]byte(nil), raw...)
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			if rng.Intn(4) == 0 {
				mut = mut[:rng.Intn(len(mut)+1)]
			}
			_, _ = DecodeFrame(mut)
		}
	}
}

// TestFrameDecodersAgreeOnMalformed feeds each kind of damage, for every
// body kind, to both decode entry points: they must reject it with the
// same sentinel, and hand back no frame.
func TestFrameDecodersAgreeOnMalformed(t *testing.T) {
	damage := []struct {
		name string
		do   func(good []byte) []byte
		want error
	}{
		{"truncated header", func(b []byte) []byte { return b[:frameHeaderSize-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = FrameVersion + 1; return b }, ErrBadVersion},
		{"truncated packet header", func(b []byte) []byte { return b[:frameHeaderSize+headerSize-1] }, ErrTruncated},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrTrailingBytes},
		{"unknown kind", func(b []byte) []byte { b[frameHeaderSize] = 0xEE; return b }, ErrUnknownKind},
	}
	bodies := sampleBodies()
	if len(bodies) != len(kindNames) {
		t.Fatalf("sampleBodies covers %d kinds, the codec has %d", len(bodies), len(kindNames))
	}
	for _, body := range bodies {
		good := EncodeFrame(&Frame{From: 5, LinkDst: 9, Packet: NewPacket(3, 9, body)})
		for _, d := range damage {
			bad := d.do(append([]byte(nil), good...))
			byPtr, errPtr := DecodeFrame(bad)
			byVal, errVal := ParseFrame(bad)
			if !errors.Is(errPtr, d.want) || !errors.Is(errVal, d.want) {
				t.Errorf("%v, %s: DecodeFrame err = %v, ParseFrame err = %v, want both %v",
					body.Kind(), d.name, errPtr, errVal, d.want)
			}
			if byPtr != nil || byVal != (Frame{}) {
				t.Errorf("%v, %s: a rejected frame was returned: %+v / %+v", body.Kind(), d.name, byPtr, byVal)
			}
		}
		// Undamaged, both entry points return the same frame.
		byPtr, errPtr := DecodeFrame(good)
		byVal, errVal := ParseFrame(good)
		if errPtr != nil || errVal != nil || !reflect.DeepEqual(*byPtr, byVal) {
			t.Errorf("%v: DecodeFrame = %+v, %v; ParseFrame = %+v, %v", body.Kind(), byPtr, errPtr, byVal, errVal)
		}
	}
}

// TestParseFrameAllocs pins the receive path's decode cost: a Data frame
// is one allocation (packet and body together, the frame by value), and
// DecodeFrame adds none when its caller does not let the frame escape.
func TestParseFrameAllocs(t *testing.T) {
	wire := EncodeFrame(&Frame{From: 1, LinkDst: Broadcast,
		Packet: NewPacket(1, Broadcast, &Data{Group: 1, Origin: 1, Seq: 7, PayloadLen: 64})})
	var seq uint32
	if n := testing.AllocsPerRun(1000, func() {
		f, err := ParseFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		seq += f.Packet.Body.(*Data).Seq
	}); n > 1 {
		t.Errorf("ParseFrame of a Data frame: %v allocs, want at most 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		f, err := DecodeFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		seq += f.Packet.Body.(*Data).Seq
	}); n > 1 {
		t.Errorf("DecodeFrame of a Data frame: %v allocs, want at most 1", n)
	}
}
