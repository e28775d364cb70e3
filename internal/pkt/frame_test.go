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
// body kind, to both decode entry points — the owning DecodeFrame and
// the scratch one a receive loop uses, one Scratch across the whole
// table: they must reject it with the same sentinel, and hand back no
// frame.
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
	if len(bodies) != len(Kinds()) {
		t.Fatalf("sampleBodies covers %d kinds, the codec has %d", len(bodies), len(Kinds()))
	}
	var scratch Scratch
	for _, body := range bodies {
		good := EncodeFrame(&Frame{From: 5, LinkDst: 9, Packet: NewPacket(3, 9, body)})
		for _, d := range damage {
			bad := d.do(append([]byte(nil), good...))
			byPtr, errPtr := DecodeFrame(bad)
			byVal, errVal := scratch.DecodeFrame(bad)
			if !errors.Is(errPtr, d.want) || !errors.Is(errVal, d.want) {
				t.Errorf("%v, %s: DecodeFrame err = %v, Scratch.DecodeFrame err = %v, want both %v",
					body.Kind(), d.name, errPtr, errVal, d.want)
			}
			if byPtr != nil || byVal != (Frame{}) {
				t.Errorf("%v, %s: a rejected frame was returned: %+v / %+v", body.Kind(), d.name, byPtr, byVal)
			}
		}
		// Undamaged, both entry points return the same frame.
		byPtr, errPtr := DecodeFrame(good)
		byVal, errVal := scratch.DecodeFrame(good)
		if errPtr != nil || errVal != nil || !reflect.DeepEqual(*byPtr, byVal) {
			t.Errorf("%v: DecodeFrame = %+v, %v; Scratch.DecodeFrame = %+v, %v", body.Kind(), byPtr, errPtr, byVal, errVal)
		}
	}
}

// TestScratchDecodeRejectKeepsPacket pins the half of the borrowed-packet
// rule the decoder owns: a frame it rejects does not touch the scratch,
// so the packet decoded before it still reads as it did.
func TestScratchDecodeRejectKeepsPacket(t *testing.T) {
	frame := func(seq uint32) []byte {
		return EncodeFrame(&Frame{From: 1, LinkDst: Broadcast,
			Packet: NewPacket(1, Broadcast, &Data{Group: 1, Origin: 1, Seq: seq, PayloadLen: 64})})
	}
	var scratch Scratch
	f, err := scratch.DecodeFrame(frame(7))
	if err != nil {
		t.Fatal(err)
	}
	next := frame(8)
	if _, err := scratch.DecodeFrame(next[:len(next)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated Data frame: err = %v, want ErrTruncated", err)
	}
	if got := f.Packet.Body.(*Data).Seq; got != 7 {
		t.Fatalf("a rejected frame rewrote the scratch: seq %d, want 7", got)
	}
	// The next accepted Data frame is what overwrites it.
	if _, err := scratch.DecodeFrame(next); err != nil {
		t.Fatal(err)
	}
	if got := f.Packet.Body.(*Data).Seq; got != 8 {
		t.Fatalf("scratch not reused: first frame still reads seq %d", got)
	}
}

// TestParseFrameAllocs pins the decode cost of both entry points and of
// the copy that takes a packet out of the scratch: a Data frame decoded
// into a Scratch allocates nothing, the owning DecodeFrame at most one
// object (packet and body together; the frame stays on the caller's
// stack when it does not escape), and Clone of a Data packet exactly one.
func TestParseFrameAllocs(t *testing.T) {
	wire := EncodeFrame(&Frame{From: 1, LinkDst: Broadcast,
		Packet: NewPacket(1, Broadcast, &Data{Group: 1, Origin: 1, Seq: 7, PayloadLen: 64})})
	var seq uint32
	var scratch Scratch
	if n := testing.AllocsPerRun(1000, func() {
		f, err := scratch.DecodeFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		seq += f.Packet.Body.(*Data).Seq
	}); n != 0 {
		t.Errorf("Scratch.DecodeFrame of a Data frame: %v allocs, want 0", n)
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
	f, err := scratch.DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	var kept *Packet
	if n := testing.AllocsPerRun(1000, func() { kept = f.Packet.Clone() }); n != 1 {
		t.Errorf("Clone of a Data packet: %v allocs, want 1", n)
	}
	if !reflect.DeepEqual(kept, f.Packet) || kept == f.Packet || kept.Body == f.Packet.Body {
		t.Errorf("Clone = %+v (body %+v), want an independent copy of %+v", kept, kept.Body, f.Packet)
	}
}

// FuzzDecodeScratchDifferential holds the scratch decode to the owning
// one on arbitrary bytes: deeply equal frames, or errors of the same
// class. One Scratch serves the whole corpus, so whatever an earlier
// input left in it must not show through a later one.
func FuzzDecodeScratchDifferential(f *testing.F) {
	for _, body := range sampleBodies() {
		good := EncodeFrame(&Frame{From: 5, LinkDst: Broadcast, Packet: NewPacket(3, 9, body)})
		f.Add(good)
		f.Add(good[:len(good)-1])                                                                         // truncated body
		f.Add(good[:frameHeaderSize+headerSize-1])                                                        // truncated packet header
		f.Add(append(append([]byte(nil), good...), 0))                                                    // trailing byte
		f.Add(append([]byte{^good[0]}, good[1:]...))                                                      // bad magic
		f.Add(append(append([]byte(nil), good[:2]...), append([]byte{FrameVersion + 1}, good[3:]...)...)) // bad version
	}
	f.Add([]byte{})
	sentinels := []error{ErrTruncated, ErrTrailingBytes, ErrUnknownKind, ErrBadMagic, ErrBadVersion}
	var scratch Scratch
	f.Fuzz(func(t *testing.T, b []byte) {
		own, errOwn := DecodeFrame(b)
		got, errGot := scratch.DecodeFrame(b)
		if (errOwn == nil) != (errGot == nil) {
			t.Fatalf("DecodeFrame err = %v, Scratch.DecodeFrame err = %v", errOwn, errGot)
		}
		if errOwn != nil {
			for _, s := range sentinels {
				if errors.Is(errOwn, s) != errors.Is(errGot, s) {
					t.Fatalf("error classes differ: DecodeFrame %v, Scratch.DecodeFrame %v", errOwn, errGot)
				}
			}
			if got != (Frame{}) {
				t.Fatalf("a rejected frame was returned: %+v", got)
			}
			return
		}
		if !reflect.DeepEqual(*own, got) {
			t.Fatalf("DecodeFrame = %+v (packet %+v), Scratch.DecodeFrame = %+v (packet %+v)",
				own, own.Packet, got, got.Packet)
		}
	})
}
