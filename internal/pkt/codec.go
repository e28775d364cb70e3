package pkt

import (
	"encoding/binary"
	"slices"
)

// coder runs a field list in one direction: encoding appends each field
// to buf; decoding consumes it from the front of buf into the field. It
// does every bounds check of the decoder: the first read past the end
// sets short and empties buf, so every field after it is left alone.
type coder struct {
	buf    []byte
	decode bool
	short  bool
}

// read consumes the next n bytes to decode, or returns nil once the
// buffer has run short.
func (c *coder) read(n int) []byte {
	if len(c.buf) < n {
		c.buf, c.short = nil, true
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// finish reports how the last decoded field list met the end of the
// buffer: ErrTruncated if it ran past it, ErrTrailingBytes if it
// stopped short of it.
func (c *coder) finish() error {
	switch {
	case c.short:
		return ErrTruncated
	case len(c.buf) != 0:
		return ErrTrailingBytes
	}
	return nil
}

// u8 codes a one-byte field.
func u8[T ~uint8](c *coder, v *T) {
	if !c.decode {
		c.buf = append(c.buf, byte(*v))
	} else if b := c.read(1); len(b) == 1 {
		*v = T(b[0])
	}
}

// u16 codes a two-byte field.
func u16(c *coder, v *uint16) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *v)
	} else if b := c.read(2); len(b) == 2 {
		*v = binary.BigEndian.Uint16(b)
	}
}

// u32 codes a four-byte field: a counter, a node or a group address.
func u32[T ~uint32](c *coder, v *T) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(*v))
	} else if b := c.read(4); len(b) == 4 {
		*v = T(binary.BigEndian.Uint32(b))
	}
}

// zeros codes n zero bytes; decoding skips whatever they hold. It
// clears the bytes in place: append(buf, make([]byte, n)...) allocates
// the temporary under the race detector.
func (c *coder) zeros(n int) {
	if c.decode {
		c.read(n)
		return
	}
	end := len(c.buf) + n
	c.buf = slices.Grow(c.buf, n)[:end]
	clear(c.buf[end-n:])
}

// count codes a list's one-byte length and returns it. Decoding sizes
// *s to it: one allocation for a non-empty list, none for an empty one.
func count[T any](c *coder, s *[]T) int {
	n := uint8(len(*s))
	u8(c, &n)
	if c.decode {
		*s = make([]T, n)
	}
	return int(n)
}
