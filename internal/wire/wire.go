// Package wire is the one binary codec for every byte streamgnn writes
// outside its process: the cluster's RPC frames, the replica's write-ahead
// log and the engine checkpoint (DESIGN.md §17). A message is described once,
// by a function that hands each field to a Coder in order; the same function
// encodes (the Coder appends the fields) and decodes (it fills them), so the
// two directions cannot drift apart.
//
// The decoder reads bytes from another process or from disk, so the first
// error sticks and every later read returns zero; every count is checked
// against the bytes that remain before it sizes an allocation; and only
// whole, canonical input is accepted — minimal varints, 0/1 flags, no
// trailing bytes — so one value has exactly one encoding. A check a message
// function makes (Fail) runs in both directions: the encoder refuses what the
// decoder would. Encoding never writes to the fields it is handed, so one
// value may be encoded on several goroutines at once.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Coder writes or reads one message.
type Coder struct {
	b   []byte
	dec bool
	err error
}

// Encode returns a frame: the version byte, then the fields code hands over.
func Encode(version byte, code func(*Coder)) ([]byte, error) {
	c := &Coder{b: append(make([]byte, 0, 512), version)}
	code(c)
	return c.b, c.err
}

// Decode fills a message from a whole frame of the given version; on any
// error the message is not to be used.
func Decode(frame []byte, version byte, code func(*Coder)) error {
	if len(frame) == 0 {
		return fmt.Errorf("wire: empty")
	}
	if frame[0] != version {
		return fmt.Errorf("wire: version %d, this binary speaks version %d", frame[0], version)
	}
	c := &Coder{b: frame[1:], dec: true}
	if code(c); c.err == nil && len(c.b) != 0 {
		c.Fail("%d trailing bytes", len(c.b))
	}
	return c.err
}

// Decoding reports whether the Coder reads rather than writes.
func (c *Coder) Decoding() bool { return c.dec }

// Fail records the message's first error; a decoder stops reading there.
func (c *Coder) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
	if c.dec {
		c.b = nil
	}
}

// take consumes n bytes, or fails and returns nil when fewer remain.
func (c *Coder) take(n int) []byte {
	if len(c.b) < n {
		c.Fail("truncated")
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// Byte codes one byte as it is.
func (c *Coder) Byte(p *byte) {
	if !c.dec {
		c.b = append(c.b, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// Bool codes a flag as one byte, 0 or 1.
func (c *Coder) Bool(p *bool) {
	v := byte(0)
	if *p {
		v = 1
	}
	if c.Byte(&v); v > 1 {
		c.Fail("flag byte %d is not 0/1", v)
	}
	if c.dec {
		*p = v == 1
	}
}

// Uvarint codes an unsigned integer as a minimal varint.
func (c *Coder) Uvarint(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.Fail("truncated, overlong or non-minimal varint")
		return
	}
	*p, c.b = v, c.b[n:]
}

// Varint codes a signed integer as a zig-zag varint.
func (c *Coder) Varint(p *int64) {
	u := uint64(*p<<1) ^ uint64(*p>>63)
	if c.Uvarint(&u); c.dec {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

// Int codes an int as a zig-zag varint.
func (c *Coder) Int(p *int) {
	v := int64(*p)
	if c.Varint(&v); c.dec {
		if int64(int(v)) != v {
			c.Fail("integer %d overflows int", v)
		}
		*p = int(v)
	}
}

// Float codes a float64 as its IEEE-754 word, little-endian: every value —
// NaN payloads, −0, ±Inf, denormals — crosses exactly.
func (c *Coder) Float(p *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// count codes a list's length, n when encoding. A decoded count whose
// elements, at minBytes each, cannot fit in the bytes that remain is refused
// before anything is sized by it.
func (c *Coder) count(n, minBytes int) int {
	u := uint64(n)
	if c.Uvarint(&u); c.dec && u > uint64(len(c.b)/minBytes) {
		c.Fail("%d elements of >= %d bytes announced, %d bytes remain", u, minBytes, len(c.b))
		return 0
	}
	return int(u)
}

// String codes a length and the bytes as they are (not required to be UTF-8).
func (c *Coder) String(p *string) {
	if n := c.count(len(*p), 1); c.dec {
		*p = string(c.take(n))
	} else {
		c.b = append(c.b, *p...)
	}
}

// Floats codes a count, then each value as Float does.
func (c *Coder) Floats(p *[]float64) {
	n := c.count(len(*p), 8)
	if !c.dec {
		off := len(c.b)
		c.b = slices.Grow(c.b, 8*n)[:off+8*n]
		for i, v := range *p {
			binary.LittleEndian.PutUint64(c.b[off+8*i:], math.Float64bits(v))
		}
		return
	}
	*p = nil
	if b := c.take(8 * n); n > 0 {
		f := make([]float64, n)
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		*p = f
	}
}

// Ints codes a count, then each value as the zig-zag varint of its
// difference from the one before (the first from 0): an ascending id list
// costs about a byte an id, and as the differences wrap, any list
// round-trips.
func (c *Coder) Ints(p *[]int) {
	prev := 0
	List(c, p, 1, func(v *int, c *Coder) {
		d := *v - prev
		if c.Int(&d); c.dec {
			*v = prev + d
		}
		prev = *v
	})
}

// List codes a count, then each element by code; minBytes is an element's
// smallest encoding. An empty list decodes to nil.
func List[T any](c *Coder, p *[]T, minBytes int, code func(*T, *Coder)) {
	n := c.count(len(*p), minBytes)
	if c.dec {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
	for i := range *p {
		code(&(*p)[i], c)
	}
}

// Opt codes an optional value behind a presence flag, so nil stays nil.
func Opt[T any](c *Coder, p **T, code func(*T, *Coder)) {
	present := *p != nil
	if c.Bool(&present); present {
		if c.dec {
			*p = new(T)
		}
		code(*p, c)
	}
}
