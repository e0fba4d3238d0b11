package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// A spill file is one frame: a fixed 24-byte little-endian header followed
// by the codec's payload.
//
//	offset  size  field
//	     0     4  magic "RAMP"
//	     4     4  codec schema (Codec.Schema)
//	     8     4  stage model version (Codec.Version)
//	    12     4  CRC-32C (Castagnoli) of the payload
//	    16     8  payload length in bytes
//	    24     n  payload
//
// A read accepts the file only if every header field matches: the magic,
// the reader's schema and version, a length equal to the bytes that follow,
// and the checksum. Anything else — a truncated or extended file, a flipped
// bit, a file written by another codec or model version — is rejected.
const (
	frameMagic     = "RAMP"
	frameHeaderLen = 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame returns the frame holding v's payload.
func encodeFrame[T any](c Codec[T], v T) ([]byte, error) {
	b, err := c.Encode(make([]byte, frameHeaderLen), v)
	if err != nil {
		return nil, err
	}
	payload := b[frameHeaderLen:]
	copy(b, frameMagic)
	binary.LittleEndian.PutUint32(b[4:], c.Schema)
	binary.LittleEndian.PutUint32(b[8:], c.Version)
	binary.LittleEndian.PutUint32(b[12:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(b[16:], uint64(len(payload)))
	return b, nil
}

// decodeFrame verifies a frame against the codec and decodes its payload.
func decodeFrame[T any](c Codec[T], b []byte) (T, error) {
	var zero T
	if len(b) < frameHeaderLen {
		return zero, errors.New("store: file shorter than a frame header")
	}
	if string(b[:4]) != frameMagic {
		return zero, fmt.Errorf("store: bad frame magic %q", b[:4])
	}
	if schema := binary.LittleEndian.Uint32(b[4:]); schema != c.Schema {
		return zero, fmt.Errorf("store: frame schema %d, want %d", schema, c.Schema)
	}
	if version := binary.LittleEndian.Uint32(b[8:]); version != c.Version {
		return zero, fmt.Errorf("store: frame model version %d, want %d", version, c.Version)
	}
	payload := b[frameHeaderLen:]
	if n := binary.LittleEndian.Uint64(b[16:]); n != uint64(len(payload)) {
		return zero, fmt.Errorf("store: frame length %d, file holds %d", n, len(payload))
	}
	if crc := binary.LittleEndian.Uint32(b[12:]); crc != crc32.Checksum(payload, crcTable) {
		return zero, errors.New("store: frame checksum mismatch")
	}
	return c.Decode(payload)
}
