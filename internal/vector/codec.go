package vector

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout of an encoded vector:
//
//	byte 0:        tag (0 = dense, 1 = sparse)
//	bytes 1..4:    n = number of stored components (uint32 LE)
//	then (sparse): n × int32 indices, n × float64 values
//	     (dense):  n × float64 values
//
// All integers little-endian. The format is the on-disk record payload
// used by the storage layer for the H table's feature column.

const (
	tagDense  = 0
	tagSparse = 1
)

// EncodedSize returns the number of bytes Encode will produce for v.
func (v Vector) EncodedSize() int {
	n := len(v.Val)
	if v.IsDense() {
		return 5 + 8*n
	}
	return 5 + 4*n + 8*n
}

// Encode appends the binary encoding of v to dst and returns the
// extended slice.
func (v Vector) Encode(dst []byte) []byte {
	n := len(v.Val)
	if v.IsDense() {
		dst = append(dst, tagDense)
	} else {
		dst = append(dst, tagSparse)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	if !v.IsDense() {
		for _, i := range v.Idx {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		}
	}
	for _, x := range v.Val {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// Decode parses a vector from the front of buf, returning the vector
// (in freshly allocated slices) and the number of bytes consumed.
func Decode(buf []byte) (Vector, int, error) {
	var v Vector
	n, err := DecodeInto(&v, buf)
	if err != nil {
		return Vector{}, 0, err
	}
	return v, n, nil
}

// DecodeInto parses a vector from the front of buf into dst, reusing
// dst's Idx and Val capacity, and returns the number of bytes
// consumed. A scan that decodes one row at a time into the same dst
// allocates only when a row outgrows every row before it; dst's
// previous contents are overwritten, so callers must not hold on to
// them. On error dst is left unchanged.
func DecodeInto(dst *Vector, buf []byte) (int, error) {
	if len(buf) < 5 {
		return 0, fmt.Errorf("vector: short buffer (%d bytes)", len(buf))
	}
	tag := buf[0]
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	off := 5
	switch tag {
	case tagDense:
		if len(buf) < off+8*n {
			return 0, fmt.Errorf("vector: truncated dense body")
		}
		dst.Idx = nil
	case tagSparse:
		if len(buf) < off+12*n {
			return 0, fmt.Errorf("vector: truncated sparse body")
		}
		// A sparse vector's Idx is never nil, even when empty: nil
		// marks a dense one. (Val is likewise never left nil.)
		if dst.Idx == nil || cap(dst.Idx) < n {
			dst.Idx = make([]int32, n)
		}
		dst.Idx = dst.Idx[:n]
		for k := range dst.Idx {
			dst.Idx[k] = int32(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	default:
		return 0, fmt.Errorf("vector: unknown tag %d", tag)
	}
	if dst.Val == nil || cap(dst.Val) < n {
		dst.Val = make([]float64, n)
	}
	dst.Val = dst.Val[:n]
	for k := range dst.Val {
		dst.Val[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return off, nil
}
