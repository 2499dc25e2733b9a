package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"hazy/internal/wal"
)

// frame builds a raw message: [1B type][4B declared len LE][payload].
func frame(typ byte, declared uint32, payload []byte) []byte {
	hdr := [5]byte{typ}
	binary.LittleEndian.PutUint32(hdr[1:], declared)
	return append(hdr[:], payload...)
}

func TestReadMsg(t *testing.T) {
	var good bytes.Buffer
	if err := writeMsg(&good, msgRecord, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		in      []byte
		typ     byte
		payload string
		err     string // substring; "" = success
	}{
		{name: "round trip", in: good.Bytes(), typ: msgRecord, payload: "payload"},
		{name: "empty payload", in: frame(msgRecord, 0, nil), typ: msgRecord},
		// The limit is checked before the payload buffer is allocated:
		// the stream holds no payload, so any other outcome would mean
		// readMsg had allocated and tried to fill it.
		{name: "over limit", in: frame(msgRecord, maxMsg+1, nil), err: "exceeds limit"},
		{name: "max uint32", in: frame(msgRecord, 1<<32-1, []byte("x")), err: "exceeds limit"},
		{name: "no header", in: nil, err: io.EOF.Error()},
		{name: "truncated header", in: []byte{msgRecord, 3, 0}, err: io.ErrUnexpectedEOF.Error()},
		{name: "truncated payload", in: frame(msgRecord, 10, []byte("abcd")), err: io.ErrUnexpectedEOF.Error()},
		{name: "header only", in: frame(msgRecord, 4, nil), err: io.EOF.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			typ, payload, err := readMsg(bufio.NewReader(bytes.NewReader(tc.in)))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil || typ != tc.typ || string(payload) != tc.payload {
				t.Fatalf("readMsg = %d, %q, %v; want %d, %q", typ, payload, err, tc.typ, tc.payload)
			}
		})
	}
}

func TestDecodeRecord(t *testing.T) {
	for n := 0; n < 12; n++ {
		if _, _, err := decodeRecord(make([]byte, n)); err == nil {
			t.Fatalf("decodeRecord accepted a %d-byte body", n)
		}
	}
	for _, tc := range []struct {
		pos     wal.Pos
		payload []byte
	}{
		{wal.Pos{}, nil},
		{wal.Pos{Seg: 1, Off: 16}, []byte{1, 2, 3}},
		{wal.Pos{Seg: 1<<32 - 1, Off: 1<<63 - 1}, bytes.Repeat([]byte("r"), 1000)},
	} {
		pos, payload, err := decodeRecord(encodeRecord(tc.pos, tc.payload))
		if err != nil || pos != tc.pos || !bytes.Equal(payload, tc.payload) {
			t.Fatalf("round trip of %+v/%d bytes = %+v, %d bytes, %v", tc.pos, len(tc.payload), pos, len(payload), err)
		}
	}
}

func TestDecodeSnapFile(t *testing.T) {
	for _, body := range [][]byte{nil, {7}, {5, 0, 'a', 'b'}, {0xff, 0xff}} {
		if _, _, err := decodeSnapFile(body); err == nil {
			t.Fatalf("decodeSnapFile accepted % x", body)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"", nil},
		{"MANIFEST", []byte(`{"tables":[]}`)},
		{"papers.tbl", bytes.Repeat([]byte{0}, 8192)},
		{strings.Repeat("n", 1<<16-1), []byte("x")},
	} {
		name, data, err := decodeSnapFile(encodeSnapFile(tc.name, tc.data))
		if err != nil || name != tc.name || !bytes.Equal(data, tc.data) {
			t.Fatalf("round trip of %d-byte name = %d-byte name, %v", len(tc.name), len(name), err)
		}
	}
}

// FuzzReplicaFrame feeds arbitrary bytes through the replica's frame
// reader and both body decoders: every input must yield an error or a
// value, never a panic, and every decoded body must re-encode to the
// bytes it came from.
func FuzzReplicaFrame(f *testing.F) {
	var seed bytes.Buffer
	writeMsg(&seed, msgRecord, encodeRecord(wal.Pos{Seg: 1, Off: 40}, []byte("insert")))
	writeMsg(&seed, msgSnapFile, encodeSnapFile("MANIFEST", []byte("{}")))
	f.Add(seed.Bytes())
	f.Add(frame(msgRecord, maxMsg+1, nil))
	f.Add([]byte{msgRecord, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			// readMsg allocates the declared length (up to maxMsg)
			// before reading; keep the fuzzer's memory bounded by
			// stopping at a frame that declares more than the input.
			if hdr, err := r.Peek(5); err == nil &&
				binary.LittleEndian.Uint32(hdr[1:]) <= maxMsg &&
				int(binary.LittleEndian.Uint32(hdr[1:])) > len(data) {
				return
			}
			_, body, err := readMsg(r)
			if err != nil {
				if body != nil {
					t.Fatalf("readMsg returned a body with error %v", err)
				}
				return
			}
			if pos, payload, err := decodeRecord(body); err == nil {
				if !bytes.Equal(encodeRecord(pos, payload), body) {
					t.Fatalf("record % x does not re-encode", body)
				}
			}
			if name, file, err := decodeSnapFile(body); err == nil {
				if !bytes.Equal(encodeSnapFile(name, file), body) {
					t.Fatalf("image file frame % x does not re-encode", body)
				}
			}
		}
	})
}
