// Package replica implements WAL log shipping: a primary-side
// Shipper that streams committed write-ahead-log records (plus a
// catalog checkpoint image for bootstrap) to any number of replicas
// over a length-framed TCP protocol, and a replica-side Applier that
// tails the stream and feeds every record through the relation
// layer's idempotent apply path.
//
// The conversation is simple and one-directional after the handshake:
//
//	replica → primary   HELLO {pos | null}
//	primary → replica   [SNAPBEGIN, SNAPFILE*, SNAPEND {pos}]   (image, when pos is null or pruned)
//	primary → replica   (HEARTBEAT | RECORD)*                   (endless tail)
//
// Every RECORD carries the primary position one past itself — the
// exact position to resume from once it is applied — so reconnection
// is a new HELLO with the last applied cursor and the stream continues
// without loss or duplication.
package replica

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"hazy/internal/wal"
)

// Message types.
const (
	msgHello     = byte(1) // replica → primary: JSON hello
	msgSnapBegin = byte(2) // primary → replica: checkpoint image follows
	msgSnapFile  = byte(3) // one image file: [2B name len][name][data]
	msgSnapEnd   = byte(4) // JSON {pos}: image complete, stream resumes at pos
	msgRecord    = byte(5) // [4B seg][8B off][payload]; seg/off = resume position
	msgHeartbeat = byte(6) // JSON heartbeat: primary tip + clock + segment size
	msgErr       = byte(7) // UTF-8 error text; the connection is dead after it
)

// maxMsg caps a frame: segments default to 4 MiB, and image files are
// bounded by table size — 1 GiB is far beyond anything sane and small
// enough to reject corrupt length prefixes before allocating.
const maxMsg = 1 << 30

// hello is the replica's opening message. A nil Pos requests a full
// checkpoint image; otherwise the primary resumes the stream at Pos
// (or falls back to an image if Pos was pruned).
type hello struct {
	Pos *wal.Pos `json:"pos"`
}

// snapEnd closes an image: the replica must resume the stream at Pos.
type snapEnd struct {
	Pos wal.Pos `json:"pos"`
}

// heartbeat advertises the primary's committed tip so the replica can
// measure lag even when no records flow.
type heartbeat struct {
	Pos      wal.Pos `json:"pos"`       // committed end of the primary's log
	Nanos    int64   `json:"nanos"`     // primary wall clock at send time
	SegBytes int64   `json:"seg_bytes"` // primary segment size (byte-lag estimates)
}

// writeMsg frames and writes one message: [1B type][4B len LE][payload].
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	hdr := [5]byte{typ}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeJSON frames a JSON-bodied message.
func writeJSON(w io.Writer, typ byte, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeMsg(w, typ, data)
}

// readMsg reads one framed message.
func readMsg(r *bufio.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxMsg {
		return 0, nil, fmt.Errorf("replica: %d-byte message exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// encodeSnapFile frames one image file: [2B name len][name][data].
func encodeSnapFile(name string, data []byte) []byte {
	buf := make([]byte, 2+len(name)+len(data))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(name)))
	copy(buf[2:], name)
	copy(buf[2+len(name):], data)
	return buf
}

func decodeSnapFile(body []byte) (string, []byte, error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("replica: image file frame of %d bytes", len(body))
	}
	n := int(binary.LittleEndian.Uint16(body[0:2]))
	if len(body) < 2+n {
		return "", nil, fmt.Errorf("replica: image file name of %d bytes overruns frame", n)
	}
	return string(body[2 : 2+n]), body[2+n:], nil
}
