package binproto

import (
	"encoding/binary"
	"fmt"
	"io"
)

// writeFrame writes one frame: u32 LE payload length, u8 type, payload.
// scratch, when non-nil, is reused for the header+payload assembly so a
// steady-state connection writes frames without allocating.
func writeFrame(w io.Writer, scratch *[]byte, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("binproto: frame payload %d exceeds %d", len(payload), maxFrame)
	}
	buf := (*scratch)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	*scratch = buf
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame into scratch (grown as needed, reused across
// calls) and returns its type and payload. The header is read into scratch
// too, so a steady-state connection reads frames without allocating. The
// payload aliases scratch and is valid until the next readFrame on the same
// scratch.
func readFrame(r io.Reader, scratch *[]byte) (byte, []byte, error) {
	if cap(*scratch) < headerSize {
		*scratch = make([]byte, headerSize)
	}
	hdr := (*scratch)[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n, typ := binary.LittleEndian.Uint32(hdr[:4]), hdr[4]
	if n > maxFrame {
		return 0, nil, fmt.Errorf("binproto: frame payload %d exceeds %d", n, maxFrame)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("binproto: truncated payload: %w", err)
	}
	return typ, payload, nil
}
