package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// maxBodyPresize caps what a Content-Length may reserve before a byte of the
// body has arrived, and what the body pool keeps: a header alone must not
// buy megabytes. A 20-item request is ≈9 KB; longer bodies grow as they come.
const maxBodyPresize = 64 << 10

// ReadBody reads r until EOF, as io.ReadAll would, and returns what it read
// even on error. contentLength (-1 when unknown) sizes the buffer up front,
// up to maxBodyPresize, so a body that keeps its word is read without being
// regrown and copied; buf's storage is reused when it is large enough.
func ReadBody(r io.Reader, contentLength int64, buf []byte) ([]byte, error) {
	dst := buf[:0]
	// One byte past the length lets the final Read report EOF in place.
	if n := max(512, min(contentLength, maxBodyPresize-1)+1); int64(cap(dst)) < n {
		dst = make([]byte, 0, n)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return dst, err
		}
	}
}

// bodyPool recycles request-body buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody reads the request body, capped at MaxBodyBytes, into a pooled
// buffer and decodes it: with the engine's schema decoder (fast) when that
// takes the body, with encoding/json into v otherwise. encoding/json sees the
// bytes — and, when the read itself failed, the error after them — exactly as
// it did when it read the body directly, so every rejection, status code and
// message is its own. Nothing fast produces may alias the buffer, which is
// back in the pool when this returns.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, fast func(body []byte) bool) error {
	buf := bodyPool.Get().(*[]byte)
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, *buf)
	defer func() {
		if cap(body) <= maxBodyPresize {
			*buf = body
			bodyPool.Put(buf)
		}
	}()
	if err == nil && fast(body) {
		return nil
	}
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		src = io.MultiReader(src, failedReader{err})
	}
	return json.NewDecoder(src).Decode(v)
}

// failedReader replays a body read error to the fallback decoder.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }
