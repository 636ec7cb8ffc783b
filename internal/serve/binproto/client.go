package binproto

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// Client is one binary-protocol connection. Rerank calls are serialized on
// the connection (the protocol answers in order); callers that want
// concurrency hold a Client per in-flight stream, which is how the load
// generator (cmd/rapidload) and the repository benchmark (bench/) shape
// their connections. The router still speaks HTTP to its replicas.
// Encode and read buffers are reused across calls, so a steady-state client
// allocates only what the decoded response itself needs.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // frame assembly
	pbuf []byte // payload assembly
	rbuf []byte // frame read
}

// Dial connects to a binary-protocol listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// newClient wraps an established connection (tests use net.Pipe or an
// in-process listener).
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Rerank sends one request and waits for its answer. Engine-level failures
// come back as *RemoteError; transport failures as plain errors (the
// connection is then unusable). ctx's deadline bounds the round trip.
func (c *Client) Rerank(ctx context.Context, req *engine.Request) (engine.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Time{}
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return engine.Response{}, err
	}
	c.pbuf = AppendRequest(c.pbuf[:0], req)
	if err := writeFrame(c.conn, &c.wbuf, frameRerankRequest, c.pbuf); err != nil {
		return engine.Response{}, fmt.Errorf("binproto: send request: %w", err)
	}
	typ, payload, err := readFrame(c.br, &c.rbuf)
	if err != nil {
		return engine.Response{}, fmt.Errorf("binproto: read response: %w", err)
	}
	switch typ {
	case frameRerankResponse:
		return DecodeResponse(payload)
	case frameError:
		re, derr := decodeError(payload)
		if derr != nil {
			return engine.Response{}, derr
		}
		return engine.Response{}, re
	default:
		return engine.Response{}, fmt.Errorf("binproto: unexpected frame type %d", typ)
	}
}
