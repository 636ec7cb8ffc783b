package binproto

import (
	"bufio"
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// Server serves the binary protocol from an engine. One goroutine per
// connection, requests on a connection answered in order — the protocol is
// fleet-internal, and its clients (the router's replica pool, rapidload)
// hold a connection per concurrent stream instead of multiplexing.
type Server struct {
	// Eng is the engine requests are scored on; shared with the HTTP
	// frontend when both are mounted, so both speak for the same models,
	// metrics and admission limits.
	Eng *engine.Engine
	// Log receives operational messages; defaults to log.Printf.
	Log func(format string, args ...any)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// idleTimeout bounds how long a connection may sit between requests,
// matching the HTTP frontend's idle timeout.
const idleTimeout = 60 * time.Second

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Serve accepts connections on ln until the listener is closed (Shutdown
// closes it). It returns nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown waits for in-flight connections to finish their current request,
// up to ctx's deadline, then force-closes the stragglers. The caller closes
// the listener first (Shutdown does not own it).
func (s *Server) Shutdown(ctx context.Context) {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// serveConn answers request frames until the peer hangs up or desyncs.
// Engine-level failures (shed, bad input, unknown tenant) answer an error
// frame and keep the connection; framing failures answer one error frame
// and close — after a desync nothing on the stream can be trusted.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var rbuf, wbuf, payload []byte
	met := s.Eng.Metrics()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		typ, body, err := readFrame(br, &rbuf)
		if err != nil {
			return // peer closed, timed out or sent an oversized frame
		}
		s.mu.Lock()
		draining := s.closed
		s.mu.Unlock()
		if draining {
			payload = appendError(payload[:0], CodeDraining, "draining, replica going away", 1)
			_ = writeFrame(conn, &wbuf, frameError, payload)
			return
		}
		if typ != frameRerankRequest {
			payload = appendError(payload[:0], CodeBadInput, "unexpected frame type", 0)
			_ = writeFrame(conn, &wbuf, frameError, payload)
			return
		}
		start := time.Now()
		req, derr := DecodeRequest(body)
		if derr != nil {
			// Mirror the HTTP frontend's decode-failure accounting so the
			// request totals cover both frontends identically.
			met.Requests.Inc()
			met.BadInput.Inc()
			met.Responses.With("bad_input").Inc()
			met.Request.ObserveDuration(time.Since(start))
			payload = appendError(payload[:0], CodeBadInput, derr.Error(), 0)
			_ = writeFrame(conn, &wbuf, frameError, payload)
			return
		}
		resp, rerr := s.Eng.Rerank(context.Background(), req)
		if rerr != nil {
			code, msg, retry := mapEngineError(rerr)
			if code == "" {
				return // caller-side cancel; nothing to answer
			}
			payload = appendError(payload[:0], code, msg, retry)
			if writeFrame(conn, &wbuf, frameError, payload) != nil {
				return
			}
			continue
		}
		payload = AppendResponse(payload[:0], &resp)
		_ = conn.SetWriteDeadline(time.Now().Add(idleTimeout))
		if err := writeFrame(conn, &wbuf, frameRerankResponse, payload); err != nil {
			s.logf("binproto: write response: %v", err)
			return
		}
	}
}

// mapEngineError converts the engine's typed errors to wire codes; an empty
// code means "answer nothing" (canceled).
func mapEngineError(err error) (code, msg string, retryAfterS int) {
	var bad *engine.BadInputError
	var shed *engine.ShedError
	var tenant *engine.UnknownTenantError
	switch {
	case errors.Is(err, engine.ErrCanceled):
		return "", "", 0
	case errors.As(err, &bad):
		return CodeBadInput, bad.Msg, 0
	case errors.As(err, &tenant):
		return codeUnknownTenant, err.Error(), 0
	case errors.As(err, &shed):
		if shed.Reason == engine.ShedDraining {
			return CodeDraining, "draining, replica going away", shed.RetryAfterS
		}
		return CodeOverloaded, "overloaded, retry later", shed.RetryAfterS
	default:
		return codeInternal, "internal error", 0
	}
}
