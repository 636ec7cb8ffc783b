package serve

import (
	"context"
	"fmt"
	"net"

	"repro/internal/serve/binproto"
)

// serveBinary mounts the fleet-internal binary frontend (binproto) on ln,
// backed by the same engine as the HTTP routes — one set of models, limits
// and metrics regardless of which protocol a request arrived on. The
// returned stop function closes the listener and drains the protocol's
// connections within ctx's deadline; fatal serve errors surface on errc so
// Serve fails the same way it would for the HTTP listener.
func (s *Server) serveBinary(ln net.Listener, errc chan<- error) func(context.Context) {
	bs := &binproto.Server{Eng: s.Engine, Log: s.Log}
	go func() {
		if err := bs.Serve(ln); err != nil {
			errc <- fmt.Errorf("serve: binary frontend: %w", err)
		}
	}()
	return func(ctx context.Context) {
		ln.Close()
		bs.Shutdown(ctx)
	}
}
