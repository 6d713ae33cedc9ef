package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"stablerank"
)

// statusError is an error with an HTTP status; handlers return it to pick
// the response code without the router knowing endpoint specifics.
type statusError struct {
	code int
	msg  string
}

func (e statusError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return statusError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return statusError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's conventional code for a request whose
// client went away before the response; kept distinct from 504 so timeout
// dashboards are not polluted by client hang-ups.
const statusClientClosedRequest = 499

// statusOf maps an error to its HTTP status code: explicit statusErrors keep
// their code, a fired per-request deadline becomes 504, a client-initiated
// cancellation becomes 499, infeasible rankings become 422, everything else
// is a 500.
func statusOf(err error) int {
	var se statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, stablerank.ErrInfeasibleRanking):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// statusWriter records the status code written to the wrapped ResponseWriter
// for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so the NDJSON streaming endpoint can
// push each line to the client as it is produced; without this promotion
// the middleware wrapper would hide the underlying http.Flusher.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController users.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// clientContextKey carries a request's context from before the per-request
// deadline was applied (see clientContext).
type clientContextKey struct{}

// clientContext returns r's context without the per-request deadline: it
// ends only when the client disconnects or the server shuts down. The drift
// subscription uses it, because it stays open until the client leaves.
func clientContext(r *http.Request) context.Context {
	if ctx, ok := r.Context().Value(clientContextKey{}).(context.Context); ok {
		return ctx
	}
	return r.Context()
}

// wrap applies the service middleware stack to next: panic recovery, the
// per-request timeout (wired into the request context, which the facade
// plumbs into its sampling loops; clientContext recovers the context
// without it), an in-flight request gauge, and request logging.
func (s *Server) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		s.inflightRequests.Add(1)
		defer s.inflightRequests.Add(-1)
		defer func() {
			if rec := recover(); rec != nil {
				if sw.status == 0 {
					writeError(sw, fmt.Errorf("internal panic: %v", rec))
				}
				s.logf("panic %s %s: %v", r.Method, r.URL.Path, rec)
				return
			}
			s.logf("%s %s -> %d (%s)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
		}()
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(context.WithValue(r.Context(), clientContextKey{}, r.Context()), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, r)
	})
}
