package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mogis/internal/core"
	"mogis/internal/faultpoint"
	"mogis/internal/layer"
	"mogis/internal/olap"
	"mogis/internal/pietql"
	"mogis/internal/qerr"
)

// queryRequest is the POST /query body. The same knobs can arrive as
// URL parameters (timeout_ms, max_rows, max_results, format) when the
// body is raw Piet-QL text instead of JSON.
type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMS bounds the whole pipeline (parse + geo + OLAP + MO)
	// wall-clock; it becomes both a request-context deadline and the
	// core.Budget timeout. 0 = server default.
	TimeoutMS int64 `json:"timeout_ms"`
	// MaxRows / MaxResults are the core.Budget resource caps
	// (0 = unlimited).
	MaxRows    int64 `json:"max_rows"`
	MaxResults int64 `json:"max_results"`
	// Format selects the response encoding: "json" (default), "csv"
	// or "text" (pietql.FormatOutcome rendering).
	Format string `json:"format"`
}

// queryResponse is the JSON shape of a successful /query.
type queryResponse struct {
	ID      uint64                 `json:"id"`
	GeoIDs  map[string][]layer.Gid `json:"geo_ids,omitempty"`
	MOCount int                    `json:"mo_count"`
	HasMO   bool                   `json:"has_mo"`
	MOGroup *olap.AggResult        `json:"mo_groups,omitempty"`
	Explain string                 `json:"explain,omitempty"`
	Text    string                 `json:"text"`
}

// maxQueryBody bounds the /query request body; Piet-QL text is tiny,
// so a megabyte of it is abuse, not a query.
const maxQueryBody = 1 << 20

// parseQueryRequest decodes the body (JSON object or raw Piet-QL
// text) and folds in URL parameters. Errors are client errors.
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxQueryBody))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	req := &queryRequest{}
	if ct := r.Header.Get("Content-Type"); ct == "application/json" {
		if err := json.Unmarshal(body, req); err != nil {
			return nil, fmt.Errorf("decoding JSON body: %w", err)
		}
	} else {
		req.Query = string(body)
	}
	q := r.URL.Query()
	if req.Query == "" {
		req.Query = q.Get("query")
	}
	for _, p := range []struct {
		name string
		dst  *int64
	}{
		{"timeout_ms", &req.TimeoutMS},
		{"max_rows", &req.MaxRows},
		{"max_results", &req.MaxResults},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("parameter %s: %q is not a non-negative integer", p.name, v)
			}
			*p.dst = n
		}
	}
	if f := q.Get("format"); f != "" {
		req.Format = f
	}
	switch req.Format {
	case "", "json", "csv", "text":
	default:
		return nil, fmt.Errorf("format %q: want json, csv or text", req.Format)
	}
	if req.Query == "" {
		return nil, errors.New("empty query: send Piet-QL text in the body or the query parameter")
	}
	return req, nil
}

// handleQuery runs one Piet-QL query under the request's budget and
// writes the outcome in the requested format. The endpoint wrapper
// owns admission, panic recovery, telemetry and error rendering.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, id uint64) error {
	req, err := parseQueryRequest(r)
	if err != nil {
		return &httpError{status: http.StatusBadRequest, code: "bad_request", err: err}
	}

	ctx := r.Context()
	b := core.Budget{MaxRows: req.MaxRows, MaxResults: req.MaxResults}
	if req.TimeoutMS > 0 {
		b.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	} else if s.cfg.QueryTimeout > 0 {
		b.Timeout = s.cfg.QueryTimeout
	}
	if b.Timeout > 0 {
		// The budget timeout only arms at engine entry; bound the whole
		// pipeline (parse + geo + OLAP) at the request level too.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
		defer cancel()
	}
	if b != (core.Budget{}) {
		ctx = core.WithBudget(ctx, b)
	}

	out, err := s.sys.Run(ctx, req.Query)
	if err != nil {
		return err
	}

	if err := faultpoint.Hit(faultpoint.ServerWrite); err != nil {
		s.met.writeFaults.Inc()
		return err
	}
	switch req.Format {
	case "csv":
		return writeQueryCSV(w, id, out)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, err := io.WriteString(w, pietql.FormatOutcome(out))
		return err
	default:
		return writeJSON(w, http.StatusOK, queryResponse{
			ID:      id,
			GeoIDs:  out.GeoIDs,
			MOCount: out.MOCount,
			HasMO:   out.HasMO,
			MOGroup: out.MOGroups,
			Explain: out.Explain,
			Text:    pietql.FormatOutcome(out),
		})
	}
}

// writeQueryCSV renders the outcome as section,key,value rows:
// geo rows (layer, id), the MO aggregate, and per-group counts.
func writeQueryCSV(w http.ResponseWriter, id uint64, out *pietql.Outcome) error {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"section", "key", "value"})
	_ = cw.Write([]string{"id", "", strconv.FormatUint(id, 10)})
	names := make([]string, 0, len(out.GeoIDs))
	for name := range out.GeoIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, gid := range out.GeoIDs[name] {
			_ = cw.Write([]string{"geo", name, strconv.FormatInt(int64(gid), 10)})
		}
	}
	if out.HasMO {
		_ = cw.Write([]string{"mo_count", "", strconv.Itoa(out.MOCount)})
	}
	if out.MOGroups != nil {
		for _, row := range out.MOGroups.Rows {
			_ = cw.Write([]string{"mo_group", fmt.Sprint(row.Group), strconv.FormatFloat(row.Value, 'g', -1, 64)})
		}
	}
	cw.Flush()
	return cw.Error()
}

// httpError pairs an error with the status and machine-readable code
// the endpoint wrapper should render. Errors without one go through
// statusFor classification.
type httpError struct {
	status int
	code   string
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// statusCodeClientClosed is nginx's 499: the client hung up before the
// response; no standard constant exists.
const statusCodeClientClosed = 499

// statusFor maps a typed pipeline error to its HTTP rendering. The
// table is the contract documented in DESIGN.md §15.
func statusFor(r *http.Request, err error) (status int, code string) {
	var he *httpError
	var be *qerr.BudgetError
	switch {
	case errors.As(err, &he):
		return he.status, he.code
	case qerr.IsParseError(err):
		return http.StatusBadRequest, "parse_error"
	case errors.As(err, &be):
		if be.Resource == "rows" {
			return http.StatusUnprocessableEntity, "budget_rows"
		}
		return http.StatusRequestEntityTooLarge, "budget_results"
	case qerr.IsCancel(err):
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusRequestTimeout, "deadline"
		}
		if r != nil && r.Context().Err() != nil {
			return statusCodeClientClosed, "client_closed_request"
		}
		return http.StatusServiceUnavailable, "cancelled"
	case qerr.IsPanic(err):
		return http.StatusInternalServerError, "panic"
	case faultpoint.IsFault(err):
		return http.StatusInternalServerError, "injected_fault"
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, "admission_queue_full"
	case errors.Is(err, errQueueWait):
		return http.StatusServiceUnavailable, "admission_wait_timeout"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, errSubsAtLimit):
		return http.StatusServiceUnavailable, "subscriber_limit"
	}
	return http.StatusUnprocessableEntity, "eval_error"
}

// writeJSON writes v with the given status. The Content-Type must be
// set before the status line goes out.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
