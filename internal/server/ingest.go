package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// maxIngestBody bounds one /ingest batch (~8 MiB of CSV is on the
// order of 200k position updates — far past any sane batch).
const maxIngestBody = 8 << 20

// ingestResponse is the JSON shape of a successful /ingest.
type ingestResponse struct {
	ID    uint64 `json:"id"`
	Table string `json:"table"`
	// Rows is the number of position updates applied: the batch
	// without rows that repeat a stored sample or an earlier row.
	Rows int `json:"rows"`
	// Events is the number of geofence events the batch published.
	Events int `json:"events"`
}

// handleIngest streams position updates — CSV lines "oid,t,x,y" —
// into the named MOFT. The table is replaced by a new version that
// shares every object run the batch does not touch (in-flight queries
// keep reading the old immutable version; the next query derives the
// engine's caches for the new one), and each applied row is folded
// into the geofence hub. A batch that would make the MOFT stop being
// a function, or rewrite an object's past, is rejected whole with a
// typed 422.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, id uint64) error {
	table := r.URL.Query().Get("table")
	if table == "" {
		return &httpError{status: http.StatusBadRequest, code: "bad_request",
			err: fmt.Errorf("missing table parameter")}
	}

	var rows []moft.Tuple
	var lines []int // per row, its line in the body
	sc := bufio.NewScanner(http.MaxBytesReader(nil, r.Body, maxIngestBody))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		tp, err := parseIngestLine(text)
		if err != nil {
			return &httpError{status: http.StatusBadRequest, code: "bad_request",
				err: fmt.Errorf("line %d: %w", line, err)}
		}
		rows = append(rows, tp)
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return &httpError{status: http.StatusBadRequest, code: "bad_request",
			err: fmt.Errorf("reading body: %w", err)}
	}
	if len(rows) == 0 {
		return &httpError{status: http.StatusBadRequest, code: "bad_request",
			err: fmt.Errorf("empty batch: no position updates in body")}
	}

	applied, events, err := s.applyIngest(table, rows)
	var ae *moft.AppendError
	if errors.As(err, &ae) {
		s.met.ingestRejected.Inc()
		code := "out_of_order"
		if errors.Is(ae, moft.ErrConflictingSample) {
			code = "conflicting_sample"
		}
		return &httpError{status: http.StatusUnprocessableEntity, code: code,
			err: fmt.Errorf("line %d: oid %d at t %d: %w", lines[ae.Row], ae.Tuple.Oid, ae.Tuple.T, ae.Err)}
	}
	if err != nil {
		return err
	}
	s.met.ingestRows.Add(int64(applied))
	return writeJSON(w, http.StatusOK, ingestResponse{
		ID: id, Table: table, Rows: applied, Events: events,
	})
}

// parseIngestLine parses one "oid,t,x,y" update.
func parseIngestLine(text string) (moft.Tuple, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 4 {
		return moft.Tuple{}, fmt.Errorf("want oid,t,x,y, got %d fields", len(parts))
	}
	oid, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return moft.Tuple{}, fmt.Errorf("oid: %w", err)
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return moft.Tuple{}, fmt.Errorf("t: %w", err)
	}
	x, err := parseCoord("x", parts[2])
	if err != nil {
		return moft.Tuple{}, err
	}
	y, err := parseCoord("y", parts[3])
	if err != nil {
		return moft.Tuple{}, err
	}
	return moft.Tuple{Oid: moft.Oid(oid), T: timedim.Instant(ts), X: x, Y: y}, nil
}

// parseCoord parses one coordinate, rejecting NaN and ±Inf: a single
// non-finite position poisons every extent derived from the table (the
// sample grid, the prefilter, the geofence lookups).
func parseCoord(name, field string) (float64, error) {
	field = strings.TrimSpace(field)
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s: non-finite coordinate %q", name, field)
	}
	return v, nil
}

// applyIngest installs the batch: derive the table's next version
// (moft.Table.WithAppended, O(batch) plus the run headers), publish it
// in one step by swapping it into the model context, then publish
// geofence transitions for the applied rows (an object's first row
// since start diffs against its last sample in the old version). The engine's caches
// belong to a table version, so publishing is the invalidation: the
// first query of the new version derives them from the old version's,
// in O(batch), and the handler does no cache work at all. Batches are
// serialized by ingestMu — each derives from a stable "current"
// version — while queries keep running against whichever version they
// started with. A rejected batch, or one whose every row repeats a
// stored sample, changes nothing.
func (s *Server) applyIngest(table string, rows []moft.Tuple) (applied, events int, err error) {
	s.ingestMu.Lock()
	old, err := s.sys.Ctx.Table(table)
	if err != nil {
		s.ingestMu.Unlock()
		return 0, 0, &httpError{status: http.StatusNotFound, code: "unknown_table",
			err: fmt.Errorf("table %q: %w", table, err)}
	}
	next, err := old.WithAppended(rows)
	if err != nil {
		s.ingestMu.Unlock()
		return 0, 0, fmt.Errorf("table %q: %w", table, err)
	}
	add := old.Applied(rows)
	if next != old {
		s.sys.Ctx.AddTable(next)
	}
	s.ingestMu.Unlock()

	if s.hub != nil {
		for _, tp := range add {
			events += s.hub.observe(table, old, tp)
		}
	}
	return len(add), events, nil
}
