package main

import (
	"strconv"
	"strings"

	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// The request stream: request i of a workload is a pure function of
// (seed, i), so equal seeds replay byte-identical traffic.

// windowWidths are the DURING widths in minutes. Start minutes range
// over [0, 90−w], so every window closes by 07:30 and rows ingested
// later (t ≥ 07:40) never change an answer.
var windowWidths = []int{10, 30, 60}

const lastWindowMinute = 90

func window(r uint64) string {
	w := windowWidths[r%3]
	start := int((r >> 8) % uint64(lastWindowMinute-w+1))
	lo := epoch + timedim.Instant(start*timedim.SecondsPerMinute)
	hi := lo + timedim.Instant(w*timedim.SecondsPerMinute)
	return " DURING '" + lo.String() + "' TO '" + hi.String() + "'"
}

func moPart(r uint64, sampled bool, groupBy string) string {
	s := "| | MOVING COUNT(*) FROM " + table + " WHERE PASSES THROUGH layer.Ln" + window(r)
	if sampled {
		s += " SAMPLED ONLY"
	}
	if groupBy != "" {
		s += " GROUP BY " + groupBy
	}
	return s
}

// accelQuery is the read_accel mix: 20 % geometric-only Section-5
// query, 40 % sampled count, 40 % interpolated count, regions uniform —
// the shapes the engine's caches, grid and temporal index answer.
func accelQuery(seed int64, i int) string {
	r := mix(seed, i)
	kind := r % 100
	if kind < 20 {
		return regionGeo["s5"]
	}
	region := regionNames[(r>>8)%3]
	return regionGeo[region] + moPart(r>>16, kind < 60, "")
}

// groupedQuery is the read_grouped mix: the Remark-1 shape, GROUP BY
// hour (10 % day), sampled and interpolated evenly, regions
// s5:school:river = 3:1:1 so the median stays in the light mode and
// the tail in the heavy one.
func groupedQuery(seed int64, i int) string {
	r := mix(seed, i)
	region := "s5"
	switch r % 5 {
	case 3:
		region = "school"
	case 4:
		region = "river"
	}
	groupBy := "hour"
	if (r>>8)%10 == 0 {
		groupBy = "day"
	}
	return regionGeo[region] + moPart(r>>24, (r>>16)&1 == 0, groupBy)
}

// batchBody renders ingest batch i of the stream as oid,t,x,y lines.
func batchBody(stream []moft.Tuple, i int) string {
	var sb strings.Builder
	for _, tp := range stream[i*batchRows : (i+1)*batchRows] {
		sb.WriteString(strconv.FormatInt(int64(tp.Oid), 10))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatInt(int64(tp.T), 10))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(tp.X, 'g', -1, 64))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(tp.Y, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	return sb.String()
}
