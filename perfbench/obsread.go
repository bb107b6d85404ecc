package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"

	"searchspace/internal/service"
)

// This file reads the counters the program exports (/v1/stats and
// /metrics) and joins the benchmark's own client and handler spans into
// per-route HTTP metrics.

func fetchStats(ctx context.Context, c *client) (service.MetricsSnapshot, error) {
	var snap service.MetricsSnapshot
	_, err := c.call(ctx, "stats", http.MethodGet, "/v1/stats", nil, &snap)
	return snap, err
}

// fetchProm reads the Prometheus exposition into series -> value, the
// series written as in the exposition (name{labels}).
func fetchProm(ctx context.Context, c *client) (map[string]float64, error) {
	var text []byte
	if _, err := c.call(ctx, "metrics", http.MethodGet, "/metrics", nil, &text); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histMeanMs is the mean, in milliseconds, of the observations a
// Prometheus histogram series gained between two scrapes; 0 if none.
func histMeanMs(before, after map[string]float64, name, labels string) float64 {
	n := after[name+"_count"+labels] - before[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / n * 1000
}

// putPhaseMetrics records the registry's build-phase and the store's IO
// means over the timed phase.
func putPhaseMetrics(m map[string]float64, before, after map[string]float64) {
	for _, ph := range []string{"build", "restrict", "superset_probe", "bounds", "write_through", "restore_decode", "queue_wait"} {
		m["registry.phase_ms."+ph] = histMeanMs(before, after, "spaced_build_phase_duration_seconds", `{phase="`+ph+`"}`)
	}
	m["store.put_ms"] = histMeanMs(before, after, "spaced_store_io_seconds", `{op="put"}`)
	m["store.get_ms"] = histMeanMs(before, after, "spaced_store_io_seconds", `{op="get"}`)
}

// putRegistryMetrics records the registry's counter changes over the
// timed phase.
func putRegistryMetrics(m map[string]float64, before, after service.MetricsSnapshot) {
	b, a := before.Cache, after.Cache
	m["registry.builds"] = float64(a.Builds - b.Builds)
	m["registry.restricts"] = float64(a.Restricts - b.Restricts)
	m["registry.restores"] = float64(a.Restores - b.Restores)
	m["registry.demotions"] = float64(a.Demotions - b.Demotions)
	hits := float64(a.Hits - b.Hits + a.Joins - b.Joins + a.Restores - b.Restores)
	misses := float64(a.Misses - b.Misses)
	if hits+misses > 0 {
		m["registry.hit_ratio"] = hits / (hits + misses)
	}
	if misses > 0 {
		m["registry.restrict_share"] = float64(a.Restricts-b.Restricts) / misses
	}
}

// putHTTPMetrics joins each traced request's client span ("http.<route>")
// with its handler span through the request id, and records per route
// the median round trip, handler time, and their difference, the
// transport. Only requests sent at or after from (ns since the run
// began) count.
func putHTTPMetrics(out *outcome, spans []span, from int64) {
	handler := map[string]float64{}
	for _, s := range spans {
		if s.Name == "service.handler" {
			handler[s.RequestID] = s.ms()
		}
	}
	rtt, hnd, transport := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		route, ok := strings.CutPrefix(s.Name, "http.")
		if !ok || s.Start < from {
			continue
		}
		h, ok := handler[s.RequestID]
		if !ok {
			continue
		}
		rtt[route] = append(rtt[route], s.ms())
		hnd[route] = append(hnd[route], h)
		transport[route] = append(transport[route], s.ms()-h)
	}
	for route := range rtt {
		out.metrics["http.rtt_ms."+route] = median(rtt[route])
		out.metrics["service.handler_ms."+route] = median(hnd[route])
		out.metrics["http.transport_ms."+route] = median(transport[route])
		out.samples["http."+route] = len(rtt[route])
	}
}
