package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of a server's /metrics endpoint: the per-layer
// counts come from the instruments operators already see.
type scrape struct {
	series []series
}

type series struct {
	name   string // metric name, without labels
	labels string // the text between the braces, "" when there are none
	value  float64
}

// parseMetrics reads the Prometheus text format.
func parseMetrics(r io.Reader) (*scrape, error) {
	sc := &scrape{}
	lines := bufio.NewScanner(r)
	lines.Buffer(make([]byte, 1<<16), 1<<22)
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q", line)
		}
		id := line[:sp]
		s := series{name: id, value: v}
		if open := strings.IndexByte(id, '{'); open >= 0 && strings.HasSuffix(id, "}") {
			s.name, s.labels = id[:open], id[open+1:len(id)-1]
		}
		sc.series = append(sc.series, s)
	}
	return sc, lines.Err()
}

// scrapeChild reads a child's /metrics.
func scrapeChild(hc *http.Client, c *child) (*scrape, error) {
	res, err := hc.Get(c.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", c.name, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", c.name, res.StatusCode)
	}
	return parseMetrics(res.Body)
}

// sum adds every series of the metric whose labels contain all of the
// given `key="value"` fragments. A nil scrape sums to 0.
func (sc *scrape) sum(name string, labelParts ...string) float64 {
	if sc == nil {
		return 0
	}
	var total float64
next:
	for _, s := range sc.series {
		if s.name != name {
			continue
		}
		for _, part := range labelParts {
			if !strings.Contains(s.labels, part) {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// scrapeDelta is the change between two readings of the same servers.
type scrapeDelta struct {
	before, after []*scrape
}

// sum is the metric's increase summed over all servers.
func (d scrapeDelta) sum(name string, labelParts ...string) float64 {
	var total float64
	for i := range d.after {
		total += d.after[i].sum(name, labelParts...)
		if i < len(d.before) {
			total -= d.before[i].sum(name, labelParts...)
		}
	}
	return total
}

// last is the metric's latest value summed over all servers (gauges).
func (d scrapeDelta) last(name string, labelParts ...string) float64 {
	var total float64
	for _, sc := range d.after {
		total += sc.sum(name, labelParts...)
	}
	return total
}

// ratio divides two increases, 0 when the denominator did not move.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
