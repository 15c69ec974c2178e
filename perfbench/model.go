package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/relation"
)

// model is the correctness model: plain Go aggregates over the benchmark's
// own generated and ingested rows, kept per month so any month selection
// answers in O(months × groups). Rows are only ever inserted, so per-month
// MAX, MIN, distinct sets and top-k lists are exact.
type model struct {
	// sum and cnt per cube chart, month and group index.
	sum, cnt [4][months][]int64
	hi       [months][]int64 // MAX(revenue) per month and region (0 = none)
	lo       [months][]int64 // MIN(revenue) per month and segment (0 = none)
	reach    [months][weekdays]uint8
	top      [months][]sale // per-month top-k, revenue desc, id asc
	idSum    [months]int64
}

// groupCounts are the group counts of the cube charts, in cubeCharts order.
var groupCounts = [4]int{len(regions), len(segments), len(years), weekdays}

func newModel() *model {
	m := &model{}
	for c := range m.sum {
		for mo := 0; mo < months; mo++ {
			m.sum[c][mo] = make([]int64, groupCounts[c])
			m.cnt[c][mo] = make([]int64, groupCounts[c])
		}
	}
	for mo := 0; mo < months; mo++ {
		m.hi[mo] = make([]int64, len(regions))
		m.lo[mo] = make([]int64, len(segments))
	}
	return m
}

func (m *model) add(rows []sale) {
	for _, r := range rows {
		mo := r.month - 1
		for c, g := range [4]int{r.region, r.segment, r.year, r.weekday - 1} {
			m.sum[c][mo][g] += r.revenue
			m.cnt[c][mo][g]++
		}
		m.hi[mo][r.region] = max(m.hi[mo][r.region], r.revenue)
		if lo := m.lo[mo][r.segment]; lo == 0 || r.revenue < lo {
			m.lo[mo][r.segment] = r.revenue
		}
		m.reach[mo][r.weekday-1] |= 1 << r.region
		m.top[mo] = insertTop(m.top[mo], r)
		m.idSum[mo] += r.id
	}
}

// ranksBefore orders the leaderboard: revenue descending, then id.
func ranksBefore(a, b sale) bool {
	return a.revenue > b.revenue || (a.revenue == b.revenue && a.id < b.id)
}

func insertTop(top []sale, r sale) []sale {
	if len(top) == topK && !ranksBefore(r, top[topK-1]) {
		return top
	}
	i := sort.Search(len(top), func(i int) bool { return ranksBefore(r, top[i]) })
	if len(top) < topK {
		top = append(top, sale{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = r
	return top
}

// groupName is a chart's group key as the engine prints it.
func groupName(chart, g int) string {
	switch chart {
	case 0:
		return regions[g]
	case 1:
		return segments[g]
	case 2:
		return strconv.FormatInt(years[g], 10)
	default:
		return strconv.Itoa(g + 1)
	}
}

// chart is one expected relation: each row rendered as a string, as a set
// (every chart's rows are distinct by their group key).
type chart map[string]bool

// cubeCharts answers the four cube charts for a month selection.
func (m *model) cubeCharts(sel uint16) map[string]chart {
	out := make(map[string]chart, len(cubeCharts))
	for c, def := range cubeCharts {
		ch := chart{}
		for g := 0; g < groupCounts[c]; g++ {
			var total, n int64
			for mo := 0; mo < months; mo++ {
				if sel&(1<<mo) != 0 {
					total += m.sum[c][mo][g]
					n += m.cnt[c][mo][g]
				}
			}
			if n > 0 {
				ch[fmt.Sprintf("%s|%d|%d", groupName(c, g), total, n)] = true
			}
		}
		out[def.view] = ch
	}
	return out
}

// regionTotals is the cube program's bar chart input: revenue per region.
func (m *model) regionTotals(sel uint16) []int64 {
	out := make([]int64, len(regions))
	for mo := 0; mo < months; mo++ {
		if sel&(1<<mo) != 0 {
			for g := range out {
				out[g] += m.sum[0][mo][g]
			}
		}
	}
	return out
}

// leaderboard is the selection's top-k, merged from the per-month lists.
func (m *model) leaderboard(sel uint16) []sale {
	var all []sale
	for mo := 0; mo < months; mo++ {
		if sel&(1<<mo) != 0 {
			all = append(all, m.top[mo]...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return ranksBefore(all[i], all[j]) })
	return all[:min(len(all), topK)]
}

// fusedCharts answers the fused program's charts for a month selection;
// RANKED carries ranks 1..k in leaderboard order.
func (m *model) fusedCharts(sel uint16) map[string]chart {
	hi, lo, reach := chart{}, chart{}, chart{}
	for g := range regions {
		var v int64
		for mo := 0; mo < months; mo++ {
			if sel&(1<<mo) != 0 {
				v = max(v, m.hi[mo][g])
			}
		}
		if v > 0 {
			hi[fmt.Sprintf("%s|%d", regions[g], v)] = true
		}
	}
	for g := range segments {
		var v int64
		for mo := 0; mo < months; mo++ {
			if l := m.lo[mo][g]; sel&(1<<mo) != 0 && l > 0 && (v == 0 || l < v) {
				v = l
			}
		}
		if v > 0 {
			lo[fmt.Sprintf("%s|%d", segments[g], v)] = true
		}
	}
	for w := 0; w < weekdays; w++ {
		var set uint8
		for mo := 0; mo < months; mo++ {
			if sel&(1<<mo) != 0 {
				set |= m.reach[mo][w]
			}
		}
		if set != 0 {
			reach[fmt.Sprintf("%d|%d", w+1, popcount(set))] = true
		}
	}
	ranked := chart{}
	for i, r := range m.leaderboard(sel) {
		ranked[fmt.Sprintf("%d|%d|%d", r.id, r.revenue, i+1)] = true
	}
	return map[string]chart{"HI_region": hi, "LO_segment": lo, "REACH_weekday": reach, "RANKED": ranked}
}

func popcount(b uint8) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// relationChart renders an engine relation in the model's row format.
func relationChart(rel *relation.Relation) chart {
	ch := make(chart, len(rel.Rows))
	for _, row := range rel.Rows {
		var key []byte
		for i, v := range row {
			if i > 0 {
				key = append(key, '|')
			}
			if s, isInt := v.AsInt(); isInt && v.Kind() == relation.KindInt {
				key = strconv.AppendInt(key, s, 10)
			} else {
				key = append(key, v.AsString()...)
			}
		}
		ch[string(key)] = true
	}
	return ch
}

// diffCharts names the first difference between expected and got.
func diffCharts(view string, want, got chart) error {
	for k := range want {
		if !got[k] {
			return fmt.Errorf("%s: missing row %s (got %d rows, want %d)", view, k, len(got), len(want))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("%s: unexpected row %s", view, k)
		}
	}
	return nil
}

// salesFingerprint summarizes the Sales rows per month (count, revenue and
// id sums): equal fingerprints mean no ingested row went missing.
func (m *model) salesFingerprint() string {
	var b []byte
	for mo := 0; mo < months; mo++ {
		var n, rev int64
		for g := range regions {
			n += m.cnt[0][mo][g]
			rev += m.sum[0][mo][g]
		}
		b = fmt.Appendf(b, "%d:%d/%d/%d ", mo+1, n, rev, m.idSum[mo])
	}
	return string(b)
}

// relationFingerprint is salesFingerprint computed from the engine's Sales.
func relationFingerprint(rel *relation.Relation) string {
	var n, rev, ids [months]int64
	for _, row := range rel.Rows {
		mo, _ := row[4].AsInt()
		r, _ := row[6].AsInt()
		id, _ := row[0].AsInt()
		if mo < 1 || mo > months {
			return fmt.Sprintf("row %v has month %d", row, mo)
		}
		n[mo-1]++
		rev[mo-1] += r
		ids[mo-1] += id
	}
	var b []byte
	for mo := 0; mo < months; mo++ {
		b = fmt.Appendf(b, "%d:%d/%d/%d ", mo+1, n[mo], rev[mo], ids[mo])
	}
	return string(b)
}
