package main

import (
	"fmt"
	"strings"
)

// The Sales schema shared by every workload: one order line per row.
// Revenue is integral so incremental sums stay bit-identical to the
// correctness model's.
const salesDDL = `CREATE TABLE Sales (orderId int, region string, segment string, year int, month int, weekday int, revenue int);`

// Group vocabularies of the generated rows.
var (
	regions  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"}
	segments = []string{"CONSUMER", "CORPORATE", "HOME", "SMALLBIZ"}
	years    = []int64{2019, 2020, 2021, 2022, 2023, 2024}
)

const (
	months     = 12
	weekdays   = 7
	maxRevenue = 4999

	// The month axis: month m sits at pixel x = axisX0 + axisStep*m.
	axisX0   = 20
	axisStep = 20

	// Framebuffer and bar geometry: bars stand on barBase, barWidth wide.
	fbWidth  = 320
	fbHeight = 300
	barBase  = 280
	barWidth = 16

	topK         = 10
	rankBarScale = 20 // revenue per pixel of a leaderboard bar
)

// monthX is the axis formula: the pixel column of month m (1-based).
func monthX(m int) int64 { return axisX0 + axisStep*int64(m) }

// barScale is the cube chart's revenue per pixel for a base of rows: one
// region's revenue over every month stands about 100 px tall, with room for
// the rows ingested during a run.
func barScale(rows int) int64 {
	return max(1, int64(rows)*maxRevenue/int64(len(regions))/200)
}

// regionBarX places region i's bar on the cube chart.
func regionBarX(i int) int64 { return 20 + 60*int64(i) }

// rankBarX places the rank-r leaderboard bar on the fused chart.
func rankBarX(r int64) int64 { return 24*r - 16 }

// prelude is the interaction half of both programs: the month axis, the
// drag recognizer, and the month selection the drag drives. An empty C
// selects every month; otherwise month m is selected when its axis x lies
// between the drag's anchor and the rightmost point it reached.
func prelude() string {
	var b strings.Builder
	b.WriteString(salesDDL)
	b.WriteString("\nCREATE TABLE MonthAxis (month int, x int);\nINSERT INTO MonthAxis VALUES ")
	for m := 1; m <= months; m++ {
		if m > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", m, monthX(m))
	}
	b.WriteString(`;
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);
selected_months =
  SELECT ma.month AS month FROM MonthAxis AS ma
  WHERE (SELECT count(*) FROM C) = 0
     OR (ma.x >= (SELECT min(x) FROM C) AND ma.x <= (SELECT max(x + dx) FROM C));
`)
	return b.String()
}

// cubeCharts are the four decomposable charts of the cube program.
var cubeCharts = []struct{ view, col string }{
	{"REV_region", "region"},
	{"REV_segment", "segment"},
	{"REV_year", "year"},
	{"REV_weekday", "weekday"},
}

// cubeProgram is the crossfilter whose every chart is a COUNT/SUM over
// Sales ⋈ selected_months, so a brush is answered from cube tiles. Region
// revenue renders as bars of height floor(total/scale): DeVIL's / divides
// in floating point, and whole-pixel heights keep the painted extent exact.
func cubeProgram(scale int64) string {
	var b strings.Builder
	b.WriteString(prelude())
	for _, c := range cubeCharts {
		fmt.Fprintf(&b, `%s = SELECT s.%s AS grp, sum(s.revenue) AS total, count(*) AS n
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.%s;
`, c.view, c.col, c.col)
	}
	b.WriteString("CREATE TABLE RegionAxis (region string, x int);\nINSERT INTO RegionAxis VALUES ")
	for i, r := range regions {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', %d)", r, regionBarX(i))
	}
	fmt.Fprintf(&b, `;
BARS = SELECT ra.x AS x, %[1]d - floor(f.total / %[2]d) AS y, %[3]d AS width, floor(f.total / %[2]d) AS height, 'green' AS fill
  FROM REV_region AS f, RegionAxis AS ra WHERE f.grp = ra.region;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`, barBase, scale, barWidth)
	return b.String()
}

// fusedProgram keeps every chart off the cube path by its shape: MAX, MIN
// and COUNT(DISTINCT) are not decomposable, and the leaderboard is an
// ORDER BY … LIMIT over the brushed join with a rank self-join.
func fusedProgram() string {
	var b strings.Builder
	b.WriteString(prelude())
	fmt.Fprintf(&b, `HI_region = SELECT s.region AS grp, max(s.revenue) AS hi
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.region;
LO_segment = SELECT s.segment AS grp, min(s.revenue) AS lo
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.segment;
REACH_weekday = SELECT s.weekday AS grp, count(DISTINCT s.region) AS regions
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.weekday;
TOP = SELECT s.orderId AS oid, s.revenue AS rev
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month
  ORDER BY rev DESC, oid LIMIT %[1]d;
RANKED = SELECT a.oid AS oid, a.rev AS rev, count(*) AS rk
  FROM TOP AS a, TOP AS b WHERE b.rev > a.rev OR (b.rev = a.rev AND b.oid <= a.oid)
  GROUP BY a.oid, a.rev;
BARS = SELECT rk * 24 - 16 AS x, %[2]d - floor(rev / %[4]d) AS y, %[3]d AS width, floor(rev / %[4]d) AS height, 'green' AS fill
  FROM RANKED;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`, topK, barBase, barWidth, rankBarScale)
	return b.String()
}
