// Package asciiplot renders small log–log scatter plots as text, so the
// CPU-time figures of the paper (Figures 3 and 4) can be regenerated as
// actual figures in a terminal and archived with the CSV data.
package asciiplot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (X, Y) sample; both coordinates must be positive for log
// axes.
type Point struct {
	X, Y float64
}

// Plot holds named series and axis labels.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	// Series maps a name to its samples; each series is drawn with the
	// first rune of its marker (assigned by insertion order of Add).
	names   []string
	series  map[string][]Point
	markers map[string]byte
}

// markerSet provides distinguishable single-character markers.
const markerSet = "*o+x#@%&"

// New returns an empty plot.
func New(title, xlabel, ylabel string) *Plot {
	return &Plot{
		Title:   title,
		XLabel:  xlabel,
		YLabel:  ylabel,
		series:  make(map[string][]Point),
		markers: make(map[string]byte),
	}
}

// Add appends samples to a named series, creating it on first use.
func (p *Plot) Add(name string, pts ...Point) {
	if _, ok := p.series[name]; !ok {
		p.names = append(p.names, name)
		p.markers[name] = markerSet[(len(p.names)-1)%len(markerSet)]
	}
	p.series[name] = append(p.series[name], pts...)
}

// Render draws the plot on a width×height character grid with log₁₀ axes.
// Non-positive values are skipped.
func (p *Plot) Render(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, name := range p.names {
		for _, pt := range p.series[name] {
			if pt.X <= 0 || pt.Y <= 0 {
				continue
			}
			xmin, xmax = math.Min(xmin, pt.X), math.Max(xmax, pt.X)
			ymin, ymax = math.Min(ymin, pt.Y), math.Max(ymax, pt.Y)
		}
	}
	if !(xmin < xmax) {
		xmax = xmin * 10
	}
	if !(ymin < ymax) {
		ymax = ymin * 10
	}
	if math.IsInf(xmin, 1) {
		return p.Title + "\n(no data)\n"
	}
	lx0, lx1 := math.Log10(xmin), math.Log10(xmax)
	ly0, ly1 := math.Log10(ymin), math.Log10(ymax)

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, name := range p.names {
		m := p.markers[name]
		for _, pt := range p.series[name] {
			if pt.X <= 0 || pt.Y <= 0 {
				continue
			}
			cx := int(math.Round((math.Log10(pt.X) - lx0) / (lx1 - lx0) * float64(width-1)))
			cy := int(math.Round((math.Log10(pt.Y) - ly0) / (ly1 - ly0) * float64(height-1)))
			row := height - 1 - cy
			if row < 0 || row >= height || cx < 0 || cx >= width {
				continue
			}
			grid[row][cx] = m
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", p.Title)
	legend := make([]string, 0, len(p.names))
	for _, name := range p.names {
		legend = append(legend, fmt.Sprintf("%c %s", p.markers[name], name))
	}
	sort.Strings(legend)
	fmt.Fprintf(&sb, "legend: %s\n", strings.Join(legend, "   "))
	fmt.Fprintf(&sb, "%10.3g ┤%s\n", ymax, string(grid[0]))
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(&sb, "%10s │%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(&sb, "%10.3g ┤%s\n", ymin, string(grid[height-1]))
	fmt.Fprintf(&sb, "%10s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(&sb, "%11s%-10.3g%s%10.3g\n", "", xmin, strings.Repeat(" ", max(0, width-20)), xmax)
	fmt.Fprintf(&sb, "%11s(%s, log–log; y: %s)\n", "", p.XLabel, p.YLabel)
	return sb.String()
}
