package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Layout constants for the charts RenderSVG draws.
const (
	chartWidth   = 720
	chartHeight  = 440
	marginLeft   = 70
	marginRight  = 180 // room for the legend
	marginTop    = 50
	marginBottom = 55
	tickCount    = 5
)

// palette holds visually distinct series colours (looped when exceeded).
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
	"#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
}

// RenderSVG writes the figure as a self-contained SVG line chart, drawn
// with nothing but the standard library, so a campaign produces
// paper-style plots (drpbench -svg) without any plotting stack.
func (f *FigureResult) RenderSVG(w io.Writer) error {
	if len(f.X) == 0 || len(f.Series) == 0 {
		return fmt.Errorf("experiments: figure %s has no data", f.ID)
	}
	xMin, xMax := bounds(f.X)
	var ys []float64
	for _, s := range f.Series {
		ys = append(ys, s.Y...)
	}
	yMin, yMax := bounds(ys)
	if yMin > 0 {
		yMin = 0 // anchor ratio-style axes at zero when everything is positive
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}

	plotW := float64(chartWidth - marginLeft - marginRight)
	plotH := float64(chartHeight - marginTop - marginBottom)
	px := func(x float64) float64 { return marginLeft + (x-xMin)/(xMax-xMin)*plotW }
	py := func(y float64) float64 { return marginTop + plotH - (y-yMin)/(yMax-yMin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		chartWidth, chartHeight, chartWidth, chartHeight)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	// Title and axis labels.
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="15" font-weight="bold">Figure %s: %s</text>`+"\n",
		marginLeft, xmlEscape(f.ID), xmlEscape(f.Title))
	fmt.Fprintf(&b, `<text x="%f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		marginLeft+plotW/2, chartHeight-12, xmlEscape(f.XLabel))
	fmt.Fprintf(&b, `<text x="18" y="%f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 18 %f)">%s</text>`+"\n",
		marginTop+plotH/2, marginTop+plotH/2, xmlEscape(f.YLabel))

	// Gridlines and ticks.
	for t := 0; t <= tickCount; t++ {
		frac := float64(t) / tickCount
		yVal := yMin + frac*(yMax-yMin)
		y := py(yVal)
		fmt.Fprintf(&b, `<line x1="%d" y1="%f" x2="%f" y2="%f" stroke="#dddddd"/>`+"\n",
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, y+4, tickLabel(yVal))

		xVal := xMin + frac*(xMax-xMin)
		x := px(xVal)
		fmt.Fprintf(&b, `<line x1="%f" y1="%d" x2="%f" y2="%f" stroke="#eeeeee"/>`+"\n",
			x, marginTop, x, marginTop+plotH)
		fmt.Fprintf(&b, `<text x="%f" y="%f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, marginTop+plotH+16, tickLabel(xVal))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%f" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%f" x2="%f" y2="%f" stroke="black"/>`+"\n",
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)

	// Series lines, point markers and legend.
	for si, s := range f.Series {
		colour := palette[si%len(palette)]
		var pts []string
		for i, y := range s.Y {
			if i >= len(f.X) {
				break
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(f.X[i]), py(y)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), colour)
		for i, y := range s.Y {
			if i >= len(f.X) {
				break
			}
			fmt.Fprintf(&b, `<circle cx="%f" cy="%f" r="3" fill="%s"/>`+"\n", px(f.X[i]), py(y), colour)
		}
		ly := marginTop + 8 + float64(si)*18
		lx := float64(chartWidth - marginRight + 14)
		fmt.Fprintf(&b, `<line x1="%f" y1="%f" x2="%f" y2="%f" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly, lx+22, ly, colour)
		fmt.Fprintf(&b, `<text x="%f" y="%f" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+28, ly+4, xmlEscape(s.Name))
	}
	b.WriteString("</svg>\n")

	_, err := io.WriteString(w, b.String())
	return err
}

func bounds(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func tickLabel(v float64) string {
	switch {
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	}
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
