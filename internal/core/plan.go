package core

import (
	"os"

	"ringsampler/internal/storage"
)

// Read planning (DESIGN.md §5). The planner turns a stage's picks — one
// sampled edge entry or one feature record each, in plan order, each
// with the stage-buffer position it lands at — into ring reads. A read
// covers a file span; its segments say which span bytes land where.
//
// A later pick joins the current read when it starts at or after the
// read's start and the read still fits one page-sized scratch slot (its
// O_DIRECT window, when the file has one, is at most a page). A span of
// at most a page touches at most two adjacent pages, and its first and
// last bytes are picked, so the read touches exactly the pages the
// per-pick reads would have touched — the page cache and the device
// move whole pages anyway — through one SQE instead of many. A read
// whose picks are file- and buffer-adjacent is direct: it lands
// straight in the stage buffer and is not capped. Any other read is a
// gather read: it lands in a scratch slot and its segments are
// scattered out at completion.

// pageBytes is the merge granularity and the scratch slot size.
var pageBytes = int64(os.Getpagesize())

// ioRun is one planned ring read: the file bytes [off, off+span) of the
// issuing file, whose segments are planner.segs[seg : seg+nseg]. gap is
// the span bytes no segment covers: what a gather read fetches between
// its picks.
type ioRun struct {
	off  int64
	span int64
	gap  int64
	seg  int32
	nseg int32
}

// segment is one byte range of a run's span — span bytes
// [spanOff, spanOff+n) — and the stage-buffer position it lands at.
type segment struct {
	spanOff int64
	n       int64
	bufPos  int64
}

// direct reports whether the run is one segment covering its whole
// span, so it can read straight into the stage buffer.
func (r *ioRun) direct() bool { return r.nseg == 1 }

// planner coalesces one stage's picks into runs over one file.
type planner struct {
	stride int64 // bytes per entry (edge entry or feature record)
	base   int64 // global entry index of the file's first entry (shard datasets; 0 otherwise)
	align  int   // O_DIRECT alignment of the file (0 = buffered)
	page   int64 // merge granularity and gather window cap

	runs []ioRun
	segs []segment
}

func newPlanner(stride, base int64, align int) planner {
	return planner{stride: stride, base: base, align: align, page: pageBytes}
}

func (p *planner) reset() {
	p.runs = p.runs[:0]
	p.segs = p.segs[:0]
}

// add plans one pick: global entry `entry`, landing at stage-buffer
// byte bufPos.
func (p *planner) add(entry, bufPos int64) {
	a := (entry - p.base) * p.stride
	if n := len(p.runs); n > 0 {
		r := &p.runs[n-1]
		last := &p.segs[len(p.segs)-1]
		end := r.off + r.span
		adjacent := a == r.off+last.spanOff+last.n && bufPos == last.bufPos+last.n
		if adjacent && r.direct() {
			r.span += p.stride
			last.n += p.stride
			return
		}
		newEnd := max(end, a+p.stride)
		if a >= r.off && p.window(r.off, newEnd) <= p.page {
			if a >= end {
				r.gap += a - end
			} else if !p.covered(r, a-r.off) {
				// An unsorted pick filling part of an earlier gap.
				r.gap -= p.stride
			}
			r.span = newEnd - r.off
			if adjacent {
				last.n += p.stride
			} else {
				p.segs = append(p.segs, segment{spanOff: a - r.off, n: p.stride, bufPos: bufPos})
				r.nseg++
			}
			return
		}
	}
	p.addSpan(a, p.stride, bufPos)
}

// covered reports whether span offset off already lies in one of run
// r's segments. Offsets and lengths are whole strides, so a pick inside
// the span is either wholly covered or wholly in a gap.
func (p *planner) covered(r *ioRun, off int64) bool {
	segs := p.segsOf(r)
	for i := len(segs) - 1; i >= 0; i-- {
		if s := &segs[i]; off >= s.spanOff && off < s.spanOff+s.n {
			return true
		}
	}
	return false
}

// addList plans n consecutive entries starting at global entry `entry`
// as one direct run of their own: the full-fetch path's whole neighbor
// list.
func (p *planner) addList(entry, n, bufPos int64) {
	p.addSpan((entry-p.base)*p.stride, n*p.stride, bufPos)
}

func (p *planner) addSpan(off, n, bufPos int64) {
	p.runs = append(p.runs, ioRun{off: off, span: n, seg: int32(len(p.segs)), nseg: 1})
	p.segs = append(p.segs, segment{n: n, bufPos: bufPos})
}

// window is the byte length a read of file bytes [lo, hi) transfers:
// the span itself on a buffered file, its aligned window under O_DIRECT.
func (p *planner) window(lo, hi int64) int64 {
	if p.align == 0 {
		return hi - lo
	}
	return storage.AlignUp(hi, p.align) - storage.AlignDown(lo, p.align)
}

// segsOf returns run r's segments.
func (p *planner) segsOf(r *ioRun) []segment {
	return p.segs[r.seg : r.seg+r.nseg]
}
